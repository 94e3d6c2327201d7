#include "tracing.hpp"

#include <cstdio>
#include <utility>

namespace perfbench {

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::Answer:
      return "answer";
    case SpanName::Sequential:
      return "sequential";
    case SpanName::Alloc:
      return "alloc";
    case SpanName::ClusterInit:
      return "cluster_init";
    case SpanName::ProtocolInit:
      return "protocol_init";
    case SpanName::Run:
      return "run";
    case SpanName::Teardown:
      return "teardown";
    case SpanName::Barrier:
      return "barrier";
    case SpanName::BarrierBegin:
      return "barrier_begin";
    case SpanName::BarrierArrive:
      return "barrier_arrive";
    case SpanName::BarrierMaster:
      return "barrier_master";
    case SpanName::BarrierRelease:
      return "barrier_release";
    case SpanName::BarrierFinish:
      return "barrier_finish";
    case SpanName::ReadFault:
      return "read_fault";
    case SpanName::WriteFault:
      return "write_fault";
    case SpanName::AsyncPublish:
      return "async_publish";
    case SpanName::AsyncRefresh:
      return "async_refresh";
  }
  return "?";
}

SpanLog::SpanLog(int num_nodes)
    : nodes_(static_cast<std::size_t>(num_nodes)) {}

int SpanLog::open(SpanName name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNone : open_.back();
  span.start_ns = now_ns();
  controller_.push_back(span);
  open_.push_back(static_cast<int>(controller_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int span) {
  // Closing an outer span also closes any inner span an exception left
  // open, so unwinding never leaves the stack inconsistent.
  const std::int64_t end = now_ns();
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    controller_[static_cast<std::size_t>(top)].end_ns = end;
    if (top == span) break;
  }
}

void SpanLog::record(int node, SpanName name, std::int64_t start_ns,
                     std::int64_t end_ns) {
  Span span;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = node_parent_;
  span.node = node;
  span.name = name;
  nodes_[static_cast<std::size_t>(node)].push_back(span);
}

void SpanLog::write_csv(std::ostream& out) const {
  const std::int64_t origin =
      controller_.empty() ? 0 : controller_.front().start_ns;
  out << "id,parent,name,node,start_us,end_us\n";
  int id = 0;
  char row[160];
  auto emit = [&](const Span& s) {
    std::snprintf(row, sizeof row, "%d,%d,%s,%d,%.3f,%.3f\n", id++, s.parent,
                  to_string(s.name), s.node,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - origin) / 1e3);
    out << row;
  };
  for (const Span& s : controller_) emit(s);
  for (const auto& node : nodes_) {
    for (const Span& s : node) emit(s);
  }
}

TracedProtocol::TracedProtocol(
    std::unique_ptr<updsm::dsm::CoherenceProtocol> inner, SpanLog& log)
    : inner_(std::move(inner)), log_(log) {}

std::string_view TracedProtocol::name() const { return inner_->name(); }

void TracedProtocol::init(updsm::dsm::Runtime& rt) {
  const ScopedSpan span(&log_, SpanName::ProtocolInit);
  inner_->init(rt);
}

void TracedProtocol::read_fault(updsm::NodeId n, updsm::PageId page) {
  const std::int64_t start = now_ns();
  inner_->read_fault(n, page);
  log_.record(static_cast<int>(n.value()), SpanName::ReadFault, start,
              now_ns());
}

void TracedProtocol::write_fault(updsm::NodeId n, updsm::PageId page) {
  const std::int64_t start = now_ns();
  inner_->write_fault(n, page);
  log_.record(static_cast<int>(n.value()), SpanName::WriteFault, start,
              now_ns());
}

bool TracedProtocol::parallel_safe() const { return inner_->parallel_safe(); }

void TracedProtocol::barrier_begin() {
  barrier_ = log_.open(SpanName::Barrier);
  const ScopedSpan span(&log_, SpanName::BarrierBegin);
  inner_->barrier_begin();
}

void TracedProtocol::barrier_arrive(updsm::NodeId n) {
  const ScopedSpan span(&log_, SpanName::BarrierArrive);
  inner_->barrier_arrive(n);
}

void TracedProtocol::barrier_master() {
  const ScopedSpan span(&log_, SpanName::BarrierMaster);
  inner_->barrier_master();
}

void TracedProtocol::barrier_release(updsm::NodeId n) {
  const ScopedSpan span(&log_, SpanName::BarrierRelease);
  inner_->barrier_release(n);
}

void TracedProtocol::barrier_finish() {
  {
    const ScopedSpan span(&log_, SpanName::BarrierFinish);
    inner_->barrier_finish();
  }
  log_.close(std::exchange(barrier_, kNone));
}

void TracedProtocol::iteration_begin(updsm::NodeId n,
                                     std::uint64_t iteration) {
  inner_->iteration_begin(n, iteration);
}

bool TracedProtocol::async_publish(updsm::NodeId n, std::uint64_t step,
                                   double residual) {
  const std::int64_t start = now_ns();
  const bool converged = inner_->async_publish(n, step, residual);
  log_.record(static_cast<int>(n.value()), SpanName::AsyncPublish, start,
              now_ns());
  return converged;
}

void TracedProtocol::async_refresh(updsm::NodeId n) {
  const std::int64_t start = now_ns();
  inner_->async_refresh(n);
  log_.record(static_cast<int>(n.value()), SpanName::AsyncRefresh, start,
              now_ns());
}

bool TracedProtocol::async_converged() const {
  return inner_->async_converged();
}

std::uint64_t TracedProtocol::live_page_buffers() const {
  return inner_->live_page_buffers();
}

}  // namespace perfbench
