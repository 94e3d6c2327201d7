// Benchmark-side tracing: an in-memory span log, and a CoherenceProtocol
// decorator that records one span around every protocol hook it forwards.
//
// Spans are taken at the boundary of each call into a layer, from the
// benchmark's own code; nothing inside the simulator is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string_view>
#include <vector>

#include "updsm/dsm/protocol.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : std::uint8_t {
  Answer,          // one verified answer: everything below
  Sequential,      // harness::run_sequential
  Alloc,           // apps::make_app + Application::allocate
  ClusterInit,     // dsm::Cluster constructor
  ProtocolInit,    // CoherenceProtocol::init (inside ClusterInit)
  Run,             // dsm::Cluster::run
  Teardown,        // dsm::Cluster destructor
  Barrier,         // barrier_begin entry .. barrier_finish return
  BarrierBegin,
  BarrierArrive,
  BarrierMaster,
  BarrierRelease,
  BarrierFinish,
  ReadFault,
  WriteFault,
  AsyncPublish,
  AsyncRefresh,
};
inline constexpr std::size_t kSpanNameCount =
    static_cast<std::size_t>(SpanName::AsyncRefresh) + 1;

[[nodiscard]] const char* to_string(SpanName name);

inline constexpr int kNone = -1;  // no parent span / controller-side span

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = kNone;  // index into SpanLog::controller()
  int node = kNone;    // simulated node, or kNone for controller work
  SpanName name = SpanName::Answer;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Spans of one traced answer. The controller list is written only by the
/// benchmark's main thread, which also runs every barrier callback; node
/// n's list only by the thread currently running node n's fiber. Recording
/// therefore takes no lock. Read the log only after Cluster::run returned.
class SpanLog {
 public:
  explicit SpanLog(int num_nodes);

  /// Controller thread: opens a span whose parent is the innermost open
  /// controller span, and returns its index.
  [[nodiscard]] int open(SpanName name);
  void close(int span);

  /// Node thread: records a finished span of `node`, parented to the span
  /// set by set_node_parent (the Cluster::run span).
  void record(int node, SpanName name, std::int64_t start_ns,
              std::int64_t end_ns);
  void set_node_parent(int span) { node_parent_ = span; }

  [[nodiscard]] const std::vector<Span>& controller() const {
    return controller_;
  }
  [[nodiscard]] const std::vector<std::vector<Span>>& nodes() const {
    return nodes_;
  }

  /// One CSV row per span: id,parent,name,node,start_us,end_us. Ids are
  /// controller spans first, then node 0's, node 1's, ...; times are
  /// relative to the first span's start.
  void write_csv(std::ostream& out) const;

 private:
  std::vector<Span> controller_;
  std::vector<int> open_;  // stack of open controller spans
  std::vector<std::vector<Span>> nodes_;
  int node_parent_ = kNone;
};

/// Scoped controller span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name)
      : log_(log), span_(log != nullptr ? log->open(name) : kNone) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return span_; }

 private:
  SpanLog* log_;
  int span_;
};

/// Forwards every CoherenceProtocol virtual to `inner`, recording a span
/// around the fault handlers, the barrier hooks, init and the async hooks.
/// Forwarding parallel_safe() keeps the cluster from downgrading the
/// parallel gang to the baton; forwarding async_converged() keeps the async
/// apps' convergence verdict. The benchmark checks every traced answer's
/// virtual results and gang against an untraced one.
class TracedProtocol final : public updsm::dsm::CoherenceProtocol {
 public:
  TracedProtocol(std::unique_ptr<updsm::dsm::CoherenceProtocol> inner,
                 SpanLog& log);

  [[nodiscard]] std::string_view name() const override;
  void init(updsm::dsm::Runtime& rt) override;
  void read_fault(updsm::NodeId n, updsm::PageId page) override;
  void write_fault(updsm::NodeId n, updsm::PageId page) override;
  [[nodiscard]] bool parallel_safe() const override;
  void barrier_begin() override;
  void barrier_arrive(updsm::NodeId n) override;
  void barrier_master() override;
  void barrier_release(updsm::NodeId n) override;
  void barrier_finish() override;
  void iteration_begin(updsm::NodeId n, std::uint64_t iteration) override;
  [[nodiscard]] bool async_publish(updsm::NodeId n, std::uint64_t step,
                                   double residual) override;
  void async_refresh(updsm::NodeId n) override;
  [[nodiscard]] bool async_converged() const override;
  [[nodiscard]] std::uint64_t live_page_buffers() const override;

 private:
  std::unique_ptr<updsm::dsm::CoherenceProtocol> inner_;
  SpanLog& log_;
  int barrier_ = kNone;  // the open Barrier span, between begin and finish
};

}  // namespace perfbench
