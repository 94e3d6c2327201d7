#include "updsm/dsm/runtime.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "updsm/common/log.hpp"
#include "updsm/sim/exec_context.hpp"

namespace updsm::dsm {

namespace {
using sim::MsgKind;
using sim::SimTime;
using sim::TimeCat;

/// Wire overhead per batch carried inside a FlushRelay message: original
/// sender, final destination, offset and length of the segment's bytes.
constexpr std::uint64_t kRelaySegmentHeaderBytes = 16;
/// Fan-out of the dissemination tree relayed flushes travel along.
constexpr std::size_t kRelayFanout = 4;

/// Reliable-channel retransmission under a fault plan: each lost attempt
/// costs the sender its timeout in Wait; the timeout starts at 2 ms and
/// doubles per retry up to 16 ms (RetryPolicy bounds the attempts).
constexpr SimTime kRetryTimeout = sim::usec(2000);
constexpr double kRetryBackoff = 2.0;
constexpr SimTime kRetryMaxTimeout = sim::usec(16000);
}  // namespace

Runtime::Runtime(const ClusterConfig& config, std::uint32_t num_pages)
    : config_(config),
      num_pages_(num_pages),
      net_(config.costs.net, config.num_nodes) {
  validate_cluster_config(config);
  const int n = config.num_nodes;
  tables_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    tables_.push_back(
        std::make_unique<mem::PageTable>(num_pages, config.page_size));
  }
  clocks_.assign(static_cast<std::size_t>(n), sim::VirtualClock{});
  os_.assign(static_cast<std::size_t>(n),
             sim::OsModel(config.costs.os, num_pages));
  service_mu_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    service_mu_.push_back(std::make_unique<std::shared_mutex>());
  }
  workers_ = sim::Gang::resolve_workers(config.workers, n);
  arenas_.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    arenas_.push_back(std::make_unique<PoolArena>());
  }
  node_arena_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    node_arena_[static_cast<std::size_t>(i)] =
        sim::Gang::owner_worker(i, n, workers_);
  }
  if (config.trace) trace_ = std::make_unique<TraceLog>(n);
  if (!config.faults.empty()) {
    fault_plan_ = std::make_unique<sim::FaultPlan>(config.faults,
                                                   config.fault_seed, n);
  }
  page_stats_.assign(num_pages, PageStats{});
  outboxes_.resize(static_cast<std::size_t>(n));
  dest_hints_.resize(static_cast<std::size_t>(workers_));
  for (DestHints& hints : dest_hints_) {
    hints.hint.assign(static_cast<std::size_t>(n), 0);
  }
  arrival_payload_.assign(static_cast<std::size_t>(n), 0);
  release_payload_.assign(static_cast<std::size_t>(n), 0);
  measure_mark_.assign(static_cast<std::size_t>(n), 0);
}

NodeId Runtime::initial_home(PageId page) const {
  const auto n = static_cast<std::uint32_t>(num_nodes());
  const std::vector<std::uint32_t>& annotated = config_.static_homes;
  if (page.index() < annotated.size()) {
    const std::uint32_t home = annotated[page.index()];
    UPDSM_REQUIRE(home < n, "static home " << home << " for page "
                                           << page.value() << " out of range");
    return NodeId{home};
  }
  const std::uint32_t per = (num_pages_ + n - 1) / n;
  return NodeId{std::min(page.value() / per, n - 1)};
}

void Runtime::create_twin(NodeId n, TwinStore& twins, PageId page) {
  twins.create(page, table(n).frame(page));
  ++counters_.twins_created;
  charge_dsm(n, 0, costs().dsm.copy_per_byte_ns, page_size());
}

void Runtime::refresh_twin(NodeId n, TwinStore& twins, PageId page) {
  twins.refresh(page, table(n).frame(page));
  charge_dsm(n, 0, costs().dsm.copy_per_byte_ns, page_size());
}

mem::Diff Runtime::diff_page(NodeId n, const TwinStore& twins, PageId page) {
  mem::Diff diff = arena_for_node(n).diffs.take();
  mem::Diff::create_into(diff, twins.get(page), table(n).frame(page));
  charge_dsm(n, costs().dsm.diff_fixed, costs().dsm.diff_create_per_byte_ns,
             page_size());
  ++counters_.diffs_created;
  if (diff.empty()) ++counters_.zero_diffs;
  return diff;
}

void Runtime::charge_diff_apply(NodeId n, std::uint64_t payload_bytes,
                                bool sigio) {
  charge_dsm(n, 0, costs().dsm.diff_apply_per_byte_ns, payload_bytes, sigio);
}

void Runtime::charge_page_transfer(NodeId n, NodeId owner) {
  const double copy_ns = costs().dsm.copy_per_byte_ns;
  const std::uint32_t psize = page_size();
  roundtrip(n, owner, MsgKind::DataRequest, 16, psize + 32,
            static_cast<SimTime>(copy_ns * static_cast<double>(psize)));
  charge_dsm(n, 0, copy_ns, psize);
}

void Runtime::mprotect(NodeId n, PageId page, mem::Protect prot, bool sigio) {
  UPDSM_LOG(Trace, "mprotect node " << n << " page " << page << " -> "
                                    << mem::to_string(prot) << " epoch "
                                    << epoch_);
  table(n).set_prot(page, prot);
  if (trace_) {
    const char* p = prot == mem::Protect::None
                        ? "none"
                        : (prot == mem::Protect::Read ? "r" : "rw");
    trace_->emit("mprot n" + std::to_string(n.value()) + " p" +
                 std::to_string(page.value()) + " " + p);
  }
  ++page_stats_[page.index()].mprotects;
  const SimTime cost = os(n).mprotect_cost(page);
  clock(n).advance(sigio ? TimeCat::Sigio : TimeCat::Os, cost);
}

void Runtime::charge_segv(NodeId n) {
  clock(n).advance(TimeCat::Os, os(n).segv_cost());
}

void Runtime::charge_dsm(NodeId n, SimTime fixed, double per_byte_ns,
                         std::uint64_t bytes, bool sigio) {
  const SimTime cost =
      fixed + static_cast<SimTime>(per_byte_ns * static_cast<double>(bytes));
  clock(n).advance(sigio ? TimeCat::Sigio : TimeCat::Dsm, cost);
}

void Runtime::retry_wait(NodeId sender, MsgKind kind, NodeId to, int attempt,
                         SimTime& timeout) {
  if (attempt >= config_.retry.max_attempts) {
    throw ProtocolError("reliable " + std::string(sim::to_string(kind)) +
                        " n" + std::to_string(sender.value()) + ">n" +
                        std::to_string(to.value()) + " exhausted " +
                        std::to_string(config_.retry.max_attempts) +
                        " attempts");
  }
  clock(sender).advance(TimeCat::Wait, timeout);
  timeout = std::min(
      static_cast<SimTime>(static_cast<double>(timeout) * kRetryBackoff),
      kRetryMaxTimeout);
  ++counters_.reliable_retries;
  if (trace_) {
    trace_->emit("retry " + std::string(sim::to_string(kind)) + " n" +
                 std::to_string(sender.value()) + ">n" +
                 std::to_string(to.value()));
  }
}

sim::FaultDecision Runtime::fate(MsgKind kind, NodeId from, NodeId to) {
  return fault_plan_ != nullptr ? fault_plan_->next(kind, from, to)
                                : sim::FaultDecision{};
}

void Runtime::suppress_dup(MsgKind kind, NodeId from, NodeId to,
                           std::uint64_t bytes, SimTime handler_extra) {
  net_.record(kind, from, to, bytes);
  net_.note_dup();
  clock(to).advance(TimeCat::Sigio, costs().net.recv_trap + handler_extra);
  os(to).count_recv();
  ++counters_.dup_suppressed;
  if (trace_) {
    trace_->emit("dup " + std::string(sim::to_string(kind)) + " n" +
                 std::to_string(from.value()) + ">n" +
                 std::to_string(to.value()));
  }
}

void Runtime::trace_flush(const FlushTag& tag, NodeId from, NodeId to,
                          std::uint64_t bytes, bool delivered) {
  std::string line = std::string(tag.name) + " n" +
                     std::to_string(from.value()) + ">n" +
                     std::to_string(to.value()) + " ";
  if (tag.unit != '\0') line += std::to_string(tag.count) + tag.unit + " ";
  line += std::to_string(bytes) + "B";
  if (!delivered) line += " drop";
  trace_->emit(line);
}

bool Runtime::send_unreliable(MsgKind kind, NodeId from, NodeId to,
                              std::uint64_t bytes, const FlushTag& tag) {
  net_.record(kind, from, to, bytes);
  clock(from).advance(TimeCat::Os, costs().net.send_trap);
  os(from).count_send();
  const sim::FaultDecision f = fate(kind, from, to);
  if (f.drop) {
    net_.record_drop(kind);
  } else if (f.extra_delay > 0) {
    // Extra delay on a fire-and-forget push has no timing effect in this
    // model (the receiver absorbs it asynchronously); account it only.
    net_.note_delay();
  }
  if (trace_) trace_flush(tag, from, to, bytes, !f.drop);
  if (f.drop) return false;
  clock(to).advance(TimeCat::Sigio, costs().net.recv_trap);
  os(to).count_recv();
  // A duplicated push interrupts the receiver a second time but is
  // suppressed before the protocol sees it: updates apply exactly once.
  if (f.duplicate) suppress_dup(kind, from, to, bytes);
  return true;
}

void Runtime::roundtrip(NodeId requester, NodeId responder, MsgKind req_kind,
                        std::uint64_t req_bytes, std::uint64_t reply_bytes,
                        SimTime responder_work) {
  UPDSM_CHECK_MSG(requester != responder,
                  "self-roundtrip on node " << requester);
  if (trace_) {
    trace_->emit("req n" + std::to_string(requester.value()) + ">n" +
                 std::to_string(responder.value()) + " " +
                 std::to_string(req_bytes) + "B " +
                 std::to_string(reply_bytes) + "B");
  }
  // Requester: send trap, then stall in Wait until the reply has been
  // received; responder: the request interrupts it and everything runs in
  // sigio context. Under a fault plan this is a retransmission loop with
  // idempotent service-side handling: a lost request or reply costs the
  // requester the full timeout in Wait; a retransmitted request arriving
  // after the original was already served is recognized (dedup) and
  // re-answered without redoing the work, so the exchange's effect on
  // protocol state happens exactly once no matter how many copies flew.
  const auto& net_costs = costs().net;
  SimTime timeout = kRetryTimeout;
  bool served = false;  // responder_work already performed
  for (int attempt = 1;; ++attempt) {
    const SimTime req_wire = net_.record(req_kind, requester, responder,
                                         req_bytes);
    clock(requester).advance(TimeCat::Os, net_costs.send_trap);
    os(requester).count_send();
    const sim::FaultDecision req_fate = fate(req_kind, requester, responder);
    if (req_fate.drop) {
      net_.record_drop(req_kind);
      retry_wait(requester, req_kind, responder, attempt, timeout);
      continue;
    }
    if (req_fate.extra_delay > 0) net_.note_delay();

    // Request delivered: service in sigio context at the responder. Only
    // the first delivered copy executes the real work.
    const SimTime service = net_costs.recv_trap + costs().dsm.handler_fixed +
                            (served ? 0 : responder_work) +
                            net_costs.send_trap;
    clock(responder).advance(TimeCat::Sigio, service);
    os(responder).count_recv();
    os(responder).count_send();
    if (served) {
      // Retransmission of an already-served request: counted as a
      // suppressed duplicate (the reply is simply resent).
      net_.note_dup();
      ++counters_.dup_suppressed;
    }
    served = true;
    if (req_fate.duplicate) {
      suppress_dup(req_kind, requester, responder, req_bytes,
                   costs().dsm.handler_fixed);
    }

    const SimTime reply_wire =
        net_.record(MsgKind::DataReply, responder, requester, reply_bytes);
    const sim::FaultDecision reply_fate =
        fate(MsgKind::DataReply, responder, requester);
    if (reply_fate.drop) {
      net_.record_drop(MsgKind::DataReply);
      retry_wait(requester, req_kind, responder, attempt, timeout);
      continue;
    }
    if (reply_fate.extra_delay > 0) net_.note_delay();

    clock(requester).advance(TimeCat::Wait,
                             req_wire + req_fate.extra_delay + service +
                                 reply_wire + reply_fate.extra_delay);
    clock(requester).advance(TimeCat::Os, net_costs.recv_trap);
    os(requester).count_recv();
    if (reply_fate.duplicate) {
      suppress_dup(MsgKind::DataReply, responder, requester, reply_bytes);
    }
    return;
  }
}

bool Runtime::flush(NodeId from, NodeId to, std::uint64_t bytes) {
  UPDSM_CHECK_MSG(from != to, "self-flush on node " << from);
  return send_unreliable(MsgKind::Flush, from, to, bytes, FlushTag{"flush"});
}

void Runtime::bind_gang(sim::Gang& gang) {
  UPDSM_CHECK_MSG(gang.size() == num_nodes() && gang.workers() == workers_,
                  "gang of " << gang.size() << " nodes / " << gang.workers()
                             << " workers bound to a runtime of "
                             << num_nodes() << " / " << workers_);
  gang_ = &gang;
}

void Runtime::for_each_node(const std::function<void(NodeId)>& fn) {
  UPDSM_REQUIRE(gang_ != nullptr,
                "Runtime::for_each_node needs a gang: call it from a "
                "barrier hook of a Cluster run");
  gang_->for_each_node(
      [&fn](int n) { fn(NodeId{static_cast<std::uint32_t>(n)}); });
  // The shares traced into their nodes' buffers; merging them here, in
  // node order, reproduces the lines a node-ordered serial loop emits.
  if (trace_) trace_->flush_node_buffers();
}

void Runtime::stage_flush(NodeId from, NodeId to, PageId page, NodeId creator,
                          const mem::Diff& diff, bool reliable,
                          FlushDeliverFn on_deliver) {
  UPDSM_CHECK_MSG(from != to, "self-flush on node " << from);
  const int owner = node_arena_[check(from)];
  UPDSM_CHECK_MSG(sim::current_exec_worker() == sim::kControllerContext ||
                      sim::current_exec_worker() == owner,
                  "node " << from << " staged on worker "
                          << sim::current_exec_worker() << ", owner is "
                          << owner);
  Outbox& box = outboxes_[from.index()];
  UPDSM_CHECK_MSG(!box.sealed, "node " << from
                                       << " staged a flush while its sealed "
                                          "batches await "
                                          "recycle_flush_batches()");
  DestHints& hints = dest_hints_[static_cast<std::size_t>(owner)];
  if (hints.sender != from.value()) {
    // Staging switched senders on this worker: re-point the hints at this
    // outbox's live batches (none at a sender's first record of a barrier).
    hints.sender = from.value();
    for (std::size_t i = 0; i < box.live; ++i) {
      hints.hint[box.batches[i].to.index()] = static_cast<std::uint32_t>(i);
    }
  }
  std::uint32_t& hint = hints.hint[check(to)];
  if (hint >= box.live || box.batches[hint].to != to) {
    // First record for this destination: open a batch, borrowing its
    // backing buffer from the sender-owner's arena until
    // recycle_flush_batches() returns it. Retained batch capacity is thus
    // bounded by the arenas.
    if (box.live == box.batches.size()) box.batches.emplace_back();
    hint = static_cast<std::uint32_t>(box.live++);
    StagedBatch& fresh = box.batches[hint];
    fresh.to = to;
    fresh.writer.adopt_buffer(arena_for_node(from).batch_buffers.take());
    fresh.writer.begin(from);
  }
  StagedBatch& batch = box.batches[hint];
  batch.writer.add(page, creator, epoch_, diff);
  batch.deliver.push_back(std::move(on_deliver));
  batch.reliable = batch.reliable || reliable;
}

void Runtime::seal_flush_batches() {
  const int threshold = config_.relay_threshold;
  std::vector<RelaySegment> segs;
  const std::size_t first_sealed = sealed_senders_.size();

  // Pass 1, (sender asc, destination asc): seal + census every batch and
  // transmit the unicast ones. Delivery callbacks wait for pass 3 so their
  // global order is independent of routing (clock charges are additive and
  // fault streams are per-(kind, from, to), so deferral cannot change any
  // outcome).
  for (std::size_t f = 0; f < outboxes_.size(); ++f) {
    Outbox& box = outboxes_[f];
    if (box.live == 0 || box.sealed) continue;
    box.sealed = true;
    sealed_senders_.push_back(static_cast<std::uint32_t>(f));
    const auto staged = std::span(box.batches).first(box.live);
    // Stage order follows the sender's pages; transmission follows
    // destinations.
    std::sort(staged.begin(), staged.end(),
              [](const StagedBatch& a, const StagedBatch& b) {
                return a.to < b.to;
              });
    // Route decision: a producer whose unreliable batches target more than
    // relay_threshold distinct destinations ships them through the
    // dissemination tree; reliable (diff-to-home) batches always stay
    // unicast. With relaying off every batch is unicast.
    const bool relay_sender =
        threshold > 0 &&
        std::count_if(staged.begin(), staged.end(),
                      [](const StagedBatch& b) { return !b.reliable; }) >
            threshold;
    const NodeId from{static_cast<std::uint32_t>(f)};
    for (std::size_t b = 0; b < staged.size(); ++b) {
      StagedBatch& slot = staged[b];
      const NodeId to = slot.to;
      slot.writer.seal();
      const std::uint64_t bytes = slot.writer.bytes().size();
      const std::uint64_t records = slot.writer.record_count();
      const bool relayed = relay_sender && !slot.reliable;

      // Record census: once per batch, never per transmission attempt or
      // tree hop, so fault-injected retries cannot inflate it and
      // flush_class_records() stays invariant under routing.
      net_.note_records(relayed ? MsgKind::FlushRelay : MsgKind::FlushBatch,
                        records);
      ++counters_.flush_batches;
      counters_.flush_batch_records += records;
      if (records > counters_.flush_batch_records_max.load()) {
        counters_.flush_batch_records_max = records;
      }
      const std::uint64_t cur_min = counters_.flush_batch_records_min.load();
      if (cur_min == 0 || records < cur_min) {
        counters_.flush_batch_records_min = records;
      }
      counters_.flush_batch_header_bytes_saved +=
          (records - 1) * costs().net.header_bytes;

      const FlushTag tag{"flushbatch", records, 'r'};
      if (relayed) {
        ++counters_.relay_batches;
        segs.push_back(RelaySegment{from.value(), static_cast<std::uint32_t>(b),
                                    to.value(), bytes});
      } else if (slot.reliable) {
        // Any diff-to-home record makes the whole batch reliable; with no
        // fault plan reliable_send degenerates to record + send trap.
        (void)reliable_send(MsgKind::FlushBatch, from, to, bytes);
        if (trace_) trace_flush(tag, from, to, bytes, /*delivered=*/true);
        clock(to).advance(TimeCat::Sigio, costs().net.recv_trap);
        os(to).count_recv();
        slot.delivered = true;
      } else {
        slot.delivered =
            send_unreliable(MsgKind::FlushBatch, from, to, bytes, tag);
      }
    }
  }

  // Pass 2: carry the relayed batches through the tree.
  if (!segs.empty()) relay(segs);

  // Pass 3, (sender, destination) order: run the delivery callbacks of
  // every batch that arrived -- unicast or relayed -- by iterating the
  // sealed bytes in place (every delivery round-trips the wire format).
  // A lost batch loses *all* its records; the protocols heal through
  // their per-record recovery (bar version-index invalidation, lmw lazy
  // refetch). The batches stay sealed, their bytes backing the views,
  // until recycle_flush_batches().
  for (std::size_t i = first_sealed; i < sealed_senders_.size(); ++i) {
    const Outbox& box = outboxes_[sealed_senders_[i]];
    for (const StagedBatch& slot : std::span(box.batches).first(box.live)) {
      if (!slot.delivered) continue;
      FlushBatchReader reader(slot.writer.bytes());
      UPDSM_CHECK(reader.header_ok());
      FlushRecordView rec;
      for (const FlushDeliverFn& fn : slot.deliver) {
        UPDSM_CHECK(reader.next(rec) == BatchReadStatus::Record);
        if (fn) fn(rec);
      }
      UPDSM_CHECK(reader.next(rec) == BatchReadStatus::End);
    }
  }
}

void Runtime::recycle_flush_batches() {
  for (const std::uint32_t f : sealed_senders_) {
    Outbox& box = outboxes_[f];
    PoolArena& arena = arena_for_node(NodeId{f});
    for (StagedBatch& slot : std::span(box.batches).first(box.live)) {
      arena.batch_buffers.recycle(slot.writer.release_buffer());
      slot.deliver.clear();
      slot.reliable = false;
      slot.delivered = false;
    }
    box.live = 0;
    box.sealed = false;
  }
  sealed_senders_.clear();
}

void Runtime::relay(const std::vector<RelaySegment>& segs) {
  const std::size_t n = static_cast<std::size_t>(num_nodes());
  const std::size_t fanout = kRelayFanout;
  const auto arrived = [&](std::size_t s) {
    outboxes_[segs[s].from].batches[segs[s].batch].delivered = true;
  };
  // One FlushRelay message per tree edge, fire-and-forget like an
  // unreliable unicast batch; a dropped hop loses every segment aboard.
  const auto hop = [&](std::size_t from, std::size_t to,
                       const std::vector<std::size_t>& aboard) {
    std::uint64_t bytes = 0;
    for (const std::size_t s : aboard) {
      bytes += segs[s].bytes + kRelaySegmentHeaderBytes;
    }
    ++counters_.relay_messages;
    counters_.relay_forwarded_bytes += bytes;
    const bool ok = send_unreliable(
        MsgKind::FlushRelay, NodeId{static_cast<std::uint32_t>(from)},
        NodeId{static_cast<std::uint32_t>(to)}, bytes,
        FlushTag{"flushrelay", aboard.size(), 's'});
    if (!ok) ++counters_.relay_subtree_losses;
    return ok;
  };

  // Heap layout rooted at node 0: children of i are fanout*i+1 ..
  // fanout*i+fanout. Up phase, children before parents: each node combines
  // its own batches with its children's surviving segments, delivers the
  // ones addressed to itself on the spot, and forwards the rest as ONE
  // message to its parent. Down phase, parents before children: each hop
  // carries only the segments whose destination lies in that child's
  // subtree.
  std::vector<std::vector<std::size_t>> at(n);
  for (std::size_t s = 0; s < segs.size(); ++s) {
    at[segs[s].from].push_back(s);
  }
  for (std::size_t i = n; i-- > 1;) {
    std::vector<std::size_t> onward;
    for (const std::size_t s : at[i]) {
      if (segs[s].to == i) {
        arrived(s);
      } else {
        onward.push_back(s);
      }
    }
    at[i].clear();
    if (onward.empty()) continue;
    const std::size_t parent = (i - 1) / fanout;
    if (hop(i, parent, onward)) {
      for (const std::size_t s : onward) at[parent].push_back(s);
    }
  }
  for (const std::size_t s : at[0]) {
    if (segs[s].to == 0) arrived(s);
  }
  const auto in_subtree = [fanout](std::size_t t, std::size_t c) {
    while (t > c) t = (t - 1) / fanout;
    return t == c;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (at[i].empty()) continue;
    const std::size_t first_child = fanout * i + 1;
    for (std::size_t c = first_child; c < first_child + fanout && c < n; ++c) {
      std::vector<std::size_t> down;
      for (const std::size_t s : at[i]) {
        if (in_subtree(segs[s].to, c)) down.push_back(s);
      }
      if (down.empty() || !hop(i, c, down)) continue;
      for (const std::size_t s : down) {
        if (segs[s].to == c) {
          arrived(s);
        } else {
          at[c].push_back(s);
        }
      }
    }
    at[i].clear();
  }
}

SimTime Runtime::reliable_send(MsgKind kind, NodeId from, NodeId to,
                               std::uint64_t bytes) {
  if (from == to) return 0;
  SimTime timeout = kRetryTimeout;
  for (int attempt = 1;; ++attempt) {
    const SimTime wire = net_.record(kind, from, to, bytes);
    clock(from).advance(TimeCat::Os, costs().net.send_trap);
    os(from).count_send();
    const sim::FaultDecision f = fate(kind, from, to);
    if (f.drop) {
      net_.record_drop(kind);
      retry_wait(from, kind, to, attempt, timeout);
      continue;
    }
    if (f.duplicate) suppress_dup(kind, from, to, bytes);
    if (f.extra_delay > 0) net_.note_delay();
    return wire + f.extra_delay;
  }
}

void Runtime::begin_measurement() {
  measuring_ = true;
  net_.reset_stats();
  counters_ = ProtocolCounters{};
  for (int i = 0; i < num_nodes(); ++i) {
    clocks_[static_cast<std::size_t>(i)].reset_breakdown();
    measure_mark_[static_cast<std::size_t>(i)] =
        clocks_[static_cast<std::size_t>(i)].now();
  }
}

void Runtime::end_measurement() {
  UPDSM_CHECK_MSG(!ended_, "measurement window ended twice");
  ended_ = true;
  frozen_counters_ = counters_;
  frozen_net_ = net_.stats();
  measure_end_.resize(static_cast<std::size_t>(num_nodes()));
  frozen_breakdown_.resize(static_cast<std::size_t>(num_nodes()));
  for (int i = 0; i < num_nodes(); ++i) {
    measure_end_[static_cast<std::size_t>(i)] =
        clocks_[static_cast<std::size_t>(i)].now();
    frozen_breakdown_[static_cast<std::size_t>(i)] =
        clocks_[static_cast<std::size_t>(i)].breakdown();
  }
}

}  // namespace updsm::dsm
