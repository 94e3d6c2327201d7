#include "updsm/dsm/runtime.hpp"

#include <algorithm>
#include <string>

#include "updsm/common/log.hpp"

namespace updsm::dsm {

namespace {
using sim::MsgKind;
using sim::SimTime;
using sim::TimeCat;

/// Wire overhead per batch carried inside a FlushRelay message: original
/// sender, final destination, offset and length of the segment's bytes.
constexpr std::uint64_t kRelaySegmentHeaderBytes = 16;
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
  staged_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  // One active batch per sender up front; the index then keeps whatever
  // capacity the busiest barrier needed. Not a no-op for memory: peak RSS
  // of the 8-node fft bar-u benchmark is bimodal under glibc's per-thread
  // tcache (~65.6 vs ~70 MB), and this allocation keeps it in the lower
  // mode. Dropping it reads as a ~7 % RSS regression (ROADMAP, peak RSS).
  staged_active_.reserve(static_cast<std::size_t>(n));
  arrival_payload_.assign(static_cast<std::size_t>(n), 0);
  release_payload_.assign(static_cast<std::size_t>(n), 0);
  measure_mark_.assign(static_cast<std::size_t>(n), 0);
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
      static_cast<SimTime>(static_cast<double>(timeout) *
                           config_.retry.backoff),
      config_.retry.max_timeout);
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
  SimTime timeout = config_.retry.timeout;
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

void Runtime::stage_flush(NodeId from, NodeId to, PageId page, NodeId creator,
                          const mem::Diff& diff, bool reliable,
                          FlushDeliverFn on_deliver) {
  UPDSM_CHECK_MSG(from != to, "self-flush on node " << from);
  const std::size_t idx =
      from.index() * static_cast<std::size_t>(num_nodes()) + to.index();
  StagedBatch& slot = staged_[idx];
  if (slot.writer.bytes().empty()) {
    // Borrow the backing buffer from the sender-owner's arena for the
    // lifetime of this barrier's batch; seal returns it. Retained batch
    // capacity is thus bounded by the arenas, not by n^2 live slots.
    slot.writer.adopt_buffer(arena_for_node(from).batch_buffers.take());
    slot.writer.begin(from);
    staged_active_.push_back(idx);
  }
  slot.writer.add(page, creator, epoch_, diff);
  slot.deliver.push_back(std::move(on_deliver));
  slot.reliable = slot.reliable || reliable;
}

void Runtime::seal_flush_batches() {
  if (staged_active_.empty()) return;
  const std::size_t n = static_cast<std::size_t>(num_nodes());
  const int threshold = config_.relay_threshold;
  // Stage order interleaves destinations; transmission and delivery happen
  // in (sender asc, destination asc) order, exactly as a full-grid scan
  // would visit the non-empty slots.
  std::sort(staged_active_.begin(), staged_active_.end());

  // Route decision per sender: a producer whose unreliable batches target
  // more than relay_threshold distinct destinations ships them through the
  // dissemination tree; reliable (diff-to-home) batches always stay
  // unicast. With relaying off every batch is unicast.
  std::vector<int> unreliable_targets;
  if (threshold > 0) {
    unreliable_targets.assign(n, 0);
    for (const std::size_t idx : staged_active_) {
      if (!staged_[idx].reliable) ++unreliable_targets[idx / n];
    }
  }
  std::vector<RelaySegment> segs;

  // Pass 1: seal + census every batch and transmit the unicast ones.
  // Delivery callbacks wait for pass 3 so their global order is independent
  // of routing (clock charges are additive and fault streams are per-(kind,
  // from, to), so deferral cannot change any outcome).
  for (const std::size_t idx : staged_active_) {
    StagedBatch& slot = staged_[idx];
    const NodeId from{static_cast<std::uint32_t>(idx / n)};
    const NodeId to{static_cast<std::uint32_t>(idx % n)};
    slot.writer.seal();
    const std::uint64_t bytes = slot.writer.bytes().size();
    const std::uint64_t records = slot.writer.record_count();
    const bool relayed = threshold > 0 && !slot.reliable &&
                         unreliable_targets[idx / n] > threshold;

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
      segs.push_back(RelaySegment{idx, to.value(), bytes});
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

  // Pass 2: carry the relayed batches through the tree.
  if (!segs.empty()) relay(segs);

  // Pass 3, (sender, destination) order: run the delivery callbacks of
  // every batch that arrived -- unicast or relayed -- by iterating the
  // sealed bytes in place (every delivery round-trips the wire format),
  // then reset the slots. A lost batch loses *all* its records; the
  // protocols heal through their per-record recovery (bar version-index
  // invalidation, lmw lazy refetch).
  for (const std::size_t idx : staged_active_) {
    StagedBatch& slot = staged_[idx];
    if (slot.delivered) {
      FlushBatchReader reader(slot.writer.bytes());
      UPDSM_CHECK(reader.header_ok());
      FlushRecordView rec;
      for (const FlushDeliverFn& fn : slot.deliver) {
        UPDSM_CHECK(reader.next(rec) == BatchReadStatus::Record);
        if (fn) fn(rec);
      }
      UPDSM_CHECK(reader.next(rec) == BatchReadStatus::End);
    }
    const NodeId from{static_cast<std::uint32_t>(idx / n)};
    arena_for_node(from).batch_buffers.recycle(slot.writer.release_buffer());
    slot.deliver.clear();
    slot.reliable = false;
    slot.delivered = false;
  }
  staged_active_.clear();
}

void Runtime::relay(const std::vector<RelaySegment>& segs) {
  const std::size_t n = static_cast<std::size_t>(num_nodes());
  const std::size_t fanout = static_cast<std::size_t>(config_.relay_fanout);
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
    at[segs[s].slot / n].push_back(s);
  }
  for (std::size_t i = n; i-- > 1;) {
    std::vector<std::size_t> onward;
    for (const std::size_t s : at[i]) {
      if (segs[s].to == i) {
        staged_[segs[s].slot].delivered = true;
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
    if (segs[s].to == 0) staged_[segs[s].slot].delivered = true;
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
          staged_[segs[s].slot].delivered = true;
        } else {
          at[c].push_back(s);
        }
      }
    }
    at[i].clear();
  }
}

void Runtime::control(NodeId from, NodeId to, std::uint64_t bytes) {
  if (from == to) return;
  if (trace_) {
    trace_->emit("ctl n" + std::to_string(from.value()) + ">n" +
                 std::to_string(to.value()) + " " + std::to_string(bytes) +
                 "B");
  }
  (void)reliable_send(MsgKind::Control, from, to, bytes);
  clock(to).advance(TimeCat::Sigio, costs().net.recv_trap);
  os(to).count_recv();
}

SimTime Runtime::reliable_send(MsgKind kind, NodeId from, NodeId to,
                               std::uint64_t bytes) {
  if (from == to) return 0;
  SimTime timeout = config_.retry.timeout;
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
