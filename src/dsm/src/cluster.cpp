#include "updsm/dsm/cluster.hpp"

#include <algorithm>
#include <vector>

#include "updsm/common/log.hpp"
#include "updsm/dsm/node_context.hpp"

namespace updsm::dsm {

namespace {
using sim::MsgKind;
using sim::SimTime;
using sim::TimeCat;

/// Wire footprint of one reduction contribution / result (op + double).
constexpr std::uint64_t kReduceWireBytes = 16;

/// How many async steps a node may run ahead of the slowest node still
/// iterating (the bounded-asynchrony throttle in node_async_step).
constexpr std::uint64_t kAsyncMaxLead = 64;

/// Parallel scheduling is opt-in per protocol: anything whose fault
/// handlers mutate remote state mid-phase (sc-sw) keeps the baton. The
/// async gang cannot be silently downgraded (the app's iteration structure
/// depends on it), so an unsafe protocol there is a hard error.
sim::GangMode effective_gang_mode(const ClusterConfig& config,
                                  const CoherenceProtocol* protocol) {
  if (protocol != nullptr && config.gang == sim::GangMode::Async) {
    validate_gang_protocol(config.gang, protocol->parallel_safe(),
                           std::string(protocol->name()));
    return config.gang;
  }
  if (protocol != nullptr && !protocol->parallel_safe()) {
    return sim::GangMode::Baton;
  }
  return config.gang;
}
}  // namespace

Cluster::Cluster(const ClusterConfig& config, const mem::SharedHeap& heap,
                 std::unique_ptr<CoherenceProtocol> protocol)
    : rt_(config, heap.segment_pages()),
      protocol_(std::move(protocol)),
      gang_(config.num_nodes, effective_gang_mode(config, protocol_.get()),
            config.workers) {
  UPDSM_REQUIRE(protocol_ != nullptr, "cluster needs a protocol");
  UPDSM_REQUIRE(heap.page_size() == config.page_size,
                "heap page size " << heap.page_size()
                                  << " != cluster page size "
                                  << config.page_size);
  if (config.race_check != RaceCheck::Off) {
    race_detector_ = std::make_unique<RaceDetector>(config.num_nodes);
  }
  const auto n = static_cast<std::size_t>(config.num_nodes);
  pending_reduce_.assign(n, PendingReduce{});
  measurement_requested_.assign(n, 0);
  measurement_end_requested_.assign(n, 0);
  iteration_count_.assign(n, 0);
  async_step_count_.assign(n, 0);
  async_active_.assign(n, 0);
  // Async scheduling is ordered by the nodes' virtual clocks; clocks only
  // advance while their node holds the turn, so the lookup is race-free.
  gang_.set_clock_source([this](int node) {
    const SimTime now = rt_.clock(NodeId{static_cast<std::uint32_t>(node)}).now();
    return now < 0 ? 0u : static_cast<std::uint64_t>(now);
  });
  // Barrier hooks fan their node-local work out to the gang's workers.
  rt_.bind_gang(gang_);
  protocol_->init(rt_);
}

Cluster::~Cluster() = default;

void Cluster::run(const AppFn& app) {
  UPDSM_REQUIRE(!ran_, "Cluster::run may be called only once");
  ran_ = true;
  gang_.run(
      [&](int node) {
        NodeContext ctx(*this, NodeId{static_cast<std::uint32_t>(node)});
        app(ctx);
      },
      [&](std::uint64_t index) { do_barrier(index); });
  // Post-final-barrier node events (checksum reads etc.) are still sitting
  // in the per-node trace buffers; append them in node order.
  if (auto* trace = rt_.trace()) trace->flush_node_buffers();
}

sim::SimTime Cluster::elapsed() const {
  SimTime worst = 0;
  for (int i = 0; i < rt_.num_nodes(); ++i) {
    const NodeId n{static_cast<std::uint32_t>(i)};
    worst = std::max(worst, rt_.measure_end(n) - rt_.measure_mark(n));
  }
  return worst;
}

BreakdownReport Cluster::breakdown() const {
  BreakdownReport report;
  report.nodes.resize(static_cast<std::size_t>(rt_.num_nodes()));
  for (int i = 0; i < rt_.num_nodes(); ++i) {
    const NodeId n{static_cast<std::uint32_t>(i)};
    const auto window = rt_.window_breakdown(n);
    auto& out = report.nodes[static_cast<std::size_t>(i)];
    out.app = window[static_cast<std::size_t>(TimeCat::App)];
    out.dsm = window[static_cast<std::size_t>(TimeCat::Dsm)];
    out.os = window[static_cast<std::size_t>(TimeCat::Os)];
    out.wait = window[static_cast<std::size_t>(TimeCat::Wait)];
    out.sigio = window[static_cast<std::size_t>(TimeCat::Sigio)];
  }
  return report;
}

void Cluster::node_barrier(NodeId n) {
  async_active_[n.index()] = 0;  // drained out of its async loop (if any)
  gang_.barrier_wait(static_cast<int>(n.value()));
}

bool Cluster::node_async_step(NodeId n, double residual) {
  UPDSM_REQUIRE(gang_.mode() == sim::GangMode::Async,
                "async_step called outside gang=async (mode is "
                    << sim::to_string(gang_.mode()) << ")");
  const std::uint64_t step = async_step_count_[n.index()]++;
  async_active_[n.index()] = 1;
  // Publish BEFORE the yield: this node's diffs reach the homes (and its
  // residual the detector) while it still holds the turn, so the event
  // order stays a pure function of the virtual clocks.
  const bool converged = protocol_->async_publish(n, step, residual);
  ++rt_.counters().async_steps;
  // Straggler injection: the same stateless (node, index) stall stream the
  // barrier path uses, keyed here by the node's own step count.
  if (auto* plan = rt_.fault_plan()) {
    const SimTime stall = plan->stall(n, step);
    if (stall > 0) {
      rt_.clock(n).advance(TimeCat::Os, stall);
      ++rt_.counters().node_stalls;
      if (auto* trace = rt_.trace()) {
        trace->emit("stall n" + std::to_string(n.value()) + " " +
                    std::to_string(stall) + "ns");
      }
    }
  }
  gang_.async_step(static_cast<int>(n.value()));
  // Bounded asynchrony: under lossy fault plans retry timeouts can skew
  // per-sweep virtual costs by orders of magnitude (25:1), letting a cheap
  // node burn its entire drain backstop while a straggler is still
  // settling, and its stale final residual can poison convergence
  // detection. A node more than kAsyncMaxLead steps ahead of the slowest
  // node still iterating blocks here -- its clock advances in Wait past
  // the straggler's so the scheduler hands the turn over -- until the gap
  // closes. Only ACTIVE nodes count: a drained node can never stall the
  // rest. Deterministic: the wait target is a pure function of the
  // virtual clocks and step counts.
  for (;;) {
    std::uint64_t slowest_steps = async_step_count_[n.index()];
    NodeId slowest = n;
    for (std::size_t i = 0; i < async_active_.size(); ++i) {
      if (async_active_[i] == 0) continue;
      if (async_step_count_[i] < slowest_steps) {
        slowest_steps = async_step_count_[i];
        slowest = NodeId{static_cast<std::uint32_t>(i)};
      }
    }
    if (slowest == n ||
        async_step_count_[n.index()] <= slowest_steps + kAsyncMaxLead) {
      break;
    }
    const SimTime target = rt_.clock(slowest).now() + 1;
    const SimTime now = rt_.clock(n).now();
    if (now < target) rt_.clock(n).advance(TimeCat::Wait, target - now);
    ++rt_.counters().async_throttles;
    gang_.async_step(static_cast<int>(n.value()));
  }
  // Refresh AFTER the yield: home versions only advanced while this node
  // was parked, so refetching every page beyond the staleness bound here
  // guarantees the bound for every read of the next sweep.
  protocol_->async_refresh(n);
  return converged;
}

void Cluster::node_reduce_prepare(NodeId n, ReduceOp op, double value) {
  auto& slot = pending_reduce_[n.index()];
  UPDSM_REQUIRE(!slot.armed,
                "node " << n << " issued two reductions without a barrier");
  slot = PendingReduce{true, op, value};
}

double Cluster::node_reduce_result(NodeId n) const {
  (void)n;
  UPDSM_CHECK_MSG(reduce_result_valid_, "reduction result read but no "
                                        "reduction completed at last barrier");
  return reduce_result_;
}

void Cluster::node_iteration_begin(NodeId n) {
  auto& count = iteration_count_[n.index()];
  ++count;
  protocol_->iteration_begin(n, count);
}

void Cluster::node_request_measurement(NodeId n) {
  measurement_requested_[n.index()] = true;
}

void Cluster::node_request_measurement_end(NodeId n) {
  measurement_end_requested_[n.index()] = true;
}

void Cluster::node_compute(NodeId n, SimTime t) {
  rt_.clock(n).advance(TimeCat::App, t);
}

std::byte* Cluster::node_touch(NodeId n, GlobalAddr addr, std::size_t len,
                               AccessMode mode) {
  auto& pt = rt_.table(n);
  UPDSM_REQUIRE(len > 0 && addr + len <= pt.segment_bytes(),
                "shared access [" << addr << ", +" << len
                                  << ") outside segment of "
                                  << pt.segment_bytes() << " bytes");
  if (race_detector_) {
    race_detector_->record(n, addr, len, mode == AccessMode::Write);
  }
  const std::uint32_t psize = pt.page_size();
  const std::uint32_t first = static_cast<std::uint32_t>(addr / psize);
  const std::uint32_t last =
      static_cast<std::uint32_t>((addr + len - 1) / psize);
  for (std::uint32_t p = first; p <= last; ++p) {
    const PageId page{p};
    const mem::Protect prot = pt.prot(page);
    if (mode == AccessMode::Read) {
      if (!mem::can_read(prot)) {
        ++rt_.counters().read_faults;
        ++rt_.page_stats(page).read_faults;
        if (auto* trace = rt_.trace()) {
          trace->emit("fault r n" + std::to_string(n.value()) + " p" +
                      std::to_string(p));
        }
        rt_.charge_segv(n);
        protocol_->read_fault(n, page);
        UPDSM_CHECK_MSG(mem::can_read(pt.prot(page)),
                        protocol_->name() << " left page " << page
                                          << " unreadable after read fault");
      }
    } else {
      if (!mem::can_write(prot)) {
        ++rt_.counters().write_faults;
        ++rt_.page_stats(page).write_faults;
        if (auto* trace = rt_.trace()) {
          trace->emit("fault w n" + std::to_string(n.value()) + " p" +
                      std::to_string(p));
        }
        rt_.charge_segv(n);
        protocol_->write_fault(n, page);
        UPDSM_CHECK_MSG(mem::can_write(pt.prot(page)),
                        protocol_->name() << " left page " << page
                                          << " unwritable after write fault");
      }
    }
  }
  return pt.segment().data() + addr;
}

void Cluster::do_barrier(std::uint64_t index) {
  (void)index;
  // Merge the finished phase's buffered trace lines (node order) before any
  // barrier-time event is emitted.
  if (auto* trace = rt_.trace()) trace->flush_node_buffers();
  if (race_detector_) {
    auto reports = race_detector_->finish_epoch(rt_.epoch());
    for (const RaceReport& report : reports) {
      UPDSM_LOG(Warn, "race detector: " << report.describe());
      if (rt_.config().race_check == RaceCheck::Throw) {
        throw ProtocolError("race detector: " + report.describe());
      }
      race_reports_.push_back(report);
    }
  }
  const int n = rt_.num_nodes();
  const auto& net_costs = rt_.costs().net;

  // Replay of mid-phase deferred work (per-node logs), in node order; a
  // protocol may also fan its per-node arrival capture out here.
  protocol_->barrier_begin();

  // Phase A: every node's arrival, in strict node order. Each hook reads
  // only its own frames and stages its diffs and update pushes into its
  // own outbox (or publishes what barrier_begin captured for it).
  for (int i = 0; i < n; ++i) {
    protocol_->barrier_arrive(NodeId{static_cast<std::uint32_t>(i)});
  }

  // Seal and transmit the flush batches: one FlushBatch per (sender,
  // destination) pair, in (sender, destination) order, so every receiver
  // sees its records in a deterministic order.
  rt_.seal_flush_batches();

  // Reduction sanity: either nobody reduced at this barrier or everybody
  // did, with the same operator (the compiler emits matching calls).
  int reducers = 0;
  for (const auto& slot : pending_reduce_) reducers += slot.armed ? 1 : 0;
  UPDSM_REQUIRE(reducers == 0 || reducers == n,
                "reduction joined by " << reducers << " of " << n
                                       << " nodes at one barrier");
  const bool reducing = reducers == n;

  // Barrier topology: a k-ary reduction/broadcast tree in heap layout
  // (children of i are k*i+1 .. k*i+k; the master is the root). Arrivals
  // combine bottom-up: each inner node waits for its children, absorbs
  // their recv traps, pays the per-hop combining cost, and forwards one
  // message carrying its whole subtree's metadata to its parent. The
  // master's per-barrier critical path drops from O(N) to O(k log_k N);
  // the total message count (N-1 arrivals) is unchanged, only the
  // (from, to) pairs differ. The paper's flat master barrier (fanout 0) is
  // the one-level tree: every slave is a child of the master, which waits
  // for all n-1 arrivals and pays the per-node combining cost n times.
  const int fanout = rt_.config().barrier_fanout != 0
                         ? rt_.config().barrier_fanout
                         : std::max(n - 1, 2);
  std::vector<SimTime> arrive_done(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> up_payload(static_cast<std::size_t>(n), 0);
  for (int i = n - 1; i >= 0; --i) {
    const NodeId node{static_cast<std::uint32_t>(i)};
    up_payload[static_cast<std::size_t>(i)] += rt_.take_arrival_payload(node);
    const long long first_child = static_cast<long long>(fanout) * i + 1;
    int children = 0;
    SimTime latest = rt_.clock(node).now();
    for (long long c = first_child; c < first_child + fanout && c < n; ++c) {
      latest = std::max(latest, arrive_done[static_cast<std::size_t>(c)]);
      ++children;
    }
    if (children > 0) {
      rt_.clock(node).advance_to(TimeCat::Wait, latest);
      for (int c = 0; c < children; ++c) {
        rt_.clock(node).advance(TimeCat::Os, net_costs.recv_trap);
        rt_.os(node).count_recv();
      }
    }
    // Combining cost: one barrier_master_per_node per arriving child (the
    // root also pays for itself).
    const int combines = children + (i == 0 ? 1 : 0);
    if (combines > 0) {
      rt_.charge_dsm(node, rt_.costs().dsm.barrier_master_per_node *
                               static_cast<SimTime>(combines));
    }
    if (i == 0) continue;  // the root's metadata stays local
    const int parent = (i - 1) / fanout;
    std::uint64_t payload = up_payload[static_cast<std::size_t>(i)];
    if (reducing) payload += kReduceWireBytes;
    const SimTime wire = rt_.reliable_send(
        MsgKind::SyncArrive, node, NodeId{static_cast<std::uint32_t>(parent)},
        payload);
    arrive_done[static_cast<std::size_t>(i)] = rt_.clock(node).now() + wire;
    up_payload[static_cast<std::size_t>(parent)] +=
        up_payload[static_cast<std::size_t>(i)];
  }

  if (reducing) {
    // Combine in node order: deterministic and identical to the sequential
    // baseline's (single-contribution) result semantics.
    double acc = pending_reduce_[0].value;
    const ReduceOp op = pending_reduce_[0].op;
    for (int i = 1; i < n; ++i) {
      const auto& slot = pending_reduce_[static_cast<std::size_t>(i)];
      UPDSM_REQUIRE(slot.op == op,
                    "mismatched reduction operators at one barrier");
      switch (op) {
        case ReduceOp::Max:
          acc = std::max(acc, slot.value);
          break;
        case ReduceOp::Min:
          acc = std::min(acc, slot.value);
          break;
        case ReduceOp::Sum:
          acc += slot.value;
          break;
      }
    }
    reduce_result_ = acc;
    reduce_result_valid_ = true;
    for (auto& slot : pending_reduce_) slot.armed = false;
  } else {
    reduce_result_valid_ = false;
  }

  protocol_->barrier_master();

  // Phase C: releases. The master first sends every release message (its
  // own local release work must not delay the slaves), then each node
  // performs its release-side protocol work (invalidations, update
  // application, trap re-arming) concurrently on its own clock. The
  // release is broadcast down the same tree: each node receives its
  // subtree's release metadata from its parent and forwards the rest to
  // its children. Heap layout makes i = 1..n-1 a valid top-down order
  // (parent(i) < i, so a parent's clock is settled before it sends).
  std::vector<std::uint64_t> down_payload(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    down_payload[static_cast<std::size_t>(i)] =
        rt_.take_release_payload(NodeId{static_cast<std::uint32_t>(i)});
  }
  // down_payload[i] becomes the subtree sum; the root's own metadata stays
  // local (index 0 is accumulated but never shipped).
  for (int i = n - 1; i >= 1; --i) {
    down_payload[static_cast<std::size_t>((i - 1) / fanout)] +=
        down_payload[static_cast<std::size_t>(i)];
  }
  for (int i = 1; i < n; ++i) {
    const NodeId node{static_cast<std::uint32_t>(i)};
    const NodeId parent{static_cast<std::uint32_t>((i - 1) / fanout)};
    std::uint64_t payload = down_payload[static_cast<std::size_t>(i)];
    if (reducing) payload += kReduceWireBytes;
    const SimTime wire =
        rt_.reliable_send(MsgKind::SyncRelease, parent, node, payload);
    rt_.clock(node).advance_to(TimeCat::Wait, rt_.clock(parent).now() + wire);
    rt_.clock(node).advance(TimeCat::Os, net_costs.recv_trap);
    rt_.os(node).count_recv();
  }
  for (int i = 0; i < n; ++i) {
    protocol_->barrier_release(NodeId{static_cast<std::uint32_t>(i)});
  }

  // Release work fanned out over all nodes, then refresh barrier-frozen
  // shadow state for the next phase's readers. The release may still read
  // the delivered flush views, so the sealed batches return to their
  // senders' arenas only now.
  protocol_->barrier_finish();
  rt_.recycle_flush_batches();

  if (auto* trace = rt_.trace()) {
    trace->emit("barrier " + std::to_string(index));
  }

  // Transient node stalls: a stalled node starts the next phase late, as if
  // the OS descheduled its process right after the release (ISSUE: "node
  // stalls between barriers"). Drawn statelessly from (node, barrier), so
  // the schedule is identical in both gang modes.
  if (auto* plan = rt_.fault_plan()) {
    for (int i = 0; i < n; ++i) {
      const NodeId node{static_cast<std::uint32_t>(i)};
      const SimTime stall = plan->stall(node, index);
      if (stall <= 0) continue;
      rt_.clock(node).advance(TimeCat::Os, stall);
      ++rt_.counters().node_stalls;
      if (auto* trace = rt_.trace()) {
        trace->emit("stall n" + std::to_string(node.value()) + " " +
                    std::to_string(stall) + "ns");
      }
    }
  }
  rt_.advance_epoch();

  // Measurement window: engaged at the barrier where every node asked for
  // it, *after* the barrier itself, so warm-up barrier costs are excluded.
  const bool any = std::any_of(measurement_requested_.begin(),
                               measurement_requested_.end(),
                               [](bool b) { return b; });
  if (any) {
    const bool all = std::all_of(measurement_requested_.begin(),
                                 measurement_requested_.end(),
                                 [](bool b) { return b; });
    UPDSM_REQUIRE(all, "begin_measurement must be collective: some nodes "
                       "did not request it before this barrier");
    UPDSM_REQUIRE(!rt_.measuring(), "begin_measurement requested twice");
    rt_.begin_measurement();
    std::fill(measurement_requested_.begin(), measurement_requested_.end(),
              false);
  }

  const bool any_end = std::any_of(measurement_end_requested_.begin(),
                                   measurement_end_requested_.end(),
                                   [](bool b) { return b; });
  if (any_end) {
    const bool all = std::all_of(measurement_end_requested_.begin(),
                                 measurement_end_requested_.end(),
                                 [](bool b) { return b; });
    UPDSM_REQUIRE(all, "end_measurement must be collective: some nodes did "
                       "not request it before this barrier");
    // Closing a window that never opened would report the whole run,
    // set-up included, as the steady state.
    UPDSM_REQUIRE(rt_.measuring(), "end_measurement requested but no "
                                   "measurement window was opened");
    rt_.end_measurement();
    std::fill(measurement_end_requested_.begin(),
              measurement_end_requested_.end(), false);
  }
}

}  // namespace updsm::dsm
