// Runtime: the per-run service hub shared by the cluster, the protocol and
// the application-facing NodeContext.
//
// It owns the per-node software MMUs (page tables), virtual clocks and OS
// models, the simulated network, and the protocol counters; and it provides
// the *charging helpers* through which every protocol action pays its
// simulated cost. Protocol code never touches a clock directly -- each
// helper documents who is charged, with which TimeCat, so that Figure 3's
// breakdown is an audit trail rather than an estimate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "updsm/common/atomic_stat.hpp"
#include "updsm/common/error.hpp"
#include "updsm/common/types.hpp"
#include "updsm/dsm/config.hpp"
#include "updsm/dsm/flush_batch.hpp"
#include "updsm/dsm/pool_arena.hpp"
#include "updsm/dsm/stats.hpp"
#include "updsm/dsm/trace.hpp"
#include "updsm/mem/page_table.hpp"
#include "updsm/sim/clock.hpp"
#include "updsm/sim/cost_model.hpp"
#include "updsm/sim/network.hpp"
#include "updsm/sim/os_model.hpp"

namespace updsm::dsm {

/// Cluster-wide per-page event counters (cheap enough to keep always on):
/// the raw material for hot-page analysis (`updsm_run --hot-pages`).
/// Relaxed cells: concurrent nodes may fault on the same page mid-phase
/// under the parallel gang; the increments commute.
struct PageStats {
  Relaxed<std::uint32_t> read_faults = 0;
  Relaxed<std::uint32_t> write_faults = 0;
  Relaxed<std::uint32_t> mprotects = 0;

  [[nodiscard]] std::uint64_t total() const {
    return static_cast<std::uint64_t>(read_faults.load()) +
           write_faults.load() + mprotects.load();
  }
};

class Runtime {
 public:
  Runtime(const ClusterConfig& config, std::uint32_t num_pages);

  // --- topology -----------------------------------------------------------
  [[nodiscard]] int num_nodes() const { return config_.num_nodes; }
  [[nodiscard]] NodeId master() const { return NodeId{0}; }
  [[nodiscard]] std::uint32_t num_pages() const { return num_pages_; }
  [[nodiscard]] std::uint32_t page_size() const { return config_.page_size; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] const sim::CostModel& costs() const { return config_.costs; }

  // --- per-node state -----------------------------------------------------
  [[nodiscard]] mem::PageTable& table(NodeId n) { return *tables_[check(n)]; }
  [[nodiscard]] const mem::PageTable& table(NodeId n) const {
    return *tables_[check(n)];
  }
  [[nodiscard]] sim::VirtualClock& clock(NodeId n) { return clocks_[check(n)]; }
  [[nodiscard]] const sim::VirtualClock& clock(NodeId n) const {
    return clocks_[check(n)];
  }
  [[nodiscard]] sim::OsModel& os(NodeId n) { return os_[check(n)]; }

  /// Serializes remote-fetch service against protection upgrades on node
  /// `n`'s frames under the parallel gang: fetchers copy a served page
  /// (live frame or service snapshot) under a *shared* lock -- any number
  /// of concurrent fetches may read the same owner's frames without
  /// convoying -- while the owner takes it *exclusively* for the
  /// snapshot-create + mprotect(RW) step of its own write faults, so a
  /// concurrent fetch never observes a torn frame.
  [[nodiscard]] std::shared_mutex& service_mutex(NodeId n) {
    return *service_mu_[check(n)];
  }

  // --- host-parallel allocation arenas -------------------------------------
  /// Worker count the gang will run with (resolved: auto-detected and
  /// clamped). Arenas are sized to match.
  [[nodiscard]] int workers() const { return workers_; }
  /// The allocation arena owned by gang worker `w`.
  [[nodiscard]] PoolArena& arena(int w) { return *arenas_[w]; }
  /// The arena of the worker that *owns* node `n` (Gang::owner_worker) --
  /// not whichever thread happens to call. Deterministic routing keeps the
  /// loan accounting exact and the pools uncontended: only the owning
  /// worker touches a node mid-phase and in a for_each_node share, and the
  /// controller's serial barrier work runs while no share does.
  [[nodiscard]] PoolArena& arena_for_node(NodeId n) {
    return *arenas_[node_arena_[check(n)]];
  }

  // --- barrier-time fan-out -------------------------------------------------
  /// Wires the gang whose barrier callback drives this runtime (Cluster
  /// does it before the protocol's init). Its worker count must match.
  void bind_gang(sim::Gang& gang);

  /// Runs `fn(n)` once for every node as a share of the gang worker that
  /// owns n (sim::Gang::for_each_node: concurrently under the parallel
  /// gang, in node order under the baton and async gangs; worker 0's share
  /// on the calling controller), then appends the lines the shares traced,
  /// in node order. For the node-local part of a protocol's barrier work:
  /// a share may touch only node n's frames, clocks, arena and outbox plus
  /// commutative counters, and must leave every cross-node write to the
  /// controller. Only from a barrier hook of a Cluster run; rethrows the
  /// lowest-numbered node's exception once every share has finished.
  void for_each_node(const std::function<void(NodeId)>& fn);

  [[nodiscard]] sim::Network& net() { return net_; }
  [[nodiscard]] const sim::Network& net() const { return net_; }
  /// Null unless config.faults is non-empty.
  [[nodiscard]] sim::FaultPlan* fault_plan() { return fault_plan_.get(); }
  [[nodiscard]] ProtocolCounters& counters() { return counters_; }
  [[nodiscard]] const ProtocolCounters& counters() const { return counters_; }
  /// Null unless config.trace is set.
  [[nodiscard]] TraceLog* trace() { return trace_.get(); }

  [[nodiscard]] PageStats& page_stats(PageId page) {
    return page_stats_[page.index()];
  }
  [[nodiscard]] const std::vector<PageStats>& page_stats() const {
    return page_stats_;
  }

  /// Current barrier epoch: epoch k is the interval following global
  /// barrier k; epoch 0 precedes the first barrier.
  [[nodiscard]] EpochId epoch() const { return epoch_; }
  void advance_epoch() { epoch_ = EpochId{epoch_.value() + 1}; }

  // --- cost-charging helpers ----------------------------------------------
  /// Changes `page`'s protection on node `n`, charging one mprotect system
  /// call (TimeCat::Os) in the given interrupt context (`sigio` true when
  /// the change happens inside a request/flush handler).
  void mprotect(NodeId n, PageId page, mem::Protect prot, bool sigio = false);

  /// Charges the segv dispatch for a trapped access on node `n`.
  void charge_segv(NodeId n);

  /// Charges user-level protocol work (TimeCat::Dsm) of `fixed` plus
  /// `per_byte_ns * bytes` to node `n`.
  void charge_dsm(NodeId n, sim::SimTime fixed, double per_byte_ns = 0.0,
                  std::uint64_t bytes = 0, bool sigio = false);

  /// Records and charges a synchronous request/reply exchange: requester
  /// pays traps (Os) and latency (Wait); responder pays handler time
  /// (Sigio). `responder_work` is extra service time at the responder
  /// beyond the fixed handler cost (e.g. assembling a page).
  void roundtrip(NodeId requester, NodeId responder, sim::MsgKind req_kind,
                 std::uint64_t req_bytes, std::uint64_t reply_bytes,
                 sim::SimTime responder_work);

  /// Records and charges one fire-and-forget flush outside the barrier
  /// batches (sender Os trap; receiver Sigio recv). Pushes are unreliable
  /// (paper §2.1.2: "flush messages can be unreliable, and therefore do not
  /// need to be acknowledged"): returns false if the fault plan dropped it,
  /// in which case the receiver is charged nothing and must not see the
  /// data.
  [[nodiscard]] bool flush(NodeId from, NodeId to, std::uint64_t bytes);

  /// Reliable control message (home-migration directives etc.).
  void control(NodeId from, NodeId to, std::uint64_t bytes);

  // --- barrier-time message aggregation ------------------------------------
  /// Delivery callback of one staged flush record: runs on delivery only,
  /// with a view over the record's sealed wire bytes.
  using FlushDeliverFn = std::function<void(const FlushRecordView&)>;

  /// Stages one barrier-time flush carrying `diff` for `page` into the
  /// (from, to) batch of `from`'s outbox. The record is serialized now, so
  /// `diff` may be recycled as soon as this returns; `on_deliver` is
  /// deferred until seal_flush_batches() transmits the batch. A batch
  /// containing any reliable record (a diff-to-home flush) rides the
  /// reliable channel as a whole; piggybacked update records are then
  /// delivered too, which only *reduces* later recovery work and never
  /// changes results. Touches only the sender's outbox, arena and
  /// destination hints, so the owners of different senders may stage
  /// concurrently (for_each_node shares stage as their own node); each
  /// sender's stage calls are ordered, so batch contents are
  /// deterministic.
  void stage_flush(NodeId from, NodeId to, PageId page, NodeId creator,
                   const mem::Diff& diff, bool reliable,
                   FlushDeliverFn on_deliver);

  /// Seals and transmits every non-empty staged batch, one FlushBatch
  /// message per (sender, destination) pair, in (sender asc, destination
  /// asc) order. Once every batch has been transmitted, runs the
  /// per-record delivery callbacks of the delivered ones in the same
  /// order, by iterating the sealed bytes in place. Serial context, with
  /// no stage_flush in flight: the controller (Cluster calls it between
  /// the arrive loop and the releases) or a node holding the async turn.
  /// No-op when nothing is staged.
  ///
  /// With config.relay_threshold > 0, a sender whose unreliable batches
  /// target more than relay_threshold distinct destinations ships them as
  /// segments of FlushRelay messages along a relay_fanout-ary dissemination
  /// tree (heap layout rooted at node 0): one combined message per tree
  /// edge instead of one unicast per destination. Intermediate nodes
  /// forward the sealed wire bytes unmodified; a dropped hop loses every
  /// segment aboard, healing through the usual recovery. Results are
  /// bit-identical to unicast -- only times and the message census change.
  void seal_flush_batches();

  /// Records and charges one reliable one-way message (sync arrivals and
  /// releases, and internally control messages and reliable batches): sender
  /// pays one send trap per attempt. With no fault plan this is exactly
  /// record + send_trap + count_send. Under faults, drops cost the sender a
  /// full timeout of Wait and a retransmission (bounded exponential backoff
  /// per ClusterConfig::retry); injected duplicates charge the receiver one
  /// suppressed recv trap. Returns the wire latency of the copy that
  /// actually arrived (including any injected extra delay). Receiver-side
  /// delivery accounting stays with the caller.
  sim::SimTime reliable_send(sim::MsgKind kind, NodeId from, NodeId to,
                             std::uint64_t bytes);

  // --- barrier payload accumulators (used by Cluster) ----------------------
  /// Protocols add piggybacked metadata bytes to the arrival / release sync
  /// messages of node `n` (write notices, version lists, copyset tables).
  void add_arrival_payload(NodeId n, std::uint64_t bytes) {
    arrival_payload_[check(n)] += bytes;
  }
  void add_release_payload(NodeId n, std::uint64_t bytes) {
    release_payload_[check(n)] += bytes;
  }
  [[nodiscard]] std::uint64_t take_arrival_payload(NodeId n) {
    return std::exchange(arrival_payload_[check(n)], 0);
  }
  [[nodiscard]] std::uint64_t take_release_payload(NodeId n) {
    return std::exchange(release_payload_[check(n)], 0);
  }

  /// Resets statistics at the start of the steady-state measurement window
  /// (paper §3.1). Clock *breakdowns* reset; absolute times continue.
  void begin_measurement();
  /// Freezes the window: per-node end marks and breakdown snapshots are
  /// taken so later work (checksums, teardown) is not measured.
  void end_measurement();
  [[nodiscard]] bool measuring() const { return measuring_; }
  [[nodiscard]] bool measurement_ended() const { return ended_; }
  /// Per-node virtual time at the start of the measurement window.
  [[nodiscard]] sim::SimTime measure_mark(NodeId n) const {
    return measure_mark_[check(n)];
  }
  /// Per-node virtual time at the end of the window (now() if still open).
  [[nodiscard]] sim::SimTime measure_end(NodeId n) const {
    return ended_ ? measure_end_[check(n)] : clock(n).now();
  }
  /// Breakdown over the window (frozen at end_measurement if it was called).
  [[nodiscard]] std::array<sim::SimTime, sim::kTimeCatCount>
  window_breakdown(NodeId n) const {
    return ended_ ? frozen_breakdown_[check(n)] : clock(n).breakdown();
  }
  /// Protocol counters over the window: frozen at end_measurement so the
  /// checksum/teardown phase does not pollute Table-1 statistics.
  [[nodiscard]] const ProtocolCounters& measured_counters() const {
    return ended_ ? frozen_counters_ : counters_;
  }
  /// Network statistics over the window (same freezing rule).
  [[nodiscard]] const sim::NetworkStats& measured_net_stats() const {
    return ended_ ? frozen_net_ : net_.stats();
  }

 private:
  /// Charges `sender` the current retransmission timeout (Wait), grows it
  /// (bounded exponential backoff) and counts/traces the retry. Throws
  /// ProtocolError once `attempt` has used up ClusterConfig::retry.
  void retry_wait(NodeId sender, sim::MsgKind kind, NodeId to, int attempt,
                  sim::SimTime& timeout);
  /// The fault plan's fate for the next (kind, from, to) message; with no
  /// plan every message is delivered once, on time.
  [[nodiscard]] sim::FaultDecision fate(sim::MsgKind kind, NodeId from,
                                        NodeId to);
  /// Accounts one suppressed duplicate delivery at `to` (the copy is
  /// recorded as wire traffic, the receiver absorbs one recv trap, and the
  /// protocol never sees it).
  void suppress_dup(sim::MsgKind kind, NodeId from, NodeId to,
                    std::uint64_t bytes, sim::SimTime handler_extra = 0);

  /// Trace mnemonic of a flush-class message plus its optional count
  /// field: "flushbatch n0>n1 3r 1072B" carries records, "flushrelay ...
  /// 2s ..." segments, a one-off "flush" none.
  struct FlushTag {
    const char* name;
    std::uint64_t count = 0;
    char unit = '\0';  // '\0' = no count field
  };
  void trace_flush(const FlushTag& tag, NodeId from, NodeId to,
                   std::uint64_t bytes, bool delivered);
  /// Fire-and-forget transmission shared by every unreliable message:
  /// records it, charges the sender's send trap, draws its fate, accounts a
  /// drop or delay, traces it and -- unless it was dropped -- charges the
  /// receiver's recv trap (plus a suppressed duplicate). Returns false if
  /// the message was dropped.
  [[nodiscard]] bool send_unreliable(sim::MsgKind kind, NodeId from,
                                     NodeId to, std::uint64_t bytes,
                                     const FlushTag& tag);

  /// A relayed (sender, destination) batch travelling the dissemination
  /// tree: the sealed wire bytes are never re-serialized, intermediate
  /// hops only account their forwarding.
  struct RelaySegment {
    std::uint32_t from;   // original sender (its outbox holds the batch)
    std::uint32_t batch;  // index into that outbox's batches
    std::uint32_t to;     // final destination
    std::uint64_t bytes;  // sealed batch wire size
  };
  /// seal_flush_batches() pass 2: carries `segs` up and down the tree and
  /// marks the batches of the segments that reached their destination.
  void relay(const std::vector<RelaySegment>& segs);

  /// The aggregation slot of one (sender, destination) pair for the
  /// barrier in flight. Its backing buffer is borrowed from the sender's
  /// arena at the first record and returned at the seal; the slot itself
  /// (and its deliver vector's capacity) is kept for later barriers.
  struct StagedBatch {
    NodeId to;
    FlushBatchWriter writer;
    std::vector<FlushDeliverFn> deliver;  // one per staged record
    bool reliable = false;                // any reliable record upgrades all
    bool delivered = false;               // transient, set during the seal
  };
  /// One sender's batches: batches[0, live) are staged this barrier (first
  /// stage order; the seal sorts them by destination), the rest are idle
  /// slots kept for their capacity. Memory follows the destinations each
  /// sender actually uses, not num_nodes^2.
  struct Outbox {
    std::vector<StagedBatch> batches;
    std::size_t live = 0;
  };
  /// Destination -> batch-index hints of one worker's senders. `hint` is
  /// only a guess and every lookup checks the batch's destination; it is
  /// authoritative for "absent" while `sender` is the outbox it was built
  /// for, and is rebuilt when staging switches to another of the worker's
  /// senders. Keyed by the sender's owner worker, like the arenas, so
  /// concurrent shares never share one.
  struct DestHints {
    std::uint32_t sender = ~0U;
    std::vector<std::uint32_t> hint;  // [destination]
  };

  [[nodiscard]] std::size_t check(NodeId n) const {
    UPDSM_CHECK_MSG(n.value() < static_cast<std::uint32_t>(num_nodes()),
                    "node " << n << " out of range");
    return n.index();
  }

  ClusterConfig config_;
  std::uint32_t num_pages_;
  std::vector<std::unique_ptr<mem::PageTable>> tables_;
  std::vector<sim::VirtualClock> clocks_;
  std::vector<sim::OsModel> os_;
  std::vector<std::unique_ptr<std::shared_mutex>> service_mu_;
  int workers_ = 1;
  std::vector<std::unique_ptr<PoolArena>> arenas_;  // [worker]
  std::vector<int> node_arena_;                     // node -> owning worker
  sim::Network net_;
  std::unique_ptr<sim::FaultPlan> fault_plan_;
  ProtocolCounters counters_;
  std::unique_ptr<TraceLog> trace_;
  std::vector<PageStats> page_stats_;
  EpochId epoch_{0};
  sim::Gang* gang_ = nullptr;  // set by bind_gang
  std::vector<Outbox> outboxes_;       // [sender]
  std::vector<DestHints> dest_hints_;  // [owner worker of the sender]
  std::vector<std::uint64_t> arrival_payload_;
  std::vector<std::uint64_t> release_payload_;
  bool measuring_ = false;
  bool ended_ = false;
  std::vector<sim::SimTime> measure_mark_;
  std::vector<sim::SimTime> measure_end_;
  std::vector<std::array<sim::SimTime, sim::kTimeCatCount>> frozen_breakdown_;
  ProtocolCounters frozen_counters_;
  sim::NetworkStats frozen_net_;
};

}  // namespace updsm::dsm
