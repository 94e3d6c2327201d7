// bar-i / bar-u / bar-s / bar-m: home-based barrier protocols (paper
// §2.2.1, §4, §5).
//
// Every page has a home. Non-home writers capture modifications as diffs
// and flush them to the home at each barrier (reliably -- they are
// correctness-critical); the home's own writes need no diffs (the "home
// effect"), only a version bump. Page faults are satisfied by whole-page
// fetches from the home: always exactly one request/reply pair, and every
// diff dies at the barrier that created it -- no garbage collection.
//
// Per-page scalar version indices (maintained by the home, distributed on
// barrier releases) drive invalidation; runtime home *migration* after the
// first iteration replaces Zhou's user annotations; per-page copysets turn
// the protocol into a hybrid updater (bar-u): writers push diffs directly
// to consumers, who apply them *inside* the barrier, eliminating both the
// faults and lmw-u's lazy-validation segvs.
//
// bar-s ("overdrive"): after the sharing pattern has been learned, write
// trapping by segv is replaced by prediction -- twins are created and pages
// write-enabled *before* the writes happen (Figure 5). bar-m additionally
// eliminates every mprotect: all pages predicted to be written (by the
// application or by update application) are made writable once, when
// overdrive engages, and protections are never touched again. bar-m is not
// guaranteed to maintain consistency if the application diverges from the
// learned pattern; an optional audit mode detects such divergence in tests.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "updsm/common/atomic_stat.hpp"
#include "updsm/dsm/copyset.hpp"
#include "updsm/dsm/protocol.hpp"
#include "updsm/dsm/runtime.hpp"
#include "updsm/dsm/twin_store.hpp"
#include "updsm/mem/diff.hpp"

namespace updsm::protocols {

enum class BarMode {
  Invalidate,  // bar-i
  Update,      // bar-u
  OverdriveS,  // bar-s: no segvs in steady state
  OverdriveM,  // bar-m: no segvs and no mprotects in steady state
};

[[nodiscard]] constexpr const char* to_string(BarMode m) {
  switch (m) {
    case BarMode::Invalidate:
      return "bar-i";
    case BarMode::Update:
      return "bar-u";
    case BarMode::OverdriveS:
      return "bar-s";
    case BarMode::OverdriveM:
      return "bar-m";
  }
  return "?";
}

class BarProtocol : public dsm::CoherenceProtocol {
 public:
  explicit BarProtocol(BarMode mode) : mode_(mode) {}

  [[nodiscard]] std::string_view name() const override {
    return to_string(mode_);
  }

  void init(dsm::Runtime& rt) override;
  void read_fault(NodeId n, PageId page) override;
  void write_fault(NodeId n, PageId page) override;
  /// Parallel-safe (see protocol.hpp): fault-handler decisions read only
  /// barrier-frozen state (homes, versions, copyset_frozen), page bytes are
  /// served from snapshots/twins or under the home's service mutex, and
  /// untracked-page retracking is deferred to barrier_master via per-node
  /// fetch logs.
  [[nodiscard]] bool parallel_safe() const override { return true; }

  [[nodiscard]] std::uint64_t live_page_buffers() const override {
    std::uint64_t live = 0;
    for (const NodeState& st : nodes_) {
      live += st.twins.size() + st.snapshots.size();
    }
    return live;
  }
  /// Fans capture_arrival out over all nodes (Runtime::for_each_node).
  void barrier_begin() override;
  /// Publishes node n's captured writes, in node order; no trace lines.
  void barrier_arrive(NodeId n) override;
  void barrier_master() override;
  /// Fans release_node out over all nodes, then refreshes the frozen
  /// copysets and the service snapshots. barrier_release stays a no-op.
  void barrier_finish() override;
  void iteration_begin(NodeId n, std::uint64_t iteration) override;

  // ---- introspection (tests, benches) ------------------------------------
  [[nodiscard]] BarMode mode() const { return mode_; }
  [[nodiscard]] NodeId home(PageId p) const {
    return global_[p.index()].home;
  }
  [[nodiscard]] std::uint64_t version(PageId p) const {
    return global_[p.index()].version;
  }
  [[nodiscard]] dsm::Copyset copyset(PageId p) const {
    return global_[p.index()].copyset;
  }
  [[nodiscard]] bool overdrive_active() const { return od_active_; }
  [[nodiscard]] std::uint64_t overdrive_period() const { return od_period_; }
  [[nodiscard]] bool migration_done() const { return migration_done_; }

 protected:
  [[nodiscard]] bool update_mode() const { return mode_ != BarMode::Invalidate; }
  [[nodiscard]] bool overdrive_capable() const {
    return mode_ == BarMode::OverdriveS || mode_ == BarMode::OverdriveM;
  }

  // ---- per-page policy hooks (AdaptiveProtocol overrides) ----------------
  // The fixed protocols apply one delivery mode to every page; the adaptive
  // subclass answers per page. Hook answers may only depend on
  // barrier-frozen state (modes switch at barrier_finish, when every node
  // is parked), so mid-phase callers see one consistent value per epoch.

  /// Do this page's writers push diffs to the copyset at the barrier
  /// (bar-u behaviour) rather than relying on invalidation (bar-i)?
  [[nodiscard]] virtual bool page_pushes_updates(PageId) const {
    return update_mode();
  }
  /// Keep this page's twinned replicas write-enabled across barriers
  /// (overdrive delivery: the permanent twin is diffed at *every* barrier,
  /// so untrapped writes are still captured)? Orthogonal to bar-m's global
  /// `od_active_` machinery, which keeps its own predicted-epoch logic.
  [[nodiscard]] virtual bool page_keep_writable(PageId) const {
    return false;
  }
  /// A non-empty diff of `bytes` payload was created at barrier arrival
  /// (called when barrier_arrive publishes the capture: controller
  /// context, node order -- plain state is safe).
  virtual void observe_diff(NodeId, PageId, std::uint64_t /*bytes*/) {}
  /// A whole-page fetch was served (MID-PHASE: may run concurrently under
  /// the parallel gang -- implementations must use commutative updates).
  virtual void observe_fetch(NodeId, PageId) {}
  /// barrier_master visits a written page (sorted page order, controller
  /// context), before its per-epoch scratch is cleared. `writers` includes
  /// the home when it wrote.
  virtual void observe_epoch_page(PageId, const dsm::NodeSet& /*writers*/,
                                  bool /*home_wrote*/) {}

  struct QueuedDiff {
    NodeId creator;
    mem::Diff diff;
  };

  struct PageGlobal {
    NodeId home{0};
    /// Scalar version index: barrier-index-plus-one of the last epoch that
    /// modified the page; 0 = initial contents.
    std::uint64_t version = 0;
    /// Nodes caching the page (consumers), learned from fetches
    /// (commutative atomic adds mid-phase).
    dsm::Copyset copyset;
    /// Barrier-frozen shadow of `copyset`, refreshed by barrier_finish().
    /// Mid-phase *decisions* (the home-private consumer count in
    /// write_fault) read this, never the live bitmap, so they cannot
    /// depend on which concurrent fetch happened to land first.
    dsm::NodeSet copyset_frozen;
    /// All nodes whose non-empty diffs (or home trap-writes) touched the
    /// page (value-based; consumers wait only for diffs that exist).
    dsm::NodeSet writers_ever;
    /// All nodes that ever *trapped* a write to the page (fault-based;
    /// drives home migration -- a node repeatedly writing values that
    /// happen to be unchanged still deserves to own the page). Atomic
    /// bitmap: note_dirty sets bits from faulting node threads mid-phase.
    dsm::Copyset fault_writers_ever;
    /// Home-private fast path: the home writes the page with no consumers
    /// anywhere, so it stays read-write at the home with no trapping, no
    /// version bumps and no barrier work until a consumer fetches it (the
    /// logical extreme of the paper's "home effect").
    bool untracked = false;
    // --- per-epoch scratch, cleared by barrier_master -----------------
    dsm::NodeSet writers_epoch;
    bool home_wrote = false;
    std::vector<QueuedDiff> queued;  // foreign diffs flushed to the home
  };

  /// One cross-node write of a node's arrival capture. capture_arrival
  /// runs concurrently on the gang workers, so instead of performing these
  /// it logs them; barrier_arrive replays the log in node order, which
  /// reproduces the serial order of every shared mutation exactly.
  struct Captured {
    enum class Op : std::uint8_t {
      Writer,     // note_writer(n, page)
      HomeWrote,  // the page's home_wrote flag
      Diff,       // observe_diff(n, page, bytes)
      Queue,      // `diff` joins the page's queue at the home
    };
    Op op;
    PageId page;
    std::uint64_t bytes = 0;
    mem::Diff diff;
  };

  struct InboxEntry {
    PageId page{0};
    NodeId creator{0};
    mem::Diff diff;
  };

  struct ChangeRecord {
    PageId page{0};
    std::uint64_t prev_version = 0;
    std::uint64_t new_version = 0;
    dsm::NodeSet writers;  // bitmap
    /// Wire footprint per receiving node: page + version (16 bytes) plus
    /// the var-length writer/copyset bitmap -- 8 bytes per started 64-node
    /// block, so exactly the legacy 24 bytes on clusters <= 64 nodes.
    [[nodiscard]] static std::uint64_t wire_bytes(int num_nodes) {
      return 16 + dsm::NodeSet::wire_bytes(num_nodes);
    }
  };

  struct NodeState {
    std::vector<std::uint64_t> cached_version;  // per page
    std::vector<bool> dirty;                    // wrote during this epoch
    std::vector<PageId> dirty_pages;            // insertion order
    dsm::TwinStore twins;
    std::vector<InboxEntry> inbox;  // update pushes received this epoch
    /// Service snapshots of pages this node (as home) keeps ReadWrite with
    /// no twin -- untracked home-private pages and home-effect writes. A
    /// mid-phase fetch is served from the snapshot (or a live twin), never
    /// from a frame the home is concurrently writing; barrier_arrive
    /// refreshes surviving snapshots and discards dead ones. Simulator
    /// machinery, created/refreshed uncharged under the home's service
    /// mutex.
    dsm::TwinStore snapshots;
    /// Pages this node fetched during the finished epoch (appended by the
    /// node's own thread). barrier_master merges the logs to find untracked
    /// pages that gained a consumer -- the retrack decision the baton used
    /// to take inline at fetch time.
    std::vector<PageId> fetched_log;
    /// This barrier's capture, published by barrier_arrive (capacity kept,
    /// so steady-state barriers do not allocate it).
    std::vector<Captured> captured;
    // --- learning state ------------------------------------------------
    std::uint64_t iteration = 0;
    /// rt.epoch() at each iteration_begin call (index = iteration number).
    std::vector<std::uint64_t> iter_begin_epochs{0};
    /// epoch -> pages written (recorded while not in overdrive).
    std::unordered_map<std::uint64_t, std::vector<PageId>> write_sets;
    /// epoch -> pages that had updates applied (bar-m writable union).
    std::unordered_map<std::uint64_t, std::vector<PageId>> update_sets;
    /// bar-m: pages made permanently writable at overdrive engagement.
    std::vector<bool> writable_union;
  };

  [[nodiscard]] NodeState& node(NodeId n) { return nodes_[n.index()]; }
  [[nodiscard]] PageGlobal& gpage(PageId p) { return global_[p.index()]; }

  /// Whole-page fetch from the home (the 939 us path). Marks the fetcher a
  /// consumer. `miss` distinguishes demand faults from migration copies.
  void fetch_page(NodeId n, PageId page, bool count_as_miss);

  void note_dirty(NodeId n, PageId page);
  void note_writer(NodeId n, PageId page);
  /// Node n's side of arrival, run as its gang worker's share: audit,
  /// home-effect re-arm, diff creation, twin discard/refresh, flush
  /// staging and write-set learning. Writes only node n's state;
  /// cross-node writes go to node(n).captured.
  void capture_arrival(NodeId n);
  /// Node n's release, run as its gang worker's share: invalidations,
  /// update application, update-set learning and overdrive preparation,
  /// all node-local.
  void release_node(NodeId n);
  void run_migration();
  void engage_overdrive();
  /// Predicted write set of node `n` for epoch `e` (od must be active).
  [[nodiscard]] const std::vector<PageId>& predicted_writes(NodeId n,
                                                            std::uint64_t e);
  /// Pre-twin + write-enable node n's predicted pages for the next epoch
  /// (bar-s: every barrier; bar-m: only via the engagement union).
  void overdrive_prepare(NodeId n, std::uint64_t next_epoch);
  void audit_unpredicted_writes(NodeId n);

  BarMode mode_;
  dsm::Runtime* rt_ = nullptr;
  std::vector<NodeState> nodes_;
  /// Diff scratch routes through the per-worker arenas of the runtime
  /// (rt_->arena_for_node): creators take from -- and spent diffs recycle
  /// to -- the arena of the worker owning the node named in the call, so
  /// pool traffic mid-phase and in capture/release shares (which run on
  /// that worker) is single-threaded by construction, and the serial
  /// barrier work drains the loans deterministically.
  std::vector<PageGlobal> global_;
  /// Pages touched this epoch (set at first write note; master consumes).
  std::vector<PageId> epoch_touched_;
  std::vector<ChangeRecord> epoch_changes_;
  /// Guards the one-shot loop-entry reset (see LmwProtocol::loop_mu_).
  std::mutex loop_mu_;
  bool loop_entered_ = false;
  bool migration_done_ = false;
  bool od_active_ = false;
  std::uint64_t od_base_epoch_ = 0;  // first epoch of the learned iteration
  std::uint64_t od_period_ = 0;      // barriers per iteration
};

}  // namespace updsm::protocols
