// lmw-i / lmw-u: homeless multi-writer lazy-release-consistency protocols
// (paper §2.1), restricted -- like the whole study -- to barrier-only codes.
//
// lmw-i (invalidate): modifications are captured as diffs at each barrier;
// write notices ride the barrier messages; recipients invalidate named
// pages; the next access faults and fetches the named diffs from their
// creators. Diffs are *retained* by creators until an explicit garbage
// collection (Figure 1's point: nobody knows who might still request one).
//
// lmw-u (hybrid update): producers track per-page copysets (a node enters a
// page's copyset at producer q when it requests one of q's diffs for that
// page). At each barrier a producer flushes its new diffs, unreliably, to
// the page's copyset. Receivers *store* the updates without applying them:
// the next access still faults (a segv), but if every needed diff is
// already stored locally the fault is satisfied without network traffic --
// so remote misses vanish while segv/mprotect traffic remains (this is the
// gap bar-u closes, §3.3 end).
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "updsm/dsm/copyset.hpp"
#include "updsm/dsm/diff_store.hpp"
#include "updsm/dsm/protocol.hpp"
#include "updsm/dsm/runtime.hpp"
#include "updsm/dsm/twin_store.hpp"
#include "updsm/dsm/write_notice.hpp"

namespace updsm::protocols {

class LmwProtocol final : public dsm::CoherenceProtocol {
 public:
  /// `use_updates` selects lmw-u; false is lmw-i.
  explicit LmwProtocol(bool use_updates) : use_updates_(use_updates) {}

  [[nodiscard]] std::string_view name() const override {
    return use_updates_ ? "lmw-u" : "lmw-i";
  }

  void init(dsm::Runtime& rt) override;
  void read_fault(NodeId n, PageId page) override;
  void write_fault(NodeId n, PageId page) override;
  /// Parallel-safe (see protocol.hpp): fault-handler decisions read only
  /// barrier-frozen state (`exclusive` flags, creators' diff stores, service
  /// snapshots), mutations are node-local or commutative, and exclusivity
  /// exits are deferred to barrier_begin().
  [[nodiscard]] bool parallel_safe() const override { return true; }
  /// Replays the exclusivity exits, then fans capture_arrival out over all
  /// nodes (Runtime::for_each_node).
  void barrier_begin() override;
  /// Publishes node n's write notices, in node order; no trace lines.
  void barrier_arrive(NodeId n) override;
  void barrier_master() override;
  /// Fans release_node out over all nodes, then drops the epoch's notices
  /// and runs a requested garbage collection. barrier_release stays a
  /// no-op.
  void barrier_finish() override;
  void iteration_begin(NodeId n, std::uint64_t iteration) override;

  /// Total bytes of diffs currently retained across all nodes (creators'
  /// stores plus lmw-u stored updates): the homeless memory appetite.
  [[nodiscard]] std::uint64_t retained_diff_bytes() const;

  [[nodiscard]] std::uint64_t gc_rounds() const { return gc_rounds_; }

  [[nodiscard]] std::uint64_t live_page_buffers() const override {
    std::uint64_t live = 0;
    for (const NodeState& st : nodes_) {
      live += st.twins.size() + st.snapshots.size();
    }
    return live;
  }

 private:
  struct PageLocal {
    /// Notices for foreign diffs that must be applied before the next
    /// access; kept sorted by WriteNoticeOrder.
    dsm::NoticeList pending;
    /// Consumers of THIS node's diffs for this page (lmw-u producers push
    /// to these). Learned from diff requests.
    dsm::Copyset copyset;
    /// Epoch of this node's newest write notice for the page; the diff id
    /// later requesters will ask for while the page sits in single-writer
    /// mode.
    EpochId last_notice_epoch{0};
    /// TreadMarks-style single-writer mode: this node is the only holder
    /// of the page (its last notice invalidated every replica, and nobody
    /// has requested a diff), so it writes untrapped -- no twins, diffs or
    /// notices -- until a remote access fetches the whole page.
    bool exclusive = false;
  };

  struct NodeState {
    std::vector<PageLocal> pages;
    dsm::TwinStore twins;
    /// Diffs this node created (it is the only server for them).
    dsm::DiffStore created;
    /// lmw-u: unapplied updates received by flush, keyed like created diffs.
    dsm::DiffStore stored_updates;
    /// Pages whose non-empty diff was created at the current barrier
    /// (candidates for single-writer mode, judged at release).
    std::vector<PageId> epoch_diffed;
    /// Service snapshots of THIS node's exclusive pages: the page contents
    /// as of the previous barrier, refreshed at every barrier_arrive while
    /// the page stays exclusive. Mid-phase single-writer fetches are served
    /// from the snapshot (immutable between barriers), never from the live
    /// frame the owner is concurrently writing -- that is what makes the
    /// fast path parallel-safe. Invariant: snapshots.has(p) == pages[p]
    /// .exclusive. Simulator machinery; the copy is not charged.
    dsm::TwinStore snapshots;
    /// Deferred-work log, appended by THIS node's thread mid-phase: one
    /// (creator, page) entry per single-writer fast-path fetch. Replayed --
    /// merged over all nodes, sorted, deduplicated -- by barrier_begin(),
    /// which performs the creator-side exclusivity exit that the serializing
    /// baton used to do inline at fetch time.
    std::vector<std::pair<NodeId, PageId>> fast_fetches;
    /// Write notices of this barrier's capture, in page order; published
    /// into epoch_notices_ by barrier_arrive.
    dsm::NoticeList notices;
  };

  /// Ensures node n has a current copy of `page` by fetching and applying
  /// all pending diffs; charges everything; returns true if any network
  /// request was needed. `demand` is true for application faults (counted
  /// as remote misses; the creator learns a consumer) and false for the
  /// garbage-collection sweep, which must neither inflate miss counts nor
  /// teach copysets phantom consumers.
  bool validate_page(NodeId n, PageId page, bool demand = true);

  /// Forces every node current on every page, then drops all diff state:
  /// the explicit global garbage collection homeless protocols need.
  void garbage_collect();

  /// Node n's side of arrival, run as its gang worker's share: snapshot
  /// refresh, diff creation, trap re-arm and update staging. Its notices
  /// go to node(n).notices.
  void capture_arrival(NodeId n);
  /// Node n's release, run as its gang worker's share: pending notices,
  /// invalidations and single-writer entry, all node-local.
  void release_node(NodeId n);

  [[nodiscard]] NodeState& node(NodeId n) { return nodes_[n.index()]; }

  bool use_updates_;
  dsm::Runtime* rt_ = nullptr;
  std::vector<NodeState> nodes_;
  /// Notices generated at the current barrier, aggregated by the master and
  /// redistributed on release.
  dsm::NoticeList epoch_notices_;
  bool gc_requested_ = false;
  /// Guards the one-shot loop-entry copyset reset: iteration_begin runs on
  /// node threads mid-phase under the parallel gang, and applications call
  /// it before any shared access of the entering epoch, so the mutex
  /// acquire orders the reset before every add of that epoch.
  std::mutex loop_mu_;
  bool loop_entered_ = false;
  std::uint64_t gc_rounds_ = 0;
};

}  // namespace updsm::protocols
