// async-u / async-i: stale-tolerant home-based protocols for barrier-free
// (GangMode::Async) iteration.
//
// Like bar-*, every page has a home holding the authoritative copy and a
// scalar version index. Unlike bar-*, there is no barrier at which diffs
// are exchanged: each node brackets every iteration of its own loop with
//
//   async_publish -- diff every twinned page against its twin, flush the
//     diffs reliably to the homes (version bump per modified page), and
//     either push the diff to the page's cached copies (async-u) or
//     invalidate them (async-i). The node's local residual feeds a global
//     epoch/residual convergence detector (protocols/convergence.hpp).
//   async_refresh -- after the scheduler yield returns, refetch every
//     cached page whose home version ran ahead of the configured
//     staleness bound while the node was parked.
//
// The staleness bound is exact, not approximate: under the async gang
// exactly one node runs at a time, so home versions are frozen during a
// node's run window and can only advance while it is parked -- which is
// precisely the window async_refresh closes. Every read of a sweep
// therefore observes a copy at most `staleness_bound` publishes old (the
// staleness_property_test replays the journal against a reference model
// to pin this).
//
// The barrier hooks implement a deliberately simple degenerate protocol
// (flush at arrival, drop every non-home copy at release): they only run
// for the init/teardown barriers of async apps -- or when an async
// protocol is driven under a barrier gang for comparison -- where
// correctness matters and performance does not.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "updsm/dsm/copyset.hpp"
#include "updsm/dsm/protocol.hpp"
#include "updsm/dsm/runtime.hpp"
#include "updsm/dsm/twin_store.hpp"
#include "updsm/protocols/convergence.hpp"

namespace updsm::protocols {

enum class AsyncMode {
  Update,      // async-u: publishes push diffs to cached copies
  Invalidate,  // async-i: publishes invalidate cached copies
};

[[nodiscard]] constexpr const char* to_string(AsyncMode m) {
  switch (m) {
    case AsyncMode::Update:
      return "async-u";
    case AsyncMode::Invalidate:
      return "async-i";
  }
  return "?";
}

class AsyncProtocol : public dsm::CoherenceProtocol {
 public:
  explicit AsyncProtocol(AsyncMode mode) : mode_(mode) {}

  [[nodiscard]] std::string_view name() const override {
    return to_string(mode_);
  }

  void init(dsm::Runtime& rt) override;
  void read_fault(NodeId n, PageId page) override;
  void write_fault(NodeId n, PageId page) override;
  /// Fault handlers follow the bar-* parallel-safe discipline (decisions on
  /// frozen state, page bytes copied under the home's service mutex). The
  /// async hooks additionally mutate remote state (update application,
  /// invalidation, version bumps), which is safe because they only run
  /// under the async gang, with every other node parked.
  [[nodiscard]] bool parallel_safe() const override { return true; }

  void barrier_arrive(NodeId n) override;
  void barrier_master() override {}
  void barrier_release(NodeId n) override;

  [[nodiscard]] bool async_publish(NodeId n, std::uint64_t step,
                                   double residual) override;
  void async_refresh(NodeId n) override;
  [[nodiscard]] bool async_converged() const override {
    return detector_ != nullptr && detector_->converged();
  }

  [[nodiscard]] std::uint64_t live_page_buffers() const override {
    std::uint64_t live = 0;
    for (const NodeState& st : nodes_) live += st.twins.size();
    return live;
  }

  // ---- introspection (tests, benches) ------------------------------------
  [[nodiscard]] AsyncMode mode() const { return mode_; }
  [[nodiscard]] NodeId home(PageId p) const { return global_[p.index()].home; }
  [[nodiscard]] std::uint64_t home_version(PageId p) const {
    return global_[p.index()].version;
  }
  [[nodiscard]] std::uint64_t cached_version(NodeId n, PageId p) const {
    return nodes_[n.index()].cached_version[p.index()];
  }
  [[nodiscard]] dsm::Copyset copyset(PageId p) const {
    return global_[p.index()].copyset;
  }
  [[nodiscard]] const ConvergenceDetector& detector() const {
    return *detector_;
  }

  /// Protocol event journal, recorded only when config.trace is set. The
  /// staleness property test replays it against a std::map reference model;
  /// entry order is the exact event order of the (single-threaded) async
  /// schedule.
  struct JournalEntry {
    enum class Kind : std::uint8_t {
      StepBegin,   // node begins a sweep: its cached state is now read
      Publish,     // node published a non-empty diff; `version` = new home v
      Fetch,       // node installed the page at home `version` (fault/refresh)
      Apply,       // update push applied; node's copy is now at `version`
      Invalidate,  // node's copy dropped (async-i publish or barrier release)
    };
    Kind kind;
    std::uint32_t node;
    std::uint32_t page;
    std::uint64_t version;
    std::uint64_t step;
  };
  [[nodiscard]] const std::vector<JournalEntry>& journal() const {
    return journal_;
  }

 private:
  struct PageGlobal {
    NodeId home{0};
    /// Publish count: bumped once per non-empty published diff (and per
    /// page modified across a barrier). 0 = initial contents.
    std::uint64_t version = 0;
    /// Nodes caching the page; drives pushes (async-u) and invalidations
    /// (async-i). Correctness never depends on it -- the staleness refresh
    /// checks every readable page against the home version directly.
    dsm::Copyset copyset;
  };

  struct NodeState {
    std::vector<std::uint64_t> cached_version;  // per page
    /// Twin per page written since this node's last publish. The home's
    /// twin doubles as the page's PUBLISHED contents while the frame holds
    /// unpublished writes; fetches are served twin-first.
    dsm::TwinStore twins;
  };

  [[nodiscard]] NodeState& node(NodeId n) { return nodes_[n.index()]; }
  [[nodiscard]] PageGlobal& gpage(PageId p) { return global_[p.index()]; }

  /// Whole-page fetch from the home (twin-first, under the home's service
  /// mutex). Installs the page readable at the current home version.
  void fetch_page(NodeId n, PageId page, bool count_as_miss);
  /// Applies a published diff -- the creator's mem::Diff at the home, a
  /// delivered dsm::FlushRecordView at a pushed-to copy -- to node `m`'s
  /// frame, and to its twin when one exists, so (a) a home's twin stays
  /// equal to the published contents and (b) a concurrent writer's next
  /// diff does not re-publish foreign bytes as its own.
  template <typename D>
  void apply_diff(NodeId m, PageId page, const D& diff);
  /// Publishes node n's twinned pages: diffs each against its twin, flushes
  /// it reliably to the home (applied there at once) and bumps the page's
  /// version. With `notify` (async_publish) it also pushes the diff to the
  /// cached copies (async-u) or invalidates them (async-i); the degenerate
  /// barrier_arrive publishes without. The caller seals the staged flushes.
  void publish(NodeId n, std::uint64_t step, bool notify);
  void note(JournalEntry::Kind kind, NodeId n, PageId page,
            std::uint64_t version, std::uint64_t step) {
    if (journal_on_) {
      journal_.push_back(JournalEntry{kind, n.value(), page.value(), version,
                                      step});
    }
  }

  AsyncMode mode_;
  dsm::Runtime* rt_ = nullptr;
  std::vector<NodeState> nodes_;
  std::vector<PageGlobal> global_;
  std::unique_ptr<ConvergenceDetector> detector_;
  std::vector<JournalEntry> journal_;
  bool journal_on_ = false;
};

}  // namespace updsm::protocols
