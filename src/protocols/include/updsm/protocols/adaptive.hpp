// adaptive: per-page protocol selection under the active cost model.
//
// The paper picks ONE delivery mode for the whole run (invalidate, update,
// or overdrive) and §3-§4 show the right choice depends on the platform's
// per-message / per-byte / trap cost ratios -- ratios that moved by two
// orders of magnitude between 1998 UDP-over-HPS and kernel-bypass NICs.
// This protocol generalizes overdrive's write-set history into an online,
// per-page policy: for every page it keeps a sliding window of the last W
// written epochs (observed writer set, summed diff bytes, consumer count,
// demand fetches) and, at each barrier the page was written in, compares
// the *modeled* per-epoch cost of the three delivery modes under the
// cluster's active CostModel:
//
//   invalidate  writers trap+twin+diff; every consumer refetches the page
//   update      writers trap+twin+diff; diffs are pushed and applied
//   overdrive   the page's learned writers are permanently armed --
//               twinned and write-enabled -- so steady-state writes trap
//               no segv and applies between co-writers need no protection
//               flips, like a page-granular bar-s
//
// The cheapest mode wins, with hysteresis (a challenger must undercut the
// incumbent by 10%) so borderline pages do not thrash. Overdrive is only
// entered for pages whose writer set was identical across a full window --
// and unlike bar-m it stays SAFE under a later pattern change: a
// write-enabled page ALWAYS carries a live twin that is diffed at the
// next barrier, so an untrapped write is captured at the next sequence
// point, and a new writer simply traps down the ordinary bar-u path and
// arms itself. The residual safety tax is an empty diff scan on armed
// epochs the page is not written; *phase parking* prices even that away
// where the pattern allows: when a page's written epochs form an exact
// periodic residue pattern (validated against the app's learned
// barriers-per-iteration period), its replicas are write-protected on the
// predicted-quiet residues with the synced twin RETAINED. A read-protected
// page cannot change, so parked epochs need no scan at all, re-arming at
// the next predicted-write residue is a single mprotect (no twin copy),
// and a mispredicted write simply traps -- unlike bar-m, which skips the
// quiet-epoch scans by fiat and silently loses unpredicted writes. Pages
// whose pattern is aperiodic, or whose (possibly VM-stressed) mprotect
// price exceeds the scans saved, stay permanently armed instead; either
// way a pattern change costs time, never correctness -- there is no
// silent-divergence mode and no learn-iteration alignment requirement.
//
// Determinism: every policy input is a barrier-frozen or commutative
// quantity (value-based writer sets, diff byte sums, copyset membership,
// total fetch counts), modes only change inside barrier_finish() while all
// nodes are parked, and mid-phase readers (write_fault's push decision)
// see one constant value per epoch -- the same argument as the
// copyset_frozen shadow, so results are bit-identical across gang modes,
// --jobs, --workers, and seeded fault plans (adaptive_conformance_test).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "updsm/protocols/bar.hpp"
#include "updsm/sim/cost_model.hpp"

namespace updsm::protocols {

/// Per-page delivery mode picked by the policy.
enum class PageMode : std::uint8_t { Invalidate, Update, Overdrive };

[[nodiscard]] constexpr const char* to_string(PageMode m) {
  switch (m) {
    case PageMode::Invalidate:
      return "invalidate";
    case PageMode::Update:
      return "update";
    case PageMode::Overdrive:
      return "overdrive";
  }
  return "?";
}

/// Window summary for one page: the policy's only inputs.
struct PageSignal {
  double write_rate = 1.0;     // written epochs / spanned epochs, (0, 1]
  double writers_avg = 0.0;    // mean distinct writers per written epoch
  double diff_bytes_avg = 0.0; // mean summed diff payload per written epoch
  double consumers_avg = 0.0;  // mean receivers per push (copyset size - 1)
  double fetches_avg = 0.0;    // mean demand fetches between written epochs
  bool stable_writers = false; // identical writer set across the window
  bool window_full = false;
};

/// The pure cost comparison, separated from the protocol so
/// cost_model_test can pin its decisions platform-by-platform. The
/// protocol charges each evaluation dsm.policy_eval_per_page_ns of
/// simulated time.
struct AdaptivePolicy {
  const sim::CostModel* costs = nullptr;
  std::uint32_t page_bytes = 8192;
  /// A challenger mode must undercut the incumbent's modeled cost by this
  /// factor before the page switches (hysteresis against thrashing).
  double hysteresis = 0.90;

  /// Modeled per-written-epoch cost (ns) of running `m` for a page with
  /// window summary `s`. `current` matters only for invalidate, whose
  /// refetch count uses observed fetches while invalidation is live.
  [[nodiscard]] double modeled_cost(PageMode m, PageMode current,
                                    const PageSignal& s) const;

  /// The mode the page should run next epoch.
  [[nodiscard]] PageMode evaluate(PageMode current, const PageSignal& s) const;

  /// Should an overdrive page's pure-reader consumers be armed too?
  /// A parked consumer pays a protection flip pair around every diff apply;
  /// an armed one pays the per-epoch empty scan plus a post-apply twin
  /// refresh instead. The break-even depends on the page's actual mprotect
  /// cost (`mprotect_ns`), which is location-dependent under VM stress --
  /// the caller passes the page's own slow/fast cost, so consumers of slow
  /// pages arm while consumers of fast pages keep trapping applies.
  [[nodiscard]] bool consumer_arming_pays(const PageSignal& s,
                                          double mprotect_ns) const;
};

class AdaptiveProtocol final : public BarProtocol {
 public:
  AdaptiveProtocol() : BarProtocol(BarMode::Update) {}

  [[nodiscard]] std::string_view name() const override { return "adaptive"; }

  void init(dsm::Runtime& rt) override;
  void barrier_finish() override;

 protected:
  [[nodiscard]] bool page_pushes_updates(PageId p) const override {
    return modes_[p.index()] != PageMode::Invalidate;
  }
  /// Overdrive pages keep the twin + write enable across every barrier
  /// (permanently armed); all other pages take the bar-u park path.
  [[nodiscard]] bool page_keep_writable(PageId p) const override {
    return modes_[p.index()] == PageMode::Overdrive;
  }
  void observe_diff(NodeId n, PageId page, std::uint64_t bytes) override;
  void observe_fetch(NodeId n, PageId page) override;
  void observe_epoch_page(PageId page, const dsm::NodeSet& writers,
                          bool home_wrote) override;

 private:
  struct Sample {
    dsm::NodeSet writers;
    std::uint64_t diff_bytes = 0;
    std::uint64_t epoch = 0;
    std::uint32_t consumers = 0;
    std::uint32_t fetches = 0;
  };
  /// Fixed-capacity ring of the last `window_` written-epoch samples.
  struct History {
    std::vector<Sample> ring;
    std::size_t head = 0;  // next slot to overwrite
    std::size_t count = 0;
  };

  [[nodiscard]] PageSignal summarize(const History& h) const;
  void push_sample(PageId page, Sample s);
  void apply_switch(PageId page, PageMode from, PageMode to);
  /// Twin + write-enable the page's learned writers (valid replicas only)
  /// on overdrive entry; later writers arm themselves via the trap path.
  void arm_page(PageId page);
  /// Recompute the page's phase mask (phase parking) from its window.
  void update_phase(PageId page);

  AdaptivePolicy policy_;
  int window_ = 6;
  std::vector<PageMode> modes_;  // mutated only in barrier_finish
  std::vector<History> history_;
  /// Phase parking state. `period_` is the app's learned barriers per
  /// time-step iteration (0 until two iteration begins are on record);
  /// `phase_mask_[p]` is the residue bitmask (bit r = page written on
  /// epochs == r mod period_) of a VALIDATED exact periodic pattern, or 0
  /// for permanently-armed pages. `od_pages_` (sorted) drives the
  /// finish-time park/re-arm pass. All three mutate only in
  /// barrier_finish and are read mid-phase as barrier-frozen values.
  std::uint64_t period_ = 0;
  std::vector<std::uint64_t> phase_mask_;
  std::vector<PageId> od_pages_;
  /// Diff payload accumulator for the epoch in flight (barrier_arrive runs
  /// in controller context, so plain integers suffice).
  std::vector<std::uint64_t> epoch_diff_bytes_;
  /// Demand fetches since the page's last written epoch. Bumped mid-phase
  /// from fault handlers (possibly concurrently), so these are atomics;
  /// totals are commutative and schedule-independent.
  std::unique_ptr<std::atomic<std::uint32_t>[]> fetch_counts_;
  /// Pages sampled this epoch (sorted: master visits pages in sorted
  /// order); barrier_finish re-evaluates exactly these.
  std::vector<PageId> sampled_;
};

}  // namespace updsm::protocols
