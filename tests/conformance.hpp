// Conformance harness: loss, gang mode, worker count and topology may
// change WHEN things happen, never WHAT is computed. Every battery and
// every "these two runs are the same" check goes through this one file:
//  * RunSpec / run(): one run, every axis the suites vary;
//  * Battery: the seeded fault plans, and what their kind-targeted
//    plans hit;
//  * expect_same_run(): compares every field of two harness::RunResults
//    and names each field that differs.
// A failure's context is spec.replay(): updsm_run flags that repeat the
// run, fault plan and fault seed included.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "updsm/common/rng.hpp"
#include "updsm/harness/experiment.hpp"
#include "updsm/sim/cost_model.hpp"

namespace updsm::conformance {

// Seeded plans per battery cell. ThreadSanitizer runs ~15x slower, so a
// TSan build (GCC defines __SANITIZE_THREAD__ under -fsanitize=thread)
// selects smaller batteries; every other build runs the full ones.
#ifdef __SANITIZE_THREAD__
inline constexpr int kFaultPlans = 6;
inline constexpr int kTopologyPlans = 2;
inline constexpr int kAdaptivePlans = 2;
inline constexpr int kAsyncPlans = 2;
#else
inline constexpr int kFaultPlans = 28;
inline constexpr int kTopologyPlans = 6;
inline constexpr int kAdaptivePlans = 10;
inline constexpr int kAsyncPlans = 10;
#endif

/// One run: every axis a suite varies. The defaults are the fault
/// battery's cell (jacobi under bar-u, 4 nodes, scale 0.1, 4 + 2 iterations).
struct RunSpec {
  std::string app = "jacobi";
  protocols::ProtocolKind protocol = protocols::ProtocolKind::BarU;
  int nodes = 4;
  double scale = 0.1;
  int warmup = 4;
  int measured = 2;
  sim::GangMode gang = sim::GangMode::Parallel;
  int workers = 0;  // 0 = one per host core
  std::string net_profile = "sp2";
  int fanout = 0;
  int relay_threshold = 0;
  int staleness_bound = 4;
  int adaptive_window = 4;
  std::string plan;  // fault plan text; empty = the perfect network
  std::uint64_t fault_seed = 0;

  /// The updsm_run flags that repeat this run.
  [[nodiscard]] std::string replay() const {
    std::ostringstream os;
    os << "--app=" << app << " --protocol=" << protocols::to_string(protocol)
       << " --nodes=" << nodes << " --scale=" << scale
       << " --warmup=" << warmup << " --iters=" << measured
       << " --gang=" << sim::to_string(gang);
    if (workers > 0) os << " --workers=" << workers;
    os << " --net-profile=" << net_profile << " --fanout=" << fanout
       << " --relay-threshold=" << relay_threshold
       << " --staleness=" << staleness_bound
       << " --adaptive-window=" << adaptive_window;
    if (!plan.empty()) {
      os << " --faults='" << plan << "' --fault-seed=" << fault_seed;
    }
    return os.str();
  }
};

[[nodiscard]] inline harness::RunResult run(const RunSpec& spec) {
  apps::AppParams params;
  params.scale = spec.scale;
  params.warmup_iterations = spec.warmup;
  params.measured_iterations = spec.measured;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = spec.nodes;
  cfg.gang = spec.gang;
  cfg.workers = spec.workers;
  cfg.net_profile = spec.net_profile;
  cfg.costs = sim::CostModel::from_profile(spec.net_profile);
  cfg.barrier_fanout = spec.fanout;
  cfg.relay_threshold = spec.relay_threshold;
  cfg.staleness_bound = spec.staleness_bound;
  cfg.adaptive_window = spec.adaptive_window;
  if (!spec.plan.empty()) {
    cfg.faults = sim::FaultSpec::parse(spec.plan);
    cfg.fault_seed = spec.fault_seed;
  }
  return harness::run_app(spec.app, spec.protocol, cfg, params);
}

/// One plan of a seeded battery.
struct Plan {
  std::string text;
  std::optional<sim::MsgKind> target;  // the hammered kind, if any
};

/// A suite's seeded fault-plan battery. By i mod 4, plan i is: uniform
/// loss; loss with duplicates and delays; one message kind hammered over
/// light background loss; or asymmetric pair loss with a node that stalls.
/// The ranges reach 30% loss (40% on a hammered kind) and 2 ms stalls.
/// Each arm's first plan (i < 4) takes the top of every range, so a
/// battery that runs an arm faces its harshest form; later plans draw
/// their rates from (salt, i). The hammered kind is, of the kinds the
/// cell's fault-free run sent, the one the battery has hammered least so
/// far (the first in MsgKind order on a tie): no plan targets traffic that
/// never flies, and the targeted plans spread over every kind sent.
class Battery {
 public:
  explicit Battery(std::uint64_t salt) : salt_(salt) {}

  /// Plan i of a cell whose fault-free run sent `sent`.
  [[nodiscard]] Plan plan(int i, const sim::NetworkStats& sent) {
    std::uint64_t x = 0x1998'0330u + salt_ + static_cast<std::uint64_t>(i);
    auto draw = [&x, i] {
      if (i < 4) return 1.0;
      x = splitmix64(x);
      return static_cast<double>(x >> 11) * 0x1.0p-53;
    };
    auto pct = [&](double lo, double hi) {
      return std::to_string(lo + draw() * (hi - lo)).substr(0, 6);
    };
    auto micros = [&](int lo, int hi) {
      return std::to_string(lo + static_cast<int>(draw() * (hi - lo)));
    };
    Plan plan;
    switch (i % 4) {
      case 0:
        plan.text = "drop=" + pct(0.02, 0.3);
        break;
      case 1:
        plan.text = "drop=" + pct(0.01, 0.3) + ",dup=" + pct(0.01, 0.1) +
                    ",delay=" + pct(0.01, 0.1) +
                    ",delay_us=" + micros(50, 450);
        break;
      case 2: {
        std::size_t kind = sim::kMsgKindCount;
        for (std::size_t k = 0; k < sim::kMsgKindCount; ++k) {
          if (sent.by_kind[k].count > 0 &&
              (kind == sim::kMsgKindCount || hammered_[k] < hammered_[kind])) {
            kind = k;
          }
        }
        if (kind == sim::kMsgKindCount) {
          throw std::invalid_argument("the fault-free run sent no message");
        }
        ++hammered_[kind];
        plan.target = static_cast<sim::MsgKind>(kind);
        plan.text = std::string("kind=") + sim::to_string(*plan.target) +
                    ",drop=" + pct(0.1, 0.4) + ";drop=" + pct(0.0, 0.05);
        break;
      }
      default:
        plan.text = "from=0,to=1,drop=" + pct(0.1, 0.3) + ";drop=" +
                    pct(0.01, 0.3) + ";node=1,stall=" + pct(0.1, 0.4) +
                    ",stall_us=" + micros(100, 2000);
        break;
    }
    return plan;
  }

  /// Counts the messages of `plan`'s hammered kind that `run` lost.
  void record(const Plan& plan, const harness::RunResult& run) {
    if (plan.target) {
      dropped_[static_cast<std::size_t>(*plan.target)] +=
          run.net.of(*plan.target).dropped;
    }
  }

  /// Expects each kind in `required` to have been hammered and to have
  /// lost messages, unless the battery is too small to run a kind-targeted
  /// plan at all.
  void expect_hit(std::initializer_list<sim::MsgKind> required) const {
    std::ostringstream census;
    int plans = 0;
    for (std::size_t k = 0; k < sim::kMsgKindCount; ++k) {
      plans += hammered_[k];
      if (hammered_[k] > 0) {
        census << " " << sim::to_string(static_cast<sim::MsgKind>(k)) << ": "
               << hammered_[k] << " plans, " << dropped_[k] << " dropped;";
      }
    }
    if (plans == 0) return;
    for (const sim::MsgKind kind : required) {
      EXPECT_GT(dropped_[static_cast<std::size_t>(kind)], 0u)
          << "no plan hammered " << sim::to_string(kind)
          << " and dropped it:" << census.str();
    }
  }

 private:
  std::uint64_t salt_;
  std::array<int, sim::kMsgKindCount> hammered_{};  // targeted plans per kind
  std::array<std::uint64_t, sim::kMsgKindCount> dropped_{};
};

/// Expects `a` and `b` to agree on every field of a RunResult, naming
/// each field that differs. Floating-point results compare bit for bit.
inline void expect_same_run(const harness::RunResult& a,
                            const harness::RunResult& b,
                            const std::string& ctx) {
#define UPDSM_EXPECT_SAME(field) \
  EXPECT_EQ(a.field, b.field) << ctx << ": " #field
  UPDSM_EXPECT_SAME(app);
  UPDSM_EXPECT_SAME(protocol);
  UPDSM_EXPECT_SAME(nodes);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.checksum),
            std::bit_cast<std::uint64_t>(b.checksum))
      << ctx << ": checksum " << a.checksum << " vs " << b.checksum;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.final_residual),
            std::bit_cast<std::uint64_t>(b.final_residual))
      << ctx << ": final_residual " << a.final_residual << " vs "
      << b.final_residual;
  UPDSM_EXPECT_SAME(elapsed);
  UPDSM_EXPECT_SAME(barriers);
  UPDSM_EXPECT_SAME(app_iterations);
  UPDSM_EXPECT_SAME(shared_bytes);
  UPDSM_EXPECT_SAME(page_size);

  UPDSM_EXPECT_SAME(counters.diffs_created);
  UPDSM_EXPECT_SAME(counters.zero_diffs);
  UPDSM_EXPECT_SAME(counters.remote_misses);
  UPDSM_EXPECT_SAME(counters.read_faults);
  UPDSM_EXPECT_SAME(counters.write_faults);
  UPDSM_EXPECT_SAME(counters.twins_created);
  UPDSM_EXPECT_SAME(counters.updates_sent);
  UPDSM_EXPECT_SAME(counters.updates_received);
  UPDSM_EXPECT_SAME(counters.updates_stored);
  UPDSM_EXPECT_SAME(counters.updates_applied);
  UPDSM_EXPECT_SAME(counters.updates_ignored);
  UPDSM_EXPECT_SAME(counters.pages_fetched);
  UPDSM_EXPECT_SAME(counters.migrations);
  UPDSM_EXPECT_SAME(counters.retained_diff_bytes_peak);
  UPDSM_EXPECT_SAME(counters.gc_rounds);
  UPDSM_EXPECT_SAME(counters.overdrive_mispredictions);
  UPDSM_EXPECT_SAME(counters.private_entries);
  UPDSM_EXPECT_SAME(counters.private_exits);
  UPDSM_EXPECT_SAME(counters.reliable_retries);
  UPDSM_EXPECT_SAME(counters.dup_suppressed);
  UPDSM_EXPECT_SAME(counters.recovery_faults);
  UPDSM_EXPECT_SAME(counters.node_stalls);
  UPDSM_EXPECT_SAME(counters.flush_batches);
  UPDSM_EXPECT_SAME(counters.flush_batch_records);
  UPDSM_EXPECT_SAME(counters.flush_batch_records_max);
  UPDSM_EXPECT_SAME(counters.flush_batch_records_min);
  UPDSM_EXPECT_SAME(counters.flush_batch_header_bytes_saved);
  UPDSM_EXPECT_SAME(counters.relay_batches);
  UPDSM_EXPECT_SAME(counters.relay_messages);
  UPDSM_EXPECT_SAME(counters.relay_forwarded_bytes);
  UPDSM_EXPECT_SAME(counters.relay_subtree_losses);
  UPDSM_EXPECT_SAME(counters.adaptive_switches);
  UPDSM_EXPECT_SAME(counters.adaptive_window_evictions);
  UPDSM_EXPECT_SAME(counters.async_steps);
  UPDSM_EXPECT_SAME(counters.async_refreshes);
  UPDSM_EXPECT_SAME(counters.async_invalidations);
  UPDSM_EXPECT_SAME(counters.async_throttles);
  // The list above names every cell: a new counter must join it.
  static_assert(sizeof(dsm::ProtocolCounters) ==
                37 * sizeof(dsm::ProtocolCounters::Cell));

  UPDSM_EXPECT_SAME(net.injected_dups);
  UPDSM_EXPECT_SAME(net.injected_delays);
#undef UPDSM_EXPECT_SAME
  static_assert(sizeof(sim::MsgCounter) == 4 * sizeof(std::uint64_t));
  for (std::size_t k = 0; k < sim::kMsgKindCount; ++k) {
    const char* kind = sim::to_string(static_cast<sim::MsgKind>(k));
    const sim::MsgCounter& x = a.net.by_kind[k];
    const sim::MsgCounter& y = b.net.by_kind[k];
    EXPECT_EQ(x.count, y.count) << ctx << ": net " << kind << " count";
    EXPECT_EQ(x.bytes, y.bytes) << ctx << ": net " << kind << " bytes";
    EXPECT_EQ(x.dropped, y.dropped) << ctx << ": net " << kind << " dropped";
    EXPECT_EQ(x.records, y.records) << ctx << ": net " << kind << " records";
  }

  static_assert(sizeof(dsm::BreakdownReport::PerNode) ==
                5 * sizeof(sim::SimTime));
  ASSERT_EQ(a.breakdown.nodes.size(), b.breakdown.nodes.size())
      << ctx << ": breakdown nodes";
  for (std::size_t n = 0; n < a.breakdown.nodes.size(); ++n) {
    const auto& x = a.breakdown.nodes[n];
    const auto& y = b.breakdown.nodes[n];
    EXPECT_EQ(x.app, y.app) << ctx << ": node " << n << " app time";
    EXPECT_EQ(x.dsm, y.dsm) << ctx << ": node " << n << " dsm time";
    EXPECT_EQ(x.os, y.os) << ctx << ": node " << n << " os time";
    EXPECT_EQ(x.wait, y.wait) << ctx << ": node " << n << " wait time";
    EXPECT_EQ(x.sigio, y.sigio) << ctx << ": node " << n << " sigio time";
  }

  // The first differing page stands for the rest.
  static_assert(sizeof(dsm::PageStats) == 3 * sizeof(std::uint32_t));
  ASSERT_EQ(a.page_stats.size(), b.page_stats.size()) << ctx << ": pages";
  for (std::size_t p = 0; p < a.page_stats.size(); ++p) {
    const dsm::PageStats& x = a.page_stats[p];
    const dsm::PageStats& y = b.page_stats[p];
    if (x.read_faults == y.read_faults && x.write_faults == y.write_faults &&
        x.mprotects == y.mprotects) {
      continue;
    }
    EXPECT_EQ(x.read_faults, y.read_faults) << ctx << ": page " << p
                                            << " read_faults";
    EXPECT_EQ(x.write_faults, y.write_faults) << ctx << ": page " << p
                                              << " write_faults";
    EXPECT_EQ(x.mprotects, y.mprotects) << ctx << ": page " << p
                                        << " mprotects";
    break;
  }

  ASSERT_EQ(a.allocations.size(), b.allocations.size())
      << ctx << ": allocations";
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    const mem::Allocation& x = a.allocations[i];
    const mem::Allocation& y = b.allocations[i];
    EXPECT_TRUE(x.name == y.name && x.addr == y.addr && x.bytes == y.bytes)
        << ctx << ": allocation " << i << " " << x.name << " vs " << y.name;
  }
}

}  // namespace updsm::conformance
