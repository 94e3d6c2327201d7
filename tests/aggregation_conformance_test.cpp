// Aggregation conformance: every barrier flush travels inside one batch per
// (sender, destination) pair, and a lost batch loses all of its records.
// Across the six paper protocols, both gang modes and a battery of fault
// plans, every observable *result* must stay bit-exact against the
// fault-free run, and the batches must really coalesce multi-page flows.
//
// Plan count defaults to 8; UPDSM_AGG_PLANS=<n> shrinks (or grows) the
// battery, which CI uses to keep the sanitizer job inside its time budget.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "updsm/common/rng.hpp"
#include "updsm/harness/experiment.hpp"
#include "updsm/harness/parallel_grid.hpp"

namespace updsm {
namespace {

using protocols::ProtocolKind;
using sim::GangMode;
using sim::MsgKind;

struct Scenario {
  const char* app;
  std::vector<ProtocolKind> kinds;
};

// Same roster as the fault-conformance soak: tomcat's shifting write set
// excludes the overdrive predictors (bar-s / bar-m).
const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> s{
      {"jacobi",
       {ProtocolKind::LmwI, ProtocolKind::LmwU, ProtocolKind::BarI,
        ProtocolKind::BarU, ProtocolKind::BarS, ProtocolKind::BarM}},
      {"tomcat",
       {ProtocolKind::LmwI, ProtocolKind::LmwU, ProtocolKind::BarI,
        ProtocolKind::BarU}},
  };
  return s;
}

int plan_count() {
  if (const char* env = std::getenv("UPDSM_AGG_PLANS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 8;
}

/// Same deterministic plan construction as the fault conformance battery,
/// offset so the two suites exercise different draws.
std::string make_plan(int i) {
  std::uint64_t x = 0x1998'0330u + 7777u + static_cast<std::uint64_t>(i);
  auto draw = [&x] {
    x = splitmix64(x);
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  auto pct = [&](double lo, double hi) {
    const double p = lo + draw() * (hi - lo);
    return std::to_string(p).substr(0, 6);
  };
  switch (i % 4) {
    case 0:
      return "drop=" + pct(0.02, 0.15);
    case 1:
      return "drop=" + pct(0.01, 0.1) + ",dup=" + pct(0.01, 0.1) +
             ",delay=" + pct(0.01, 0.1) + ",delay_us=" +
             std::to_string(50 + static_cast<int>(draw() * 400));
    case 2:  // hammer the aggregated flush path directly
      return std::string("kind=flushbatch,drop=") + pct(0.1, 0.3) +
             ";drop=" + pct(0.0, 0.05);
    default:
      return "from=0,to=1,drop=" + pct(0.1, 0.3) + ";drop=" +
             pct(0.01, 0.08) + ";node=1,stall=" + pct(0.1, 0.4) +
             ",stall_us=" + std::to_string(100 + static_cast<int>(draw() * 800));
  }
}

harness::RunResult run_one(const char* app, ProtocolKind kind, GangMode gang,
                           const std::string& plan, std::uint64_t fault_seed) {
  apps::AppParams params;
  params.scale = 0.1;
  params.warmup_iterations = 4;
  params.measured_iterations = 2;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.gang = gang;
  if (!plan.empty()) {
    cfg.faults = sim::FaultSpec::parse(plan);
    cfg.fault_seed = fault_seed;
  }
  return harness::run_app(app, kind, cfg, params);
}

// Under faults a lost batch takes every record aboard with it, but the
// *result* must still match the fault-free baseline bit-for-bit, and both
// gang modes must agree on every observable.
TEST(AggregationConformanceTest, AggregatedRunsBitExactUnderFaults) {
  const int plans = plan_count();
  for (const Scenario& sc : scenarios()) {
    for (const ProtocolKind kind : sc.kinds) {
      const harness::RunResult base =
          run_one(sc.app, kind, GangMode::Parallel, "", 0);
      for (int i = 0; i < plans; ++i) {
        const std::string plan = make_plan(i);
        const std::uint64_t seed = 4000u + static_cast<std::uint64_t>(i);
        const harness::RunResult faulty =
            run_one(sc.app, kind, GangMode::Parallel, plan, seed);
        const std::string ctx = std::string(sc.app) + " under " +
                                protocols::to_string(kind) + " plan " +
                                std::to_string(i) + " [" + plan + "]";
        EXPECT_EQ(faulty.checksum, base.checksum) << ctx;
        EXPECT_EQ(faulty.barriers, base.barriers) << ctx;
        EXPECT_GE(faulty.net.total_dropped(),
                  faulty.counters.reliable_retries.load())
            << ctx;
        EXPECT_GE(faulty.counters.dup_suppressed.load(),
                  faulty.net.injected_dups)
            << ctx;

        const harness::RunResult baton =
            run_one(sc.app, kind, GangMode::Baton, plan, seed);
        EXPECT_EQ(baton.checksum, faulty.checksum) << ctx;
        EXPECT_EQ(baton.elapsed, faulty.elapsed) << ctx;
        EXPECT_EQ(baton.net.total_bytes(), faulty.net.total_bytes()) << ctx;
        EXPECT_EQ(baton.net.total_dropped(), faulty.net.total_dropped()) << ctx;
        EXPECT_EQ(baton.counters.flush_batches.load(),
                  faulty.counters.flush_batches.load())
            << ctx;
        EXPECT_EQ(baton.counters.flush_batch_records.load(),
                  faulty.counters.flush_batch_records.load())
            << ctx;
      }
    }
  }
}

// Batcher determinism across worker counts: the same task list executed on
// 1 worker and 4 workers must produce identical results cell-for-cell --
// the aggregation layer keeps no cross-run state.
TEST(AggregationConformanceTest, GridResultsIdenticalAcrossJobs) {
  std::vector<std::function<harness::RunResult()>> tasks;
  for (const Scenario& sc : scenarios()) {
    for (const ProtocolKind kind : sc.kinds) {
      tasks.push_back([app = sc.app, kind] {
        return run_one(app, kind, GangMode::Parallel, "", 0);
      });
    }
  }
  const std::vector<harness::RunResult> one = harness::run_grid(tasks, 1);
  const std::vector<harness::RunResult> four = harness::run_grid(tasks, 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].checksum, four[i].checksum) << "cell " << i;
    EXPECT_EQ(one[i].elapsed, four[i].elapsed) << "cell " << i;
    EXPECT_EQ(one[i].net.total_bytes(), four[i].net.total_bytes())
        << "cell " << i;
    EXPECT_EQ(one[i].counters.flush_batches.load(),
              four[i].counters.flush_batches.load())
        << "cell " << i;
    EXPECT_EQ(one[i].counters.flush_batch_records.load(),
              four[i].counters.flush_batch_records.load())
        << "cell " << i;
  }
}

// The headline aggregation claim at the traffic level: for the home-based
// update protocols, the flush-class message count follows the active
// (sender, destination) pairs per barrier, not the pages -- i.e. batches
// actually coalesce multi-page flows -- and the batch bookkeeping agrees
// with the network census.
TEST(AggregationConformanceTest, BatchesCoalesceMultiPageFlows) {
  // Needs a communication pattern where a sender dirties several pages
  // bound for the same destination within one barrier interval; fft's
  // transpose is exactly that (jacobi's single boundary page per neighbor
  // never yields multi-record batches, by design).
  apps::AppParams params;
  params.scale = 0.25;
  params.warmup_iterations = 2;
  params.measured_iterations = 2;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 4;
  for (const ProtocolKind kind :
       {ProtocolKind::BarU, ProtocolKind::BarS, ProtocolKind::BarM}) {
    const harness::RunResult run = harness::run_app("fft", kind, cfg, params);
    const std::string ctx = protocols::to_string(kind);
    const sim::MsgCounter& batches = run.net.of(MsgKind::FlushBatch);
    ASSERT_GT(batches.count, 0u) << ctx;
    EXPECT_EQ(run.net.of(MsgKind::Flush).count, 0u)
        << ctx << ": barrier flushes always travel in batches";
    // Strictly fewer messages than page records, i.e. real coalescing.
    EXPECT_LT(run.net.flush_class_messages(), run.net.flush_class_records())
        << ctx;
    EXPECT_GT(run.counters.flush_batch_records_max.load(), 1u) << ctx;
    EXPECT_GE(run.counters.flush_batch_records_min.load(), 1u) << ctx;
    EXPECT_EQ(run.counters.flush_batches.load(), batches.count) << ctx;
    EXPECT_EQ(run.counters.flush_batch_records.load(), batches.records) << ctx;
  }
}

}  // namespace
}  // namespace updsm
