// Async-gang conformance: barrier-free iteration must stay a deterministic
// discrete-event simulation. Under GangMode::Async exactly one node runs at
// a time, picked by minimum virtual clock, so every observable -- the
// converged flag, virtual time, message census, protocol counters, sweep
// counts -- must be a pure function of (workload, config), bit-identical
// across worker counts and unchanged by host scheduling. This drives both
// async stencils under both async protocols across worker counts and a
// battery of seeded fault plans (drops, dups, delays, stalls -- the
// straggler-conformance grid), and additionally requires every faulty run
// to still CONVERGE: stale-tolerant reads plus the staleness refresh must
// heal arbitrary bounded loss.
//
// Plan count defaults to 10; UPDSM_ASYNC_PLANS=<n> shrinks (or grows) the
// battery, which CI uses to keep the sanitizer job inside its budget.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "updsm/harness/experiment.hpp"
#include "updsm/sim/fault_plan.hpp"

namespace updsm {
namespace {

using protocols::ProtocolKind;
using sim::GangMode;

constexpr const char* kApps[] = {"jacobi-async", "sor-async"};
constexpr ProtocolKind kProtocols[] = {ProtocolKind::AsyncU,
                                       ProtocolKind::AsyncI};

int plan_count() {
  if (const char* env = std::getenv("UPDSM_ASYNC_PLANS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 10;
}

/// Deterministic straggler/fault battery, a pure function of i: broad
/// loss, loss+dup+delay, batch-targeted loss, and asymmetric loss plus
/// per-step stalls (the straggler case proper).
std::string make_plan(int i) {
  const int pct = 5 + (i * 11) % 26;  // 5..30 percent
  const std::string p =
      std::string("0.") + (pct < 10 ? "0" : "") + std::to_string(pct);
  switch (i % 4) {
    case 0:
      return "drop=" + p;
    case 1:
      return "drop=" + p + ",dup=0.05,delay=0.1,delay_us=300";
    case 2:
      // Update pushes ride aggregated batches: kind=flushbatch is the
      // rule that actually targets them (kind=flush only matches the
      // residual reports).
      return "kind=flushbatch,drop=0.4;drop=0.05";
    default:
      return "from=0,to=1,drop=0.3;node=1,stall=0.4,stall_us=2000;drop=" + p;
  }
}

struct RunSpec {
  const char* app = "jacobi-async";
  ProtocolKind protocol = ProtocolKind::AsyncU;
  int workers = 0;
  std::string plan;
  std::uint64_t fault_seed = 0;
};

harness::RunResult run_one(const RunSpec& spec) {
  apps::AppParams params;
  params.scale = 0.1;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.gang = GangMode::Async;
  cfg.workers = spec.workers;
  cfg.staleness_bound = 2;
  if (!spec.plan.empty()) {
    cfg.faults = sim::FaultSpec::parse(spec.plan);
    cfg.fault_seed = spec.fault_seed;
  }
  return harness::run_app(spec.app, spec.protocol, cfg, params);
}

void expect_identical(const harness::RunResult& a, const harness::RunResult& b,
                      const std::string& ctx) {
  EXPECT_EQ(a.checksum, b.checksum) << ctx;
  EXPECT_EQ(a.elapsed, b.elapsed) << ctx;
  EXPECT_EQ(a.barriers, b.barriers) << ctx;
  EXPECT_EQ(a.app_iterations, b.app_iterations) << ctx;
  EXPECT_EQ(a.final_residual, b.final_residual) << ctx;
  EXPECT_EQ(a.net.table_messages(), b.net.table_messages()) << ctx;
  EXPECT_EQ(a.net.total_bytes(), b.net.total_bytes()) << ctx;
  EXPECT_EQ(a.counters.async_steps.load(), b.counters.async_steps.load())
      << ctx;
  EXPECT_EQ(a.counters.async_refreshes.load(),
            b.counters.async_refreshes.load())
      << ctx;
  EXPECT_EQ(a.counters.async_invalidations.load(),
            b.counters.async_invalidations.load())
      << ctx;
  EXPECT_EQ(a.counters.async_throttles.load(),
            b.counters.async_throttles.load())
      << ctx;
  EXPECT_EQ(a.counters.diffs_created.load(), b.counters.diffs_created.load())
      << ctx;
  EXPECT_EQ(a.counters.updates_applied.load(),
            b.counters.updates_applied.load())
      << ctx;
  EXPECT_EQ(a.counters.pages_fetched.load(), b.counters.pages_fetched.load())
      << ctx;
}

std::string proto_name(ProtocolKind kind) {
  return std::string(protocols::to_string(kind));
}

// Clean async runs actually converge (checksum 1.0 = every node reached
// the fixed point within tolerance) and actually iterate asynchronously --
// a silent fallback to the barrier loop would vacuously pass the
// determinism checks below.
TEST(AsyncConformanceTest, CleanRunsConverge) {
  for (const char* app : kApps) {
    for (const ProtocolKind protocol : kProtocols) {
      RunSpec spec;
      spec.app = app;
      spec.protocol = protocol;
      const harness::RunResult r = run_one(spec);
      const std::string ctx = std::string(app) + " under " +
                              proto_name(protocol);
      EXPECT_EQ(r.checksum, 1.0) << ctx;
      EXPECT_GT(r.counters.async_steps.load(), 0u) << ctx;
      EXPECT_GT(r.app_iterations, 0u) << ctx;
      EXPECT_LE(r.final_residual, 1e-6) << ctx;
    }
  }
}

// Bit-identical across every worker count: the async scheduler's event
// order is a pure function of the virtual clocks, never of how many OS
// threads multiplex the node fibers. workers > nodes exercises the clamp;
// workers < nodes exercises multi-node workers.
TEST(AsyncConformanceTest, WorkerCountsAgree) {
  for (const char* app : kApps) {
    for (const ProtocolKind protocol : kProtocols) {
      RunSpec base;
      base.app = app;
      base.protocol = protocol;
      base.workers = 1;
      const harness::RunResult one = run_one(base);
      for (const int workers : {2, 3, 4, 16}) {
        RunSpec spec = base;
        spec.workers = workers;
        expect_identical(one, run_one(spec),
                         std::string(app) + " under " + proto_name(protocol) +
                             " workers " + std::to_string(workers));
      }
    }
  }
}

// The straggler battery: under every seeded fault plan the run still
// converges to the same tolerance (stale reads heal within the bound; the
// detector tolerates silent settled nodes), and the entire run -- fault
// decisions included -- is bit-identical across worker counts.
TEST(AsyncConformanceTest, FaultPlansConvergeAndAgree) {
  const int plans = plan_count();
  for (const char* app : kApps) {
    for (const ProtocolKind protocol : kProtocols) {
      for (int i = 0; i < plans; ++i) {
        RunSpec spec;
        spec.app = app;
        spec.protocol = protocol;
        spec.plan = make_plan(i);
        spec.fault_seed = 3000u + static_cast<std::uint64_t>(i);
        spec.workers = 1;
        const std::string ctx = std::string(app) + " under " +
                                proto_name(protocol) + " plan " +
                                std::to_string(i) + " [" + spec.plan + "]";
        const harness::RunResult faulty = run_one(spec);
        EXPECT_EQ(faulty.checksum, 1.0) << ctx;
        // final_residual is the worst drain-sweep reading: after sticky
        // global convergence a node's last sweep can be jolted slightly
        // above tolerance by a neighbor's late publish. The convergence
        // criterion proper (windowed detector verdict on every node) is
        // the checksum above; the drain reading just has to stay in the
        // same decade.
        EXPECT_LE(faulty.final_residual, 1e-5) << ctx;

        RunSpec other = spec;
        other.workers = 3;
        expect_identical(faulty, run_one(other), ctx + " (worker cross-check)");
      }
    }
  }
}

// Same seed, same plan => same run; different seed => the plan actually
// bites differently (iteration counts or message census move). Guards
// against a fault stream that silently ignores the seed.
TEST(AsyncConformanceTest, FaultSeedIsLoadBearing) {
  RunSpec spec;
  spec.plan = "drop=0.3";
  spec.fault_seed = 41;
  const harness::RunResult a = run_one(spec);
  const harness::RunResult again = run_one(spec);
  expect_identical(a, again, "same seed replay");

  RunSpec reseeded = spec;
  reseeded.fault_seed = 42;
  const harness::RunResult b = run_one(reseeded);
  EXPECT_EQ(b.checksum, 1.0);
  EXPECT_TRUE(a.elapsed != b.elapsed ||
              a.net.table_messages() != b.net.table_messages() ||
              a.counters.async_refreshes.load() !=
                  b.counters.async_refreshes.load())
      << "different fault seeds produced identical runs";
}

// The staleness bound is part of the configuration: tightening it to 0
// (always-fresh reads) must still converge, and under loss it must change
// the refresh traffic, not the outcome.
TEST(AsyncConformanceTest, StalenessBoundNeverChangesOutcome) {
  for (const int bound : {0, 1, 8}) {
    RunSpec spec;
    spec.plan = "drop=0.3";
    spec.fault_seed = 7;
    apps::AppParams params;
    params.scale = 0.1;
    dsm::ClusterConfig cfg;
    cfg.num_nodes = 4;
    cfg.gang = GangMode::Async;
    cfg.staleness_bound = bound;
    cfg.faults = sim::FaultSpec::parse(spec.plan);
    cfg.fault_seed = spec.fault_seed;
    const harness::RunResult r =
        harness::run_app("jacobi-async", ProtocolKind::AsyncU, cfg, params);
    EXPECT_EQ(r.checksum, 1.0) << "staleness bound " << bound;
    EXPECT_LE(r.final_residual, 1e-5) << "staleness bound " << bound;
  }
}

}  // namespace
}  // namespace updsm
