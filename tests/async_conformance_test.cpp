// Async-gang conformance: barrier-free iteration must stay a deterministic
// discrete-event simulation. Under GangMode::Async exactly one node runs at
// a time, picked by minimum virtual clock, so every observable -- the
// converged flag, virtual time, message census, protocol counters, sweep
// counts -- must be a pure function of (workload, config), unchanged by a
// worker request (the async gang runs every node on the calling thread)
// and by host scheduling. This drives both async stencils under both
// async protocols and a battery of seeded fault plans (drops, dups,
// delays, stalls -- the straggler-conformance grid), and additionally
// requires every faulty run to still CONVERGE: stale-tolerant reads plus
// the staleness refresh must heal arbitrary bounded loss.
#include <gtest/gtest.h>

#include <string>

#include "conformance.hpp"

namespace updsm {
namespace {

using conformance::RunSpec;
using protocols::ProtocolKind;
using sim::GangMode;

constexpr const char* kApps[] = {"jacobi-async", "sor-async"};
constexpr ProtocolKind kProtocols[] = {ProtocolKind::AsyncU,
                                       ProtocolKind::AsyncI};
constexpr std::uint64_t kSalt = 3000;

RunSpec async_run(const char* app, ProtocolKind protocol) {
  RunSpec spec;
  spec.app = app;
  spec.protocol = protocol;
  spec.gang = GangMode::Async;
  spec.staleness_bound = 2;
  return spec;
}

// Clean async runs actually converge (checksum 1.0 = every node reached
// the fixed point within tolerance) and actually iterate asynchronously --
// a silent fallback to the barrier loop would vacuously pass the
// determinism checks below.
TEST(AsyncConformanceTest, CleanRunsConverge) {
  for (const char* app : kApps) {
    for (const ProtocolKind protocol : kProtocols) {
      const RunSpec spec = async_run(app, protocol);
      const harness::RunResult r = conformance::run(spec);
      const std::string ctx = spec.replay();
      EXPECT_EQ(r.checksum, 1.0) << ctx;
      EXPECT_GT(r.counters.async_steps.load(), 0u) << ctx;
      EXPECT_GT(r.app_iterations, 0u) << ctx;
      EXPECT_LE(r.final_residual, 1e-6) << ctx;
    }
  }
}

// A worker request cannot reach an async run: the async scheduler's event
// order is a pure function of the virtual clocks, and the gang runs every
// node on the calling thread whatever `workers` asks (16 is above the node
// count, which the parallel gang would clamp).
TEST(AsyncConformanceTest, WorkerCountsAgree) {
  for (const char* app : kApps) {
    for (const ProtocolKind protocol : kProtocols) {
      RunSpec spec = async_run(app, protocol);
      spec.workers = 1;
      const harness::RunResult one = conformance::run(spec);
      spec.workers = 16;
      conformance::expect_same_run(one, conformance::run(spec),
                                   spec.replay() + " vs --workers=1");
    }
  }
}

// The straggler battery: under every seeded fault plan the run still
// converges to the same tolerance (stale reads heal within the bound; the
// detector tolerates silent settled nodes), and the entire run -- fault
// decisions included -- replays bit-identically under another worker
// request.
TEST(AsyncConformanceTest, FaultPlansConvergeAndAgree) {
  conformance::Battery battery(kSalt);
  for (const char* app : kApps) {
    for (const ProtocolKind protocol : kProtocols) {
      RunSpec spec = async_run(app, protocol);
      const harness::RunResult clean = conformance::run(spec);
      for (int i = 0; i < conformance::kAsyncPlans; ++i) {
        const conformance::Plan plan = battery.plan(i, clean.net);
        spec.plan = plan.text;
        spec.fault_seed = 3000u + static_cast<std::uint64_t>(i);
        spec.workers = 1;
        const harness::RunResult faulty = conformance::run(spec);
        const std::string ctx = spec.replay();
        battery.record(plan, faulty);
        EXPECT_EQ(faulty.checksum, 1.0) << ctx;
        // final_residual is the worst drain-sweep reading: after sticky
        // global convergence a node's last sweep can be jolted slightly
        // above tolerance by a neighbor's late publish. The convergence
        // criterion proper (windowed detector verdict on every node) is
        // the checksum above; the drain reading just has to stay in the
        // same decade.
        EXPECT_LE(faulty.final_residual, 1e-5) << ctx;

        spec.workers = 3;
        conformance::expect_same_run(faulty, conformance::run(spec),
                                     spec.replay() + " vs --workers=1");
      }
    }
  }
  // async-u's update pushes ride aggregated batches.
  battery.expect_hit({sim::MsgKind::FlushBatch});
}

// Same seed, same plan => same run; different seed => the plan actually
// bites differently (iteration counts or message census move). Guards
// against a fault stream that silently ignores the seed.
TEST(AsyncConformanceTest, FaultSeedIsLoadBearing) {
  RunSpec spec = async_run("jacobi-async", ProtocolKind::AsyncU);
  spec.plan = "drop=0.3";
  spec.fault_seed = 41;
  const harness::RunResult a = conformance::run(spec);
  conformance::expect_same_run(a, conformance::run(spec),
                               spec.replay() + " replayed");

  spec.fault_seed = 42;
  const harness::RunResult b = conformance::run(spec);
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
    RunSpec spec = async_run("jacobi-async", ProtocolKind::AsyncU);
    spec.staleness_bound = bound;
    spec.plan = "drop=0.3";
    spec.fault_seed = 7;
    const harness::RunResult r = conformance::run(spec);
    EXPECT_EQ(r.checksum, 1.0) << spec.replay();
    EXPECT_LE(r.final_residual, 1e-5) << spec.replay();
  }
}

}  // namespace
}  // namespace updsm
