// Bit-determinism and regression pinning.
//
// Every run of the simulator is a pure function of its configuration: the
// same seed must produce the same virtual times, counters and traffic down
// to the last unit. The golden test pins one scenario's exact outcome so
// that unintended behavioural drift (a miscounted message, a double-charged
// trap) is caught immediately; intentional cost-model changes update the
// constants knowingly.
#include <gtest/gtest.h>

#include "conformance.hpp"

namespace updsm {
namespace {

using protocols::ProtocolKind;

harness::RunResult run_fixture(ProtocolKind kind, std::uint64_t seed) {
  apps::AppParams params;
  params.scale = 0.25;
  params.warmup_iterations = 5;
  params.measured_iterations = 4;
  params.seed = seed;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 8;
  return harness::run_app("expl", kind, cfg, params);
}

TEST(DeterminismTest, IdenticalRunsAreBitIdentical) {
  for (const auto kind :
       {ProtocolKind::LmwU, ProtocolKind::BarU, ProtocolKind::BarM}) {
    conformance::expect_same_run(run_fixture(kind, 42), run_fixture(kind, 42),
                                 protocols::to_string(kind));
  }
}

TEST(DeterminismTest, SeedChangesDataNotStructure) {
  const auto a = run_fixture(ProtocolKind::BarU, 1);
  const auto b = run_fixture(ProtocolKind::BarU, 2);
  // expl's initial field does not depend on the seed, and nothing in the
  // simulator does either: structure identical.
  EXPECT_EQ(a.counters.diffs_created, b.counters.diffs_created);
  EXPECT_EQ(a.net.table_messages(), b.net.table_messages());
}

TEST(DeterminismTest, LossyRunsAreSeedDeterministic) {
  apps::AppParams params;
  params.scale = 0.2;
  params.warmup_iterations = 3;
  params.measured_iterations = 3;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.faults = sim::FaultSpec::parse("kind=flushbatch,drop=0.3");
  cfg.fault_seed = 7;
  conformance::expect_same_run(
      harness::run_app("sor", ProtocolKind::BarU, cfg, params),
      harness::run_app("sor", ProtocolKind::BarU, cfg, params),
      "lossy sor under bar-u");
}

// A coarse regression pin: exact counters would churn with every cost
// recalibration, so pin the *count* invariants (cost-independent) exactly
// and the time coarsely.
TEST(DeterminismTest, ExplFixtureStructuralPin) {
  const auto run = run_fixture(ProtocolKind::BarU, 42);
  // 4 measured iterations, 2 epochs each; expl at scale 0.25 has
  // 122 interior rows over 8 nodes with 1 KB rows (8 rows/page).
  EXPECT_EQ(run.barriers, 21u);  // init + 9*2 iters + end + checksum
  EXPECT_EQ(run.counters.remote_misses, 0u)
      << "updates must eliminate steady-state misses for expl";
  EXPECT_GT(run.counters.diffs_created, 0u);
  EXPECT_EQ(run.counters.migrations, 0u)
      << "expl writes where the initial homes already are... or migrates "
         "deterministically";
  EXPECT_EQ(run.checksum, run_fixture(ProtocolKind::LmwI, 42).checksum);
}

}  // namespace
}  // namespace updsm
