// The bench sweep runner (bench/bench_common.hpp): every planned run is
// checked against its declared sequential baseline before any result is
// returned, results land by plan index whatever the job count, and a
// RunCache serves only the cells it planned.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bench_common.hpp"
#include "conformance.hpp"

namespace {

using updsm::bench::BenchOptions;
using updsm::bench::RunCache;
using updsm::bench::Sweep;
using updsm::protocols::ProtocolKind;

BenchOptions tiny_options(int jobs) {
  BenchOptions opt;
  opt.app.scale = 0.15;
  opt.app.warmup_iterations = 2;
  opt.app.measured_iterations = 2;
  opt.cluster.num_nodes = 4;
  opt.jobs = jobs;
  return opt;
}

TEST(SweepTest, ADivergentRunExitsNamingIt) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const BenchOptions opt = tiny_options(1);
  const auto cfg = opt.cluster_config();
  EXPECT_EXIT(
      {
        Sweep sweep(opt);
        const Sweep::Index jacobi = sweep.plan_sequential("jacobi", cfg);
        sweep.plan("sor", ProtocolKind::BarU, cfg, jacobi);
        (void)sweep.run();
      },
      ::testing::ExitedWithCode(1),
      "FATAL: sor under bar-u at 4 nodes diverged");
}

/// A small mixed plan: baselines, checked runs on two cluster sizes and a
/// self-checked async run, planned out of app order.
std::vector<updsm::harness::RunResult> run_mixed_plan(
    int jobs, std::vector<Sweep::Index>& order) {
  const BenchOptions opt = tiny_options(jobs);
  const auto cfg = opt.cluster_config();
  auto two_nodes = cfg;
  two_nodes.num_nodes = 2;
  auto async = cfg;
  async.gang = updsm::sim::GangMode::Async;
  Sweep sweep(opt);
  const Sweep::Index sor = sweep.plan_sequential("sor", cfg);
  const Sweep::Index jacobi = sweep.plan_sequential("jacobi", cfg);
  order = {sor,
           jacobi,
           sweep.plan("jacobi", ProtocolKind::BarU, cfg, jacobi),
           sweep.plan("sor", ProtocolKind::LmwI, two_nodes, sor),
           sweep.plan_self_checked("jacobi-async", ProtocolKind::AsyncU,
                                   async),
           sweep.plan("jacobi", ProtocolKind::LmwU, two_nodes, jacobi)};
  return sweep.run();
}

TEST(SweepTest, ResultsLandByPlanIndexAtAnyJobCount) {
  std::vector<Sweep::Index> order;
  const auto serial = run_mixed_plan(1, order);
  ASSERT_EQ(order, (std::vector<Sweep::Index>{0, 1, 2, 3, 4, 5}));
  const auto pooled = run_mixed_plan(4, order);
  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(pooled.size(), 6u);
  const char* apps[] = {"sor", "jacobi", "jacobi", "sor", "jacobi-async",
                        "jacobi"};
  const char* protocols[] = {"null", "null", "bar-u", "lmw-i", "async-u",
                             "lmw-u"};
  const int nodes[] = {1, 1, 4, 2, 4, 2};
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].app, apps[i]) << "run " << i;
    EXPECT_EQ(serial[i].protocol, protocols[i]) << "run " << i;
    EXPECT_EQ(serial[i].nodes, nodes[i]) << "run " << i;
    updsm::conformance::expect_same_run(pooled[i], serial[i],
                                        "run " + std::to_string(i));
  }
  EXPECT_EQ(serial[2].checksum, serial[1].checksum);
  EXPECT_EQ(serial[3].checksum, serial[0].checksum);
  EXPECT_EQ(serial[4].checksum, 1.0);  // converged
}

TEST(SweepTest, RunCacheServesOnlyPlannedCells) {
  const RunCache cache(tiny_options(2), {{"jacobi", ProtocolKind::BarU},
                                         {"jacobi", ProtocolKind::LmwI}});
  EXPECT_EQ(cache.parallel("jacobi", ProtocolKind::BarU).checksum,
            cache.sequential("jacobi").checksum);
  EXPECT_GT(cache.speedup("jacobi", ProtocolKind::LmwI), 0.0);
  EXPECT_THROW((void)cache.parallel("jacobi", ProtocolKind::BarM),
               std::out_of_range);
  EXPECT_THROW((void)cache.parallel("sor", ProtocolKind::BarU),
               std::out_of_range);
  EXPECT_THROW((void)cache.sequential("sor"), std::out_of_range);
}

}  // namespace
