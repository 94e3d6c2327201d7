// Determinism contract of the parallel experiment engine: a grid run on N
// workers must be indistinguishable, cell for cell, from the same grid run
// serially -- results are keyed by grid index, and each cell is an
// independent bit-deterministic simulation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "updsm/harness/parallel_grid.hpp"

namespace updsm {
namespace {

using protocols::ProtocolKind;

apps::AppParams tiny_params() {
  apps::AppParams p;
  p.scale = 0.15;
  p.warmup_iterations = 2;
  p.measured_iterations = 2;
  p.seed = 42;
  return p;
}

dsm::ClusterConfig tiny_config() {
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 4;
  return cfg;
}

std::vector<std::function<harness::RunResult()>> small_grid_tasks() {
  std::vector<std::function<harness::RunResult()>> tasks;
  for (const char* app : {"jacobi", "sor"}) {
    for (const ProtocolKind kind : {ProtocolKind::LmwI, ProtocolKind::BarU}) {
      tasks.push_back([app, kind] {
        return harness::run_app(app, kind, tiny_config(), tiny_params());
      });
    }
    tasks.push_back([app] {
      return harness::run_sequential(app, tiny_config(), tiny_params());
    });
  }
  return tasks;
}

TEST(ParallelGridTest, JobsOneMatchesJobsFourPerCell) {
  const auto serial = harness::run_grid(small_grid_tasks(), 1);
  const auto parallel = harness::run_grid(small_grid_tasks(), 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial[i];
    const auto& b = parallel[i];
    EXPECT_EQ(a.app, b.app) << "cell " << i;
    EXPECT_EQ(a.protocol, b.protocol) << "cell " << i;
    EXPECT_EQ(a.checksum, b.checksum) << "cell " << i;
    EXPECT_EQ(a.elapsed, b.elapsed) << "cell " << i;
    EXPECT_EQ(a.barriers, b.barriers) << "cell " << i;
    EXPECT_EQ(a.counters.diffs_created, b.counters.diffs_created)
        << "cell " << i;
    EXPECT_EQ(a.counters.zero_diffs, b.counters.zero_diffs) << "cell " << i;
    EXPECT_EQ(a.counters.remote_misses, b.counters.remote_misses)
        << "cell " << i;
    EXPECT_EQ(a.counters.updates_sent, b.counters.updates_sent)
        << "cell " << i;
    EXPECT_EQ(a.net.table_messages(), b.net.table_messages()) << "cell " << i;
    EXPECT_EQ(a.net.total_bytes(), b.net.total_bytes()) << "cell " << i;
  }
}

TEST(ParallelGridTest, ResultsLandAtTheirGridIndex) {
  // More workers than tasks, and tasks of uneven cost: completion order is
  // arbitrary, collection order must not be.
  const auto results = harness::run_grid(small_grid_tasks(), 16);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].app, "jacobi");
  EXPECT_EQ(results[0].protocol, "lmw-i");
  EXPECT_EQ(results[1].protocol, "bar-u");
  EXPECT_EQ(results[2].nodes, 1);  // sequential baseline
  EXPECT_EQ(results[3].app, "sor");
  EXPECT_EQ(results[5].nodes, 1);
}

TEST(ParallelGridTest, FirstTaskExceptionPropagates) {
  std::vector<std::function<harness::RunResult()>> tasks;
  tasks.push_back([] {
    return harness::run_app("jacobi", ProtocolKind::BarI, tiny_config(),
                            tiny_params());
  });
  tasks.push_back([]() -> harness::RunResult {
    throw std::runtime_error("cell exploded");
  });
  EXPECT_THROW((void)harness::run_grid(tasks, 4), std::runtime_error);
  EXPECT_THROW((void)harness::run_grid(tasks, 1), std::runtime_error);
}

TEST(ParallelGridTest, DefaultJobsIsPositive) {
  EXPECT_GE(harness::default_jobs(), 1);
}

}  // namespace
}  // namespace updsm
