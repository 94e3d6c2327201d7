// Application-framework tests: the registry, scaling rules, determinism of
// checksums across node counts, and the framework's run() skeleton.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "updsm/apps/application.hpp"
#include "updsm/apps/grid.hpp"
#include "updsm/apps/jacobi.hpp"
#include "updsm/apps/registry.hpp"
#include "updsm/harness/experiment.hpp"

namespace updsm::apps {
namespace {

TEST(RegistryTest, AllPaperAppsByName) {
  const AppParams params;
  const auto names = app_names();
  ASSERT_EQ(names.size(), 8u);  // the paper's Table-1 suite
  for (const auto name : names) {
    auto app = make_app(name, params);
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->name(), name);
  }
  EXPECT_THROW((void)make_app("nosuch", params), UsageError);
}

TEST(RegistryTest, OnlyBarnesIsOverdriveUnsafe) {
  const AppParams params;
  for (const auto name : app_names()) {
    const bool safe = make_app(name, params)->overdrive_safe();
    EXPECT_EQ(safe, name != "barnes") << name;
  }
}

TEST(ScaledDimTest, RespectsMultipleAndMinimum) {
  EXPECT_EQ(scaled_dim(512, 1.0, 16), 512u);
  EXPECT_EQ(scaled_dim(512, 0.25, 16), 128u);
  EXPECT_EQ(scaled_dim(512, 0.01, 16), 16u);  // clamped to the multiple
  EXPECT_EQ(scaled_dim(100, 1.0, 16), 96u);   // rounded down to multiple
}

TEST(BlockRangeTest, PartitionsExactly) {
  for (const std::size_t n : {1u, 7u, 64u, 100u, 1000u}) {
    for (const int parts : {1, 2, 3, 8, 16}) {
      std::size_t covered = 0;
      std::size_t prev_hi = 0;
      for (int k = 0; k < parts; ++k) {
        const Range r = block_range(n, parts, k);
        EXPECT_EQ(r.lo, prev_hi);
        prev_hi = r.hi;
        covered += r.size();
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_hi, n);
    }
  }
}

// Each app's checksum must be identical at 1, 2 and 8 nodes: the paper's
// methodology depends on the parallel runs computing the sequential answer.
class AppNodeSweepTest
    : public ::testing::TestWithParam<std::string_view> {};

TEST_P(AppNodeSweepTest, ChecksumInvariantAcrossNodeCounts) {
  AppParams params;
  params.scale = 0.25;
  params.warmup_iterations = 5;
  params.measured_iterations = 2;
  dsm::ClusterConfig cfg;

  const auto seq = harness::run_sequential(GetParam(), cfg, params);
  for (const int nodes : {2, 8}) {
    cfg.num_nodes = nodes;
    const auto par = harness::run_app(GetParam(),
                                      protocols::ProtocolKind::BarU, cfg,
                                      params);
    EXPECT_EQ(par.checksum, seq.checksum)
        << GetParam() << " at " << nodes << " nodes";
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppNodeSweepTest,
                         ::testing::ValuesIn(app_names()),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(AppFrameworkTest, RunsExpectedBarrierStructure) {
  // sor: 1 init barrier + 2 barriers for each of the 5 time-steps + 1
  // end-of-measurement barrier + 1 post-checksum barrier.
  AppParams params;
  params.scale = 0.1;
  params.warmup_iterations = 2;
  params.measured_iterations = 3;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 4;
  const auto run = harness::run_app("sor", protocols::ProtocolKind::LmwI,
                                    cfg, params);
  EXPECT_EQ(run.barriers, 1u + 5u * 2u + 1u + 1u);
}

// Parameters that would run but report a silently wrong number are
// rejected up front, by every app, with the offending field named.
TEST(AppFrameworkTest, RejectsParamsThatYieldSilentWrongNumbers) {
  struct Bad {
    const char* field;
    void (*apply)(AppParams&);
  };
  const Bad cases[] = {
      {"measured_iterations", [](AppParams& p) { p.measured_iterations = 0; }},
      {"measured_iterations", [](AppParams& p) { p.measured_iterations = -3; }},
      {"warmup_iterations", [](AppParams& p) { p.warmup_iterations = -1; }},
      {"scale", [](AppParams& p) { p.scale = -1.0; }},
      {"scale", [](AppParams& p) { p.scale = 0.0; }},
      {"scale", [](AppParams& p) { p.scale = std::nan(""); }},
      {"scale", [](AppParams& p) { p.scale = HUGE_VAL; }},
  };
  for (const Bad& bad : cases) {
    AppParams params;
    bad.apply(params);
    for (const auto name : app_names()) {
      try {
        (void)make_app(name, params);
        ADD_FAILURE() << name << " accepted a bad " << bad.field;
      } catch (const UsageError& e) {
        EXPECT_NE(std::string(e.what()).find(bad.field), std::string::npos)
            << e.what();
      }
    }
  }
  AppParams edge;
  edge.warmup_iterations = 0;
  edge.measured_iterations = 1;
  EXPECT_NO_THROW(validate_app_params(edge)) << "the smallest valid window";
}

TEST(AppFrameworkTest, ShalIsFinerGrainedThanItsBarrierTwin) {
  AppParams params;
  params.scale = 0.1;
  params.warmup_iterations = 1;
  params.measured_iterations = 1;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 2;
  const auto shal = harness::run_app("shal", protocols::ProtocolKind::LmwI,
                                     cfg, params);
  const auto swm = harness::run_app("swm", protocols::ProtocolKind::LmwI,
                                    cfg, params);
  EXPECT_GT(swm.barriers, shal.barriers)
      << "swm is the fine-synchronization-granularity variant";
}

TEST(AppFrameworkTest, SharedSegmentsMatchPaperScaleExpectations) {
  const AppParams params;  // scale 1.0
  for (const auto name : app_names()) {
    auto app = make_app(name, params);
    mem::SharedHeap heap(8192);
    app->allocate(heap);
    // Every paper app's shared segment sits in the hundreds-of-KB to
    // tens-of-MB band that stresses (or intentionally avoids stressing)
    // the VM layer.
    EXPECT_GE(heap.bytes_used(), 256u * 1024) << name;
    EXPECT_LE(heap.bytes_used(), 64u * 1024 * 1024) << name;
  }
}

TEST(AppFrameworkTest, JacobiResidualDecreases) {
  AppParams params;
  params.scale = 0.1;
  params.warmup_iterations = 2;
  params.measured_iterations = 8;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 1;
  auto app = make_app("jacobi", params);
  mem::SharedHeap heap(cfg.page_size);
  app->allocate(heap);
  dsm::Cluster cluster(cfg, heap,
                       protocols::make_protocol(protocols::ProtocolKind::Null));
  cluster.run([&](dsm::NodeContext& ctx) { app->run(ctx); });
  auto* jacobi = dynamic_cast<JacobiApp*>(app.get());
  ASSERT_NE(jacobi, nullptr);
  EXPECT_GT(jacobi->last_residual(), 0.0);
  EXPECT_LT(jacobi->last_residual(), 4.0)
      << "the solve must be converging, not diverging";
}

}  // namespace
}  // namespace updsm::apps
