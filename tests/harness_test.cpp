// Tests for the harness: report formatting and the experiment runner's
// aggregate guarantees (the invariants the benches' claims rest on).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "updsm/harness/experiment.hpp"
#include "updsm/harness/report.hpp"

namespace updsm::harness {
namespace {

TEST(TextTableTest, AlignsAndBoxes) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1.50"});
  table.add_row({"much-longer-name", "23"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| alpha"), std::string::npos);
  EXPECT_NE(out.find("much-longer-name"), std::string::npos);
  EXPECT_NE(out.find("+--"), std::string::npos);
  // Numeric cells right-align: "  1.50" not "1.50  ".
  EXPECT_NE(out.find(" 1.50 |"), std::string::npos);
}

TEST(TextTableTest, RejectsRaggedRows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), UsageError);
}

TEST(FmtTest, FormatsWithDigits) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt(10.0, 0), "10");
}

TEST(BarChartTest, RendersSeriesPerGroup) {
  std::ostringstream os;
  print_bar_chart(os, "Title", {"g1", "g2"}, {"s1", "s2"},
                  {{1.0, 2.0}, {3.0, 4.0}}, 4.0, 8);
  const std::string out = os.str();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("g1"), std::string::npos);
  EXPECT_NE(out.find("s2"), std::string::npos);
  EXPECT_NE(out.find("########"), std::string::npos);  // 4.0 of 4.0, width 8
}

TEST(BarChartTest, RejectsMismatchedShapes) {
  std::ostringstream os;
  EXPECT_THROW(
      print_bar_chart(os, "t", {"g"}, {"s1", "s2"}, {{1.0}}, 1.0, 8),
      UsageError);
}

TEST(ExperimentTest, SequentialBaselineHasNoProtocolActivity) {
  apps::AppParams params;
  params.scale = 0.1;
  params.warmup_iterations = 1;
  params.measured_iterations = 2;
  const dsm::ClusterConfig cfg;
  const auto seq = run_sequential("sor", cfg, params);
  EXPECT_EQ(seq.nodes, 1);
  EXPECT_EQ(seq.counters.remote_misses, 0u);
  EXPECT_EQ(seq.counters.diffs_created, 0u);
  EXPECT_EQ(seq.net.total_one_way_messages(), 0u);
  EXPECT_GT(seq.elapsed, 0);
}

TEST(ExperimentTest, SequentialBaselineRunsOnOneWorker) {
  // The 1-node baseline runs on one worker whatever the caller's parallel
  // runs use, so it must not warn about clamping their worker count.
  apps::AppParams params;
  params.scale = 0.1;
  params.warmup_iterations = 1;
  params.measured_iterations = 2;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.workers = 4;
  testing::internal::CaptureStderr();
  const auto seq = run_sequential("sor", cfg, params);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(seq.nodes, 1);
  EXPECT_EQ(err.find("clamping"), std::string::npos) << err;
}

TEST(ExperimentTest, ParallelBeatsSequentialOnAStencil) {
  apps::AppParams params;
  params.scale = 0.5;
  params.warmup_iterations = 5;
  params.measured_iterations = 4;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 8;
  const auto seq = run_sequential("sor", cfg, params);
  const auto par = run_app("sor", protocols::ProtocolKind::BarU, cfg, params);
  const double s = speedup(par, seq);
  EXPECT_GT(s, 2.0) << "an embarrassingly regular stencil must scale";
  EXPECT_LE(s, 8.0) << "no super-linear speedups in this model";
}

TEST(ExperimentTest, ElapsedScalesWithMeasuredIterations) {
  apps::AppParams base;
  base.scale = 0.25;
  base.warmup_iterations = 5;
  base.measured_iterations = 3;
  apps::AppParams longer = base;
  longer.measured_iterations = 9;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 4;
  const auto a = run_app("expl", protocols::ProtocolKind::BarU, cfg, base);
  const auto b = run_app("expl", protocols::ProtocolKind::BarU, cfg, longer);
  const double ratio = static_cast<double>(b.elapsed) /
                       static_cast<double>(a.elapsed);
  EXPECT_NEAR(ratio, 3.0, 0.45) << "steady state: time ~ iterations";
}

TEST(HotPagesTest, AttributesEventsToAllocations) {
  apps::AppParams params;
  params.scale = 0.25;
  params.warmup_iterations = 3;
  params.measured_iterations = 2;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 4;
  const auto run = run_app("jacobi", protocols::ProtocolKind::BarI, cfg,
                           params);
  const auto hot = hottest_pages(run, 5);
  ASSERT_FALSE(hot.empty());
  // Ordered by activity, attributed to jacobi's named arrays.
  for (std::size_t i = 1; i < hot.size(); ++i) {
    EXPECT_GE(hot[i - 1].stats.total(), hot[i].stats.total());
  }
  for (const auto& page : hot) {
    EXPECT_TRUE(page.allocation == "jacobi.cur" ||
                page.allocation == "jacobi.next")
        << page.allocation;
    EXPECT_GT(page.stats.total(), 0u);
  }
  // Asking for more pages than were ever touched is fine.
  EXPECT_LE(hottest_pages(run, 100000).size(), run.page_stats.size());
}

}  // namespace
}  // namespace updsm::harness
