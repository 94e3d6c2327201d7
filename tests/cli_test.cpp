// The shared command-line front end (harness/cli.hpp): every table flag
// sets its field, flags apply left to right, and unknown, refused or
// malformed flags fail with an error that names the flag.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "updsm/common/error.hpp"
#include "updsm/harness/cli.hpp"

namespace {

using updsm::UsageError;
using updsm::bench::BenchOptions;
using updsm::harness::CommandLine;
using updsm::harness::parse_flags;
using updsm::harness::RunOptions;

/// Parses `args` as the command line of a tool called "tool".
bool parse(RunOptions& opt, std::vector<std::string> args,
           const CommandLine& cli = {}) {
  args.insert(args.begin(), "tool");
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  return parse_flags(static_cast<int>(argv.size()), argv.data(), opt, cli);
}

/// The UsageError message parsing `args` throws ("" if none is thrown).
std::string error_of(std::vector<std::string> args,
                     const CommandLine& cli = {}) {
  RunOptions opt;
  try {
    (void)parse(opt, std::move(args), cli);
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(CliTest, EachTableFlagSetsItsField) {
  const std::string spec_path = ::testing::TempDir() + "cli_test_faults.txt";
  std::FILE* spec = std::fopen(spec_path.c_str(), "w");
  ASSERT_NE(spec, nullptr);
  std::fputs("kind=flushbatch,drop=0.3", spec);
  std::fclose(spec);

  RunOptions opt;
  ASSERT_TRUE(parse(
      opt, {"--nodes=16", "--scale=0.5", "--warmup=4", "--iters=3",
            "--seed=0x1234", "--page-size=4096", "--gang=baton",
            "--workers=2", "--fanout=4", "--relay-threshold=8",
            "--net-profile=rdma", "--cost=net.per_message_us=5",
            "--adaptive-window=8",
            "--faults=" + spec_path, "--fault-seed=9", "--no-migration",
            "--staleness=2", "--tolerance=1e-5"}));
  std::remove(spec_path.c_str());
  EXPECT_EQ(opt.app.scale, 0.5);
  EXPECT_EQ(opt.app.warmup_iterations, 4);
  EXPECT_EQ(opt.app.measured_iterations, 3);
  EXPECT_EQ(opt.app.seed, 0x1234u);
  EXPECT_EQ(opt.cost_overrides,
            std::vector<std::string>{"net.per_message_us=5"});
  const auto cfg = opt.cluster_config();
  EXPECT_EQ(cfg.num_nodes, 16);
  EXPECT_EQ(cfg.page_size, 4096u);
  EXPECT_EQ(cfg.gang, updsm::sim::GangMode::Baton);
  EXPECT_EQ(cfg.workers, 2);
  EXPECT_EQ(cfg.barrier_fanout, 4);
  EXPECT_EQ(cfg.relay_threshold, 8);
  EXPECT_EQ(cfg.net_profile, "rdma");
  EXPECT_EQ(cfg.costs.net.per_message, updsm::sim::usec(5));
  EXPECT_EQ(cfg.costs.net.per_byte_ns,
            updsm::sim::CostModel::rdma_defaults().net.per_byte_ns);
  EXPECT_EQ(cfg.adaptive_window, 8);
  EXPECT_EQ(cfg.faults,
            updsm::sim::FaultSpec::parse("kind=flushbatch,drop=0.3"));
  EXPECT_EQ(cfg.fault_seed, 9u);
  EXPECT_FALSE(cfg.home_migration);
  EXPECT_EQ(cfg.staleness_bound, 2);
  EXPECT_EQ(cfg.async_tolerance, 1e-5);
}

TEST(CliTest, ValuesKeepTheirUsualMeaning) {
  RunOptions opt;
  ASSERT_TRUE(parse(opt, {"--seed=010", "--fault-seed=18446744073709551615",
                          "--scale=2.5e-1", "--faults=drop=0.1"}));
  EXPECT_EQ(opt.app.seed, 8u);  // strtoull base 0: octal
  EXPECT_EQ(opt.cluster.fault_seed, 18446744073709551615u);
  EXPECT_EQ(opt.app.scale, 0.25);
  EXPECT_EQ(opt.cluster.faults, updsm::sim::FaultSpec::parse("drop=0.1"));
}

TEST(CliTest, FlagsApplyLeftToRight) {
  BenchOptions a;
  ASSERT_TRUE(parse(a, {"--quick", "--scale=0.15"},
                    {.flags = {updsm::bench::quick_flag(a)}}));
  EXPECT_EQ(a.app.scale, 0.15);
  EXPECT_EQ(a.app.measured_iterations, 4);
  BenchOptions b;
  ASSERT_TRUE(parse(b, {"--scale=0.15", "--iters=2", "--quick"},
                    {.flags = {updsm::bench::quick_flag(b)}}));
  EXPECT_EQ(b.app.scale, 0.25);
  EXPECT_EQ(b.app.measured_iterations, 4);
  RunOptions c;
  ASSERT_TRUE(parse(c, {"--nodes=4", "--nodes=32"}));
  EXPECT_EQ(c.cluster.num_nodes, 32);
}

TEST(CliTest, ProfileAndCostComposeInAnyOrder) {
  RunOptions a;
  ASSERT_TRUE(parse(a, {"--cost=net.per_message_us=5", "--net-profile=rdma"}));
  RunOptions b;
  ASSERT_TRUE(parse(b, {"--net-profile=rdma", "--cost=net.per_message_us=5"}));
  EXPECT_EQ(a.cluster_config().costs.net.per_message,
            b.cluster_config().costs.net.per_message);
  EXPECT_EQ(a.cluster_config().costs.net.per_message, updsm::sim::usec(5));
  EXPECT_EQ(a.cluster_config().costs.net.send_trap,
            updsm::sim::CostModel::rdma_defaults().net.send_trap);
}

TEST(CliTest, ToolFlagsParseThroughTheSameLoop) {
  RunOptions opt;
  bool csv = false;
  std::vector<int> list;
  const CommandLine cli{
      .flags = {{"csv", "", "csv", [&](std::string_view) { csv = true; }},
                {"nodes-list", "N,N", "list", [&](std::string_view v) {
                   list = updsm::harness::parse_int_list(v, 1, 1024);
                 }}}};
  ASSERT_TRUE(parse(opt, {"--csv", "--nodes-list=8,64,1024"}, cli));
  EXPECT_TRUE(csv);
  EXPECT_EQ(list, (std::vector<int>{8, 64, 1024}));
  EXPECT_FALSE(parse(opt, {"--help", "--bogus"}, cli));
  EXPECT_FALSE(parse(opt, {"-h"}, cli));
}

TEST(CliTest, UnknownFlagsAreRefused) {
  for (const std::string arg : {"--bogus=1", "--bogus", "--jobs=2", "-n",
                                 "nodes=8", "--", "--=8"}) {
    const std::string err = error_of({arg});
    EXPECT_NE(err.find("unknown flag " + arg), std::string::npos)
        << arg << ": " << err;
  }
}

TEST(CliTest, FlagsAToolSetsItselfAreRefused) {
  const CommandLine cli{.owned = {"nodes", "faults"}};
  for (const std::string arg : {"--nodes=64", "--faults=drop=0.1"}) {
    const std::string err = error_of({arg}, cli);
    const std::string flag = arg.substr(0, arg.find('='));
    EXPECT_NE(err.find(flag), std::string::npos) << err;
    EXPECT_NE(err.find("tool sets " + flag + " itself"), std::string::npos)
        << err;
  }
  EXPECT_EQ(error_of({"--scale=0.5"}, cli), "");
}

TEST(CliTest, MalformedValuesNameTheFlag) {
  int jobs = 0;
  std::vector<int> list;
  const CommandLine cli{
      .flags = {{"jobs", "N", "", [&](std::string_view v) {
                   jobs = updsm::harness::parse_int(v, 1);
                 }},
                {"nodes-list", "N,N", "", [&](std::string_view v) {
                   list = updsm::harness::parse_int_list(v, 1, 1024);
                 }},
                {"workers-list", "M,M", "", [&](std::string_view v) {
                   list = updsm::harness::parse_int_list(v, 1, 1 << 30);
                 }},
                {"csv", "", "", [](std::string_view) {}}}};
  for (const std::string arg :
       {"--fanout=abc", "--fanout=4x", "--nodes=8.9", "--seed=0xZZ",
        "--staleness=x", "--relay-threshold=two", "--scale=0.1abc",
        "--jobs=abc", "--nodes-list=8,x", "--workers-list=1,,2",
        "--nodes=", "--nodes= 8", "--nodes=+8", "--seed=-1", "--seed= 1",
        "--scale=", "--scale= 0.5", "--tolerance=nan", "--gang=fast",
        "--nodes-list=", "--workers-list=1,2,"}) {
    const std::string err = error_of({arg}, cli);
    EXPECT_EQ(err.rfind(arg + ": ", 0), 0u) << arg << ": '" << err << "'";
  }
  EXPECT_NE(error_of({"--nodes"}, cli).find("needs a value, --nodes=N"),
            std::string::npos);
  EXPECT_NE(error_of({"--no-migration=1"}, cli).find("takes no value"),
            std::string::npos);
  EXPECT_NE(error_of({"--csv=yes"}, cli).find("takes no value"),
            std::string::npos);
}

TEST(CliTest, OutOfRangeValuesNameTheFlag) {
  int jobs = 0;
  const CommandLine cli{.flags = {{"jobs", "N", "", [&](std::string_view v) {
                                     jobs = updsm::harness::parse_int(v, 1);
                                   }}}};
  for (const std::string arg :
       {"--nodes=0", "--nodes=2000", "--nodes=99999999999", "--workers=0",
        "--fanout=1", "--relay-threshold=-1",
        "--page-size=1000", "--page-size=32", "--adaptive-window=1",
        "--staleness=-1", "--tolerance=0", "--scale=0", "--scale=1e999",
        "--warmup=-1", "--iters=0", "--seed=99999999999999999999",
        "--jobs=0", "--net-profile=myrinet", "--cost=net.bogus_us=1",
        "--cost=net.per_message_us=-1", "--faults=drop=2"}) {
    const std::string err = error_of({arg}, cli);
    EXPECT_EQ(err.rfind(arg + ": ", 0), 0u) << arg << ": '" << err << "'";
  }
  EXPECT_NE(error_of({"--cost=net.bogus_us=1"}).find("net.per_message_us"),
            std::string::npos);
}

TEST(CliTest, HelpIsGeneratedFromTheTable) {
  BenchOptions opt;
  const CommandLine cli{.flags = {updsm::bench::quick_flag(opt)},
                        .owned = {"page-size"}};
  const std::string help = updsm::harness::help_text("/some/dir/tool", cli);
  EXPECT_EQ(help.rfind("usage: tool ", 0), 0u) << help;
  for (const char* flag :
       {"--quick", "--nodes=N", "--scale=F", "--warmup=N", "--iters=N",
        "--seed=N", "--gang=MODE", "--workers=M", "--fanout=K",
        "--relay-threshold=N", "--net-profile=P", "--cost=K=V",
        "--adaptive-window=W", "--faults=SPEC",
        "--fault-seed=N", "--no-migration", "--staleness=N",
        "--tolerance=F"}) {
    EXPECT_NE(help.find(std::string("  ") + flag), std::string::npos)
        << flag;
  }
  EXPECT_EQ(help.find("--page-size"), std::string::npos) << help;
}

}  // namespace
