// updsm_run: command-line experiment explorer.
//
// Runs any (application, protocol) combination on any cluster
// configuration and prints the full report: speedup against the
// nulled-sync sequential baseline, Table-1 counters, the Figure-3 time
// breakdown, per-node details and the shared-segment layout. `--csv`
// emits one machine-readable line per run for scripting sweeps.
//
//   updsm_run --app=sor --protocol=bar-u
//   updsm_run --app=swm --protocol=all --nodes=16 --scale=0.5
//   updsm_run --app=fft --protocol=bar-m --breakdown --layout
//   updsm_run --app=jacobi --protocol=all --csv
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "updsm/harness/experiment.hpp"
#include "updsm/harness/report.hpp"
#include "updsm/mem/shared_heap.hpp"
#include "updsm/sim/cost_model.hpp"

namespace {

using namespace updsm;

struct Options {
  std::string app = "sor";
  std::string protocol = "bar-u";
  int nodes = 8;
  double scale = 1.0;
  int warmup = 5;
  int iters = 10;
  std::uint32_t page_size = 8192;
  std::string net_profile = "sp2";
  std::vector<std::string> cost_overrides;
  int adaptive_window = 4;
  std::string faults;  // fault-spec text or a file containing one
  std::uint64_t fault_seed = 0;
  bool migration = true;
  int fanout = 0;           // 0 = flat barrier
  int relay_threshold = 0;  // 0 = relay off
  int relay_fanout = 4;
  bool breakdown = false;
  bool layout = false;
  int hot_pages = 0;
  bool per_node = false;
  bool csv = false;
  std::uint64_t seed = 0x1998'0330;
  sim::GangMode gang = sim::GangMode::Parallel;
  int workers = 0;  // 0 = auto (hardware concurrency)
  int staleness = 4;
  double tolerance = 1e-6;
};

[[noreturn]] void usage(int code) {
  std::printf(
      "updsm_run -- run one paper workload under one coherence protocol\n"
      "\n"
      "  --app=NAME        barnes|expl|fft|jacobi|shal|sor|swm|tomcat, or a\n"
      "                    barrier-free workload: jacobi-async|sor-async\n"
      "  --protocol=NAME   lmw-i|lmw-u|bar-i|bar-u|bar-s|bar-m|adaptive|\n"
      "                    sc-sw|async-u|async-i|all (all = the paper's\n"
      "                    fixed protocols)\n"
      "  --nodes=N         cluster size (default 8)\n"
      "  --scale=F         linear problem-size factor (default 1.0)\n"
      "  --warmup=N        unmeasured time-steps (default 5)\n"
      "  --iters=N         measured time-steps (default 10)\n"
      "  --page-size=B     protection granularity (default 8192)\n"
      "  --net-profile=P   interconnect cost profile: sp2 (1998 SP-2 over\n"
      "                    UDP, the paper's Table 2) or rdma (kernel-bypass\n"
      "                    NIC: ~1us one-sided ops, ~10 GB/s)\n"
      "  --cost=K=V        override one cost-model key on top of the\n"
      "                    profile (repeatable); e.g. --cost=net.per_message_us=5\n"
      "                    (pass an unknown key to list the valid ones)\n"
      "  --adaptive-window=W  sliding-window length (written epochs) for\n"
      "                    --protocol=adaptive (default 4)\n"
      "  --faults=SPEC     fault-injection plan (inline spec or a file);\n"
      "                    e.g. 'drop=0.1', or 'kind=flushbatch,drop=0.3' to\n"
      "                    lose update pushes\n"
      "                    (see sim/fault_plan.hpp for the grammar)\n"
      "  --fault-seed=N    seed for the fault plan's decision streams\n"
      "  --no-migration    disable runtime home migration\n"
      "  --fanout=K        k-ary tree barrier (0 = flat master barrier,\n"
      "                    the default; results are bit-identical)\n"
      "  --relay-threshold=N  relay a producer's update batches through a\n"
      "                    dissemination tree when they target more than N\n"
      "                    destinations (0 = off; results bit-identical)\n"
      "  --relay-fanout=K  dissemination-tree fanout (default 4)\n"
      "  --gang=MODE       parallel|baton|async node scheduling (default\n"
      "                    parallel; parallel and baton are byte-identical;\n"
      "                    async drops the phase barrier and schedules the\n"
      "                    lowest-virtual-clock node -- requires a\n"
      "                    parallel-safe protocol)\n"
      "  --staleness=N     async protocols: refresh a cached page once its\n"
      "                    home version leads by more than N publishes\n"
      "                    (default 4; 0 = always fresh)\n"
      "  --tolerance=F     residual tolerance for the run-to-convergence\n"
      "                    workloads (default 1e-6)\n"
      "  --workers=M       OS threads multiplexing the simulated nodes\n"
      "                    (default: host cores, clamped to N; output is\n"
      "                    byte-identical for every M)\n"
      "  --seed=N          dataset seed for the synthetic workloads\n"
      "  --breakdown       print the Figure-3 style time breakdown\n"
      "  --hot-pages=N     print the N busiest pages with their owners\n"
      "  --per-node        print per-node times\n"
      "  --layout          print the shared-segment layout\n"
      "  --csv             one CSV line per run (with header)\n");
  std::exit(code);
}

/// `--faults` accepts either an inline spec or the name of a file holding
/// one; a readable file wins (a spec is never a valid relative path).
std::string load_fault_spec(const std::string& arg) {
  std::ifstream in(arg);
  if (!in) return arg;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--app=")) {
      opt.app = v;
    } else if (const char* v = value("--protocol=")) {
      opt.protocol = v;
    } else if (const char* v = value("--nodes=")) {
      opt.nodes = std::atoi(v);
    } else if (const char* v = value("--scale=")) {
      opt.scale = std::atof(v);
    } else if (const char* v = value("--warmup=")) {
      opt.warmup = std::atoi(v);
    } else if (const char* v = value("--iters=")) {
      opt.iters = std::atoi(v);
    } else if (const char* v = value("--page-size=")) {
      opt.page_size = static_cast<std::uint32_t>(std::atoi(v));
    } else if (const char* v = value("--net-profile=")) {
      opt.net_profile = v;
    } else if (const char* v = value("--cost=")) {
      opt.cost_overrides.emplace_back(v);
    } else if (const char* v = value("--adaptive-window=")) {
      opt.adaptive_window = std::atoi(v);
    } else if (const char* v = value("--faults=")) {
      opt.faults = v;
    } else if (const char* v = value("--fault-seed=")) {
      opt.fault_seed = std::strtoull(v, nullptr, 0);
    } else if (const char* v = value("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 0);
    } else if (const char* v = value("--gang=")) {
      const std::string mode = v;
      if (mode == "parallel") {
        opt.gang = sim::GangMode::Parallel;
      } else if (mode == "baton") {
        opt.gang = sim::GangMode::Baton;
      } else if (mode == "async") {
        opt.gang = sim::GangMode::Async;
      } else {
        std::fprintf(stderr, "unknown gang mode: %s\n", v);
        usage(2);
      }
    } else if (const char* v = value("--workers=")) {
      opt.workers = std::atoi(v);
      if (opt.workers < 1) {
        std::fprintf(stderr, "--workers must be >= 1, got %s\n", v);
        usage(2);
      }
    } else if (const char* v = value("--staleness=")) {
      opt.staleness = std::atoi(v);
    } else if (const char* v = value("--tolerance=")) {
      opt.tolerance = std::atof(v);
    } else if (const char* v = value("--fanout=")) {
      opt.fanout = std::atoi(v);
    } else if (const char* v = value("--relay-threshold=")) {
      opt.relay_threshold = std::atoi(v);
    } else if (const char* v = value("--relay-fanout=")) {
      opt.relay_fanout = std::atoi(v);
    } else if (arg == "--no-migration") {
      opt.migration = false;
    } else if (const char* v = value("--hot-pages=")) {
      opt.hot_pages = std::atoi(v);
    } else if (arg == "--breakdown") {
      opt.breakdown = true;
    } else if (arg == "--per-node") {
      opt.per_node = true;
    } else if (arg == "--layout") {
      opt.layout = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n\n", arg.c_str());
      usage(2);
    }
  }
  return opt;
}

dsm::ClusterConfig cluster_config(const Options& opt) {
  dsm::ClusterConfig cfg;
  cfg.num_nodes = opt.nodes;
  cfg.page_size = opt.page_size;
  cfg.gang = opt.gang;
  cfg.workers = opt.workers;
  cfg.home_migration = opt.migration;
  cfg.barrier_fanout = opt.fanout;
  cfg.relay_threshold = opt.relay_threshold;
  cfg.relay_fanout = opt.relay_fanout;
  cfg.net_profile = opt.net_profile;
  cfg.costs = sim::CostModel::from_profile(opt.net_profile);
  sim::apply_cost_overrides(cfg.costs, opt.cost_overrides);
  cfg.adaptive_window = opt.adaptive_window;
  cfg.staleness_bound = opt.staleness;
  cfg.async_tolerance = opt.tolerance;
  if (!opt.faults.empty()) {
    cfg.faults = sim::FaultSpec::parse(load_fault_spec(opt.faults));
    cfg.fault_seed = opt.fault_seed;
  }
  // Fail at parse time with a usable message (the deep checks would only
  // trip once a run is underway).
  dsm::validate_cluster_config(cfg);
  return cfg;
}

apps::AppParams app_params(const Options& opt) {
  apps::AppParams p;
  p.scale = opt.scale;
  p.warmup_iterations = opt.warmup;
  p.measured_iterations = opt.iters;
  p.seed = opt.seed;
  return p;
}

void print_run(const Options& opt, const harness::RunResult& run,
               const harness::RunResult& seq) {
  if (opt.csv) {
    static bool header_printed = false;
    if (!header_printed) {
      header_printed = true;
      std::printf(
          "app,protocol,nodes,scale,elapsed_ms,seq_ms,speedup,diffs,misses,"
          "messages,data_kb,updates_sent,migrations,correct\n");
    }
    std::printf("%s,%s,%d,%.3f,%.3f,%.3f,%.3f,%llu,%llu,%llu,%llu,%llu,%llu,%d\n",
                run.app.c_str(), run.protocol.c_str(), run.nodes, opt.scale,
                sim::to_msec(run.elapsed), sim::to_msec(seq.elapsed),
                harness::speedup(run, seq),
                static_cast<unsigned long long>(run.counters.diffs_created),
                static_cast<unsigned long long>(run.counters.remote_misses),
                static_cast<unsigned long long>(run.net.table_messages()),
                static_cast<unsigned long long>(run.net.total_bytes() / 1024),
                static_cast<unsigned long long>(run.counters.updates_sent),
                static_cast<unsigned long long>(run.counters.migrations),
                run.checksum == seq.checksum ? 1 : 0);
    return;
  }

  std::printf("%s under %s: %d nodes, scale %.2f, %d measured iterations\n",
              run.app.c_str(), run.protocol.c_str(), run.nodes, opt.scale,
              opt.iters);
  std::printf("  result        %s (checksum %.17g)\n",
              run.checksum == seq.checksum ? "bit-exact vs sequential"
                                           : "*** DIVERGED ***",
              run.checksum);
  std::printf("  time          %.2f ms (sequential %.2f ms) -> speedup %.2f\n",
              sim::to_msec(run.elapsed), sim::to_msec(seq.elapsed),
              harness::speedup(run, seq));
  std::printf("  diffs         %llu (+%llu empty)\n",
              static_cast<unsigned long long>(run.counters.diffs_created),
              static_cast<unsigned long long>(run.counters.zero_diffs));
  std::printf("  remote misses %llu\n",
              static_cast<unsigned long long>(run.counters.remote_misses));
  std::printf("  messages      %llu (%llu kB)\n",
              static_cast<unsigned long long>(run.net.table_messages()),
              static_cast<unsigned long long>(run.net.total_bytes() / 1024));
  std::printf("  updates       %llu sent, %llu applied, %llu ignored\n",
              static_cast<unsigned long long>(run.counters.updates_sent),
              static_cast<unsigned long long>(run.counters.updates_applied),
              static_cast<unsigned long long>(run.counters.updates_ignored));
  if (run.counters.async_steps > 0) {
    std::printf("  async         %llu steps, %llu staleness refreshes, %llu "
                "invalidations, %llu lead throttles; %llu sweeps to "
                "residual %.3g\n",
                static_cast<unsigned long long>(run.counters.async_steps),
                static_cast<unsigned long long>(run.counters.async_refreshes),
                static_cast<unsigned long long>(
                    run.counters.async_invalidations),
                static_cast<unsigned long long>(run.counters.async_throttles),
                static_cast<unsigned long long>(run.app_iterations),
                run.final_residual);
  }
  std::printf("  homes         %llu migrated; private pages %llu in / %llu "
              "out\n",
              static_cast<unsigned long long>(run.counters.migrations),
              static_cast<unsigned long long>(run.counters.private_entries),
              static_cast<unsigned long long>(run.counters.private_exits));
  if (!opt.faults.empty()) {
    std::printf("  faults        %llu drops, %llu retries, %llu dups "
                "suppressed, %llu recovery faults, %llu stalls\n",
                static_cast<unsigned long long>(run.net.total_dropped()),
                static_cast<unsigned long long>(run.counters.reliable_retries),
                static_cast<unsigned long long>(run.counters.dup_suppressed),
                static_cast<unsigned long long>(run.counters.recovery_faults),
                static_cast<unsigned long long>(run.counters.node_stalls));
  }

  if (opt.breakdown) {
    const auto sum = run.breakdown.summed();
    const double total = static_cast<double>(sum.total());
    std::printf("  breakdown     app %.1f%%  dsm %.1f%%  os %.1f%%  wait "
                "%.1f%%  sigio %.1f%%\n",
                100.0 * sum.app / total, 100.0 * sum.dsm / total,
                100.0 * sum.os / total, 100.0 * sum.wait / total,
                100.0 * sum.sigio / total);
  }
  if (opt.hot_pages > 0) {
    const auto hot =
        harness::hottest_pages(run, static_cast<std::size_t>(opt.hot_pages));
    std::printf("  hottest pages (whole run, all nodes):\n");
    for (const auto& page : hot) {
      std::printf("    page %-6u %-16s %6u rd-faults %6u wr-faults %6u "
                  "mprotects\n",
                  page.page.value(), page.allocation.c_str(),
                  page.stats.read_faults.load(), page.stats.write_faults.load(),
                  page.stats.mprotects.load());
    }
  }
  if (opt.per_node) {
    for (std::size_t i = 0; i < run.breakdown.nodes.size(); ++i) {
      const auto& node = run.breakdown.nodes[i];
      std::printf("    node %-2zu     app %8.1f  dsm %7.1f  os %7.1f  wait "
                  "%7.1f  sigio %6.1f ms\n",
                  i, sim::to_msec(node.app), sim::to_msec(node.dsm),
                  sim::to_msec(node.os), sim::to_msec(node.wait),
                  sim::to_msec(node.sigio));
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    std::vector<protocols::ProtocolKind> kinds;
    if (opt.protocol == "all") {
      kinds = protocols::all_paper_protocols();
    } else {
      kinds.push_back(protocols::protocol_from_string(opt.protocol));
    }

    // Gang/protocol compatibility fails at parse time with a friendly
    // message, not deep inside a run.
    if (opt.gang == sim::GangMode::Async) {
      for (const auto kind : kinds) {
        const auto probe = protocols::make_protocol(kind);
        dsm::validate_gang_protocol(opt.gang, probe->parallel_safe(),
                                    protocols::to_string(kind));
      }
    }

    if (opt.layout) {
      auto app = apps::make_app(opt.app, app_params(opt));
      mem::SharedHeap heap(opt.page_size);
      app->allocate(heap);
      std::printf("shared segment for %s: %llu kB in %u pages\n",
                  opt.app.c_str(),
                  static_cast<unsigned long long>(heap.bytes_used() / 1024),
                  heap.segment_pages());
      for (const auto& alloc : heap.allocations()) {
        std::printf("  %-16s @ %10llu  %10llu bytes\n", alloc.name.c_str(),
                    static_cast<unsigned long long>(alloc.addr),
                    static_cast<unsigned long long>(alloc.bytes));
      }
      std::printf("\n");
    }

    const auto seq =
        harness::run_sequential(opt.app, cluster_config(opt), app_params(opt));
    bool overdrive_safe = true;
    {
      auto probe = apps::make_app(opt.app, app_params(opt));
      overdrive_safe = probe->overdrive_safe();
    }
    for (const auto kind : kinds) {
      if (!overdrive_safe && (kind == protocols::ProtocolKind::BarS ||
                              kind == protocols::ProtocolKind::BarM)) {
        std::fprintf(stderr,
                     "skipping %s: %s has a dynamic sharing pattern\n",
                     protocols::to_string(kind), opt.app.c_str());
        continue;
      }
      const auto run =
          harness::run_app(opt.app, kind, cluster_config(opt), app_params(opt));
      print_run(opt, run, seq);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
