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
#include <string>
#include <string_view>
#include <vector>

#include "updsm/harness/cli.hpp"
#include "updsm/harness/experiment.hpp"
#include "updsm/harness/report.hpp"
#include "updsm/mem/shared_heap.hpp"

namespace {

using namespace updsm;

/// What to print for each run, beyond the summary lines.
struct Report {
  bool csv = false;
  bool breakdown = false;
  bool layout = false;
  bool per_node = false;
  int hot_pages = 0;
};

void print_run(const harness::RunOptions& opt, const Report& report,
               const harness::RunResult& run, const harness::RunResult& seq) {
  if (report.csv) {
    static bool header_printed = false;
    if (!header_printed) {
      header_printed = true;
      std::printf(
          "app,protocol,nodes,scale,elapsed_ms,seq_ms,speedup,diffs,misses,"
          "messages,data_kb,updates_sent,migrations,correct\n");
    }
    std::printf("%s,%s,%d,%.3f,%.3f,%.3f,%.3f,%llu,%llu,%llu,%llu,%llu,%llu,%d\n",
                run.app.c_str(), run.protocol.c_str(), run.nodes, opt.app.scale,
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
              run.app.c_str(), run.protocol.c_str(), run.nodes, opt.app.scale,
              opt.app.measured_iterations);
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
  if (!opt.cluster.faults.empty()) {
    std::printf("  faults        %llu drops, %llu retries, %llu dups "
                "suppressed, %llu recovery faults, %llu stalls\n",
                static_cast<unsigned long long>(run.net.total_dropped()),
                static_cast<unsigned long long>(run.counters.reliable_retries),
                static_cast<unsigned long long>(run.counters.dup_suppressed),
                static_cast<unsigned long long>(run.counters.recovery_faults),
                static_cast<unsigned long long>(run.counters.node_stalls));
  }

  if (report.breakdown) {
    const auto sum = run.breakdown.summed();
    const double total = static_cast<double>(sum.total());
    std::printf("  breakdown     app %.1f%%  dsm %.1f%%  os %.1f%%  wait "
                "%.1f%%  sigio %.1f%%\n",
                100.0 * sum.app / total, 100.0 * sum.dsm / total,
                100.0 * sum.os / total, 100.0 * sum.wait / total,
                100.0 * sum.sigio / total);
  }
  if (report.hot_pages > 0) {
    const auto hot = harness::hottest_pages(
        run, static_cast<std::size_t>(report.hot_pages));
    std::printf("  hottest pages (whole run, all nodes):\n");
    for (const auto& page : hot) {
      std::printf("    page %-6u %-16s %6u rd-faults %6u wr-faults %6u "
                  "mprotects\n",
                  page.page.value(), page.allocation.c_str(),
                  page.stats.read_faults.load(), page.stats.write_faults.load(),
                  page.stats.mprotects.load());
    }
  }
  if (report.per_node) {
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
  harness::RunOptions opt;
  std::string app = "sor";
  std::string protocol = "bar-u";
  Report report;
  auto set_true = [](bool& field) {
    return [&field](std::string_view) { field = true; };
  };
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags =
           {{"app", "NAME",
             "barnes|expl|fft|jacobi|shal|sor|swm|tomcat|\n"
             "jacobi-async|sor-async (default sor)",
             [&](std::string_view v) { app = v; }},
            {"protocol", "NAME",
             "lmw-i|lmw-u|bar-i|bar-u|bar-s|bar-m|adaptive|\n"
             "sc-sw|async-u|async-i|all (the paper's six;\n"
             "default bar-u)",
             [&](std::string_view v) { protocol = v; }},
            {"breakdown", "", "print the Figure-3 style time breakdown",
             set_true(report.breakdown)},
            {"hot-pages", "N", "print the N busiest pages with their owners",
             [&](std::string_view v) {
               report.hot_pages = harness::parse_int(v, 0);
             }},
            {"per-node", "", "print per-node times", set_true(report.per_node)},
            {"layout", "", "print the shared-segment layout",
             set_true(report.layout)},
            {"csv", "", "one CSV line per run (with header)",
             set_true(report.csv)}}});
  try {
    const dsm::ClusterConfig cfg = opt.cluster_config();
    std::vector<protocols::ProtocolKind> kinds;
    if (protocol == "all") {
      kinds = protocols::all_paper_protocols();
    } else {
      kinds.push_back(protocols::protocol_from_string(protocol));
    }

    // Gang/protocol compatibility fails at parse time with a friendly
    // message, not deep inside a run.
    if (opt.cluster.gang == sim::GangMode::Async) {
      for (const auto kind : kinds) {
        const auto probe = protocols::make_protocol(kind);
        dsm::validate_gang_protocol(opt.cluster.gang, probe->parallel_safe(),
                                    protocols::to_string(kind));
      }
    }

    if (report.layout) {
      auto probe = apps::make_app(app, opt.app);
      mem::SharedHeap heap(cfg.page_size);
      probe->allocate(heap);
      std::printf("shared segment for %s: %llu kB in %u pages\n",
                  app.c_str(),
                  static_cast<unsigned long long>(heap.bytes_used() / 1024),
                  heap.segment_pages());
      for (const auto& alloc : heap.allocations()) {
        std::printf("  %-16s @ %10llu  %10llu bytes\n", alloc.name.c_str(),
                    static_cast<unsigned long long>(alloc.addr),
                    static_cast<unsigned long long>(alloc.bytes));
      }
      std::printf("\n");
    }

    const auto seq = harness::run_sequential(app, cfg, opt.app);
    const bool overdrive_safe = apps::make_app(app, opt.app)->overdrive_safe();
    for (const auto kind : kinds) {
      if (!overdrive_safe && (kind == protocols::ProtocolKind::BarS ||
                              kind == protocols::ProtocolKind::BarM)) {
        std::fprintf(stderr,
                     "skipping %s: %s has a dynamic sharing pattern\n",
                     protocols::to_string(kind), app.c_str());
        continue;
      }
      print_run(opt, report, harness::run_app(app, kind, cfg, opt.app), seq);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
