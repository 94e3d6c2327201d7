// X6: protocol degradation under an adversarial transport. Sweeps the
// fault plan's reliable-channel drop rate over {0, 1, 5, 10}% for all six
// paper protocols on jacobi (stencil), tomcat (irregular mesh) and fft
// (all-to-all), verifying bit-exactness against the fault-free sequential
// baseline at every point and reporting runtime + message overhead curves.
// Emits BENCH_faults.json for perf-trajectory tracking.
//
// Deterministic by construction: virtual-time results depend only on
// (workload, config, --fault-seed), never on --jobs or wall clock; the
// bench_faults_determinism ctest pins byte-identical output.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace updsm;

constexpr double kDropRates[] = {0.0, 0.01, 0.05, 0.1};
constexpr const char* kApps[] = {"jacobi", "tomcat", "fft"};

struct Cell {
  std::string app;
  protocols::ProtocolKind kind;
  double drop_rate;
};

}  // namespace

int main(int argc, char** argv) {
  using protocols::ProtocolKind;

  // Every cell sets its own fault plan, seeded by --fault-seed. The
  // curves need 72 runs; keep the default scale snappy.
  bench::BenchOptions opt;
  opt.app.scale = 0.4;
  opt.cluster.fault_seed = 42;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::jobs_flag(opt), bench::quick_flag(opt)},
       .owned = {"faults"}});

  // Plan every run up front and execute on the --jobs worker pool; results
  // land in task order, so output is identical at any worker count.
  std::vector<Cell> cells;
  std::vector<std::function<harness::RunResult()>> tasks;
  std::vector<std::string> seq_apps;
  for (const char* app : kApps) {
    const bench::BenchOptions o = opt;
    tasks.push_back([o, app = std::string(app)] {
      return harness::run_sequential(app, o.cluster_config(), o.app);
    });
    seq_apps.push_back(app);
    for (const ProtocolKind kind : protocols::all_paper_protocols()) {
      if (!bench::overdrive_safe(app) &&
          (kind == ProtocolKind::BarS || kind == ProtocolKind::BarM)) {
        continue;
      }
      for (const double rate : kDropRates) {
        cells.push_back(Cell{app, kind, rate});
        tasks.push_back([o, app = std::string(app), kind, rate] {
          dsm::ClusterConfig cfg = o.cluster_config();
          if (rate > 0) {
            char spec[32];
            std::snprintf(spec, sizeof(spec), "drop=%g", rate);
            cfg.faults = sim::FaultSpec::parse(spec);
          }
          return harness::run_app(app, kind, cfg, o.app);
        });
      }
    }
  }
  const std::vector<harness::RunResult> results =
      harness::run_grid(tasks, opt.jobs);

  // Task order: [seq(app0), cells(app0)..., seq(app1), ...].
  std::size_t next = 0;
  std::vector<harness::RunResult> seq_results;
  std::vector<harness::RunResult> cell_results;
  std::size_t cell_idx = 0;
  for (std::size_t a = 0; a < seq_apps.size(); ++a) {
    seq_results.push_back(results[next++]);
    while (cell_idx < cells.size() && cells[cell_idx].app == seq_apps[a]) {
      cell_results.push_back(results[next++]);
      ++cell_idx;
    }
  }

  auto seq_of = [&](const std::string& app) -> const harness::RunResult& {
    for (std::size_t a = 0; a < seq_apps.size(); ++a) {
      if (seq_apps[a] == app) return seq_results[a];
    }
    std::fprintf(stderr, "FATAL: no sequential baseline for %s\n",
                 app.c_str());
    std::exit(1);
  };

  std::printf("Ablation X6: degradation vs reliable-channel drop rate "
              "(fault seed %llu, scale %.2f)\n\n",
              static_cast<unsigned long long>(opt.cluster.fault_seed),
              opt.app.scale);

  bench::BenchJson json("BENCH_faults.json", bench::provenance(opt));
  json.text("bench", "fault_injection");
  json.field("fault_seed", "%llu",
             static_cast<unsigned long long>(opt.cluster.fault_seed));
  json.field("scale", "%.3f", opt.app.scale);
  json.field("nodes", "%d", opt.cluster.num_nodes);
  json.text("net_profile", opt.cluster.net_profile);
  json.texts("cost_overrides", opt.cost_overrides);
  json.field("drop_rates", "[0, 0.01, 0.05, 0.1]");
  json.begin_rows("runs");

  std::string cur_header;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const harness::RunResult& run = cell_results[i];
    const harness::RunResult& seq = seq_of(cell.app);
    if (run.checksum != seq.checksum) {
      std::fprintf(stderr,
                   "FATAL: %s under %s diverged at drop rate %g\n",
                   cell.app.c_str(), protocols::to_string(cell.kind),
                   cell.drop_rate);
      return 1;
    }
    const std::string header =
        cell.app + " under " + protocols::to_string(cell.kind);
    if (header != cur_header) {
      cur_header = header;
      std::printf("%s:\n  %-6s %10s %9s %9s %8s %8s %8s %9s\n",
                  header.c_str(), "drop", "elapsed", "overhead", "messages",
                  "dropped", "retries", "dups", "recovery");
    }
    // Overhead: runtime vs this protocol's own fault-free point (printed
    // right above, always rate 0.0 of the same (app, kind) group).
    const harness::RunResult& base =
        cell_results[i - (i % (sizeof(kDropRates) / sizeof(kDropRates[0])))];
    const double overhead = static_cast<double>(run.elapsed) /
                            static_cast<double>(base.elapsed);
    std::printf("  %-6g %8.2fms %8.3fx %9llu %8llu %8llu %8llu %9llu\n",
                cell.drop_rate, sim::to_msec(run.elapsed), overhead,
                static_cast<unsigned long long>(run.net.table_messages()),
                static_cast<unsigned long long>(run.net.total_dropped()),
                static_cast<unsigned long long>(
                    run.counters.reliable_retries),
                static_cast<unsigned long long>(run.counters.dup_suppressed),
                static_cast<unsigned long long>(
                    run.counters.recovery_faults));
    if (cell.drop_rate == kDropRates[sizeof(kDropRates) /
                                     sizeof(kDropRates[0]) - 1]) {
      std::printf("\n");
    }

    json.begin_row();
    json.text("app", cell.app);
    json.text("protocol", protocols::to_string(cell.kind));
    json.field("drop_rate", "%g", cell.drop_rate);
    json.field("elapsed_ms", "%.3f", sim::to_msec(run.elapsed));
    json.field("runtime_overhead", "%.4f", overhead);
    json.field("messages", "%llu",
               static_cast<unsigned long long>(run.net.table_messages()));
    json.field("data_kb", "%llu",
               static_cast<unsigned long long>(run.net.total_bytes() / 1024));
    json.field("dropped", "%llu",
               static_cast<unsigned long long>(run.net.total_dropped()));
    json.field("retries", "%llu",
               static_cast<unsigned long long>(run.counters.reliable_retries));
    json.field("dups_suppressed", "%llu",
               static_cast<unsigned long long>(run.counters.dup_suppressed));
    json.field("recovery_faults", "%llu",
               static_cast<unsigned long long>(run.counters.recovery_faults));
    json.field("correct", "true");
    json.end_row();
  }
  json.end_rows();
  std::printf("wrote BENCH_faults.json (%zu runs, all bit-exact vs "
              "sequential)\n",
              cells.size());
  return 0;
}
