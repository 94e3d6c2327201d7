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
  bench::Sweep::Index run;
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

  // Every run must reproduce its app's fault-free sequential baseline.
  bench::Sweep sweep(opt);
  std::vector<Cell> cells;
  const dsm::ClusterConfig fault_free = opt.cluster_config();
  for (const char* app : kApps) {
    const bench::Sweep::Index seq = sweep.plan_sequential(app, fault_free);
    for (const ProtocolKind kind : protocols::all_paper_protocols()) {
      if (!bench::overdrive_safe(app) &&
          (kind == ProtocolKind::BarS || kind == ProtocolKind::BarM)) {
        continue;
      }
      for (const double rate : kDropRates) {
        dsm::ClusterConfig cfg = fault_free;
        if (rate > 0) {
          char spec[32];
          std::snprintf(spec, sizeof(spec), "drop=%g", rate);
          cfg.faults = sim::FaultSpec::parse(spec);
        }
        cells.push_back(Cell{app, kind, rate, sweep.plan(app, kind, cfg, seq)});
      }
    }
  }
  const std::vector<harness::RunResult> results = sweep.run();

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
    const harness::RunResult& run = results[cell.run];
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
        results[cells[i - (i % (sizeof(kDropRates) / sizeof(kDropRates[0])))]
                    .run];
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
