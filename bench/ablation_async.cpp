// X8: barrier-free asynchronous iteration vs barrier-synchronous execution
// under progressively nastier transports. Runs both async-capable stencils
// (jacobi-async, sor-async) to CONVERGENCE in four execution modes -- the
// home-based barrier protocols bar-u / bar-i under the synchronous gang,
// and the stale-tolerant async-u / async-i under --gang=async -- across
// four fault severities (none, light loss, a hard per-step straggler, and
// churn: batch-targeted loss + dups + delays). Every cell must converge to
// the solver tolerance; the summary reports where asynchrony wins, which
// by the paper's argument should be exactly the straggler columns (a
// barrier run pays every stall at every barrier; an async run lets the
// straggler fall behind and heals with stale-tolerant reads).
// Emits BENCH_async.json for perf-trajectory tracking.
//
// Deterministic by construction: virtual-time results depend only on
// (workload, config, --fault-seed), never on --jobs or --workers or wall
// clock; the bench_async_determinism ctest pins byte-identical output.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace updsm;

struct Mode {
  const char* label;       // column label
  protocols::ProtocolKind kind;
  sim::GangMode gang;
};

constexpr Mode kModes[] = {
    {"bar-u/sync", protocols::ProtocolKind::BarU, sim::GangMode::Parallel},
    {"bar-i/sync", protocols::ProtocolKind::BarI, sim::GangMode::Parallel},
    {"async-u", protocols::ProtocolKind::AsyncU, sim::GangMode::Async},
    {"async-i", protocols::ProtocolKind::AsyncI, sim::GangMode::Async},
};

struct Severity {
  const char* label;
  const char* plan;  // empty = fault-free
};

constexpr Severity kSeverities[] = {
    {"none", ""},
    {"light", "drop=0.05"},
    {"straggler", "node=1,stall=0.5,stall_us=3000;drop=0.1"},
    {"churn", "kind=flushbatch,drop=0.4;drop=0.1,dup=0.05,delay=0.1,"
              "delay_us=300"},
};

constexpr const char* kApps[] = {"jacobi-async", "sor-async"};

struct Cell {
  const char* app;
  const Mode* mode;
  const Severity* severity;
};

}  // namespace

int main(int argc, char** argv) {
  // Every cell sets its own gang mode and fault plan, seeded by
  // --fault-seed. Convergence runs sweep until the residual settles; keep
  // the default grid small enough that the full 32-cell matrix stays
  // snappy.
  bench::BenchOptions opt;
  opt.app.scale = 0.25;
  opt.cluster.fault_seed = 42;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::jobs_flag(opt), bench::quick_flag(opt)},
       .owned = {"gang", "faults"}});

  // Each cell is one self-checked run (its checksum is the converged flag
  // read below), planned in cell order, so results[i] is cell i's run.
  bench::Sweep sweep(opt);
  std::vector<Cell> cells;
  for (const char* app : kApps) {
    for (const Mode& mode : kModes) {
      for (const Severity& sev : kSeverities) {
        dsm::ClusterConfig cfg = opt.cluster_config();
        cfg.gang = mode.gang;
        if (sev.plan[0] != '\0') cfg.faults = sim::FaultSpec::parse(sev.plan);
        sweep.plan_self_checked(app, mode.kind, cfg);
        cells.push_back(Cell{app, &mode, &sev});
      }
    }
  }
  const std::vector<harness::RunResult> results = sweep.run();

  std::printf("Ablation X8: barrier-free async iteration vs barrier "
              "execution (fault seed %llu, scale %.2f, %d nodes)\n\n",
              static_cast<unsigned long long>(opt.cluster.fault_seed),
              opt.app.scale, opt.cluster.num_nodes);

  bench::Provenance prov = bench::provenance(opt);
  prov.gang = "sweep";
  bench::BenchJson json("BENCH_async.json", prov);
  json.text("bench", "async_ablation");
  json.field("fault_seed", "%llu",
             static_cast<unsigned long long>(opt.cluster.fault_seed));
  json.field("scale", "%.3f", opt.app.scale);
  json.field("nodes", "%d", opt.cluster.num_nodes);
  json.text("net_profile", opt.cluster.net_profile);
  json.texts("cost_overrides", opt.cost_overrides);
  json.begin_rows("runs");

  bool all_converged = true;
  // elapsed per (app, severity) for the best sync and best async mode,
  // for the summary's who-wins table.
  constexpr std::size_t kNumSev =
      sizeof(kSeverities) / sizeof(kSeverities[0]);
  constexpr std::size_t kNumApps = sizeof(kApps) / sizeof(kApps[0]);
  sim::SimTime best_sync[kNumApps][kNumSev];
  sim::SimTime best_async[kNumApps][kNumSev];
  for (std::size_t a = 0; a < kNumApps; ++a) {
    for (std::size_t s = 0; s < kNumSev; ++s) {
      best_sync[a][s] = 0;
      best_async[a][s] = 0;
    }
  }

  std::string cur_app;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const harness::RunResult& run = results[i];
    // The async stencils report a converged FLAG as their checksum: 1.0
    // means every node reached the fixed point within tolerance (their
    // in-place chaotic byte pattern is schedule-dependent by design, so
    // bit-comparing grids across modes would be meaningless).
    const bool converged = run.checksum == 1.0;
    all_converged = all_converged && converged;

    if (cell.app != cur_app) {
      cur_app = cell.app;
      std::printf("%s:\n  %-11s %-10s %10s %8s %9s %8s %9s %9s\n",
                  cell.app, "mode", "severity", "elapsed", "sweeps",
                  "messages", "kB", "refreshes", "throttles");
    }
    std::printf("  %-11s %-10s %8.2fms %8llu %9llu %8llu %9llu %9llu%s\n",
                cell.mode->label, cell.severity->label,
                sim::to_msec(run.elapsed),
                static_cast<unsigned long long>(run.app_iterations),
                static_cast<unsigned long long>(run.net.table_messages()),
                static_cast<unsigned long long>(run.net.total_bytes() / 1024),
                static_cast<unsigned long long>(
                    run.counters.async_refreshes.load()),
                static_cast<unsigned long long>(
                    run.counters.async_throttles.load()),
                converged ? "" : "  NOT CONVERGED");
    if (&cell.severity[1] == kSeverities + kNumSev &&
        cell.mode == &kModes[sizeof(kModes) / sizeof(kModes[0]) - 1]) {
      std::printf("\n");
    }

    const std::size_t a = (cell.app == std::string(kApps[0])) ? 0 : 1;
    const std::size_t s =
        static_cast<std::size_t>(cell.severity - kSeverities);
    sim::SimTime* best = (cell.mode->gang == sim::GangMode::Async)
                             ? &best_async[a][s]
                             : &best_sync[a][s];
    if (*best == 0 || run.elapsed < *best) *best = run.elapsed;

    json.begin_row();
    json.text("app", cell.app);
    json.text("mode", cell.mode->label);
    json.text("protocol", protocols::to_string(cell.mode->kind));
    json.text("gang", sim::to_string(cell.mode->gang));
    json.text("severity", cell.severity->label);
    json.text("plan", cell.severity->plan);
    json.field("elapsed_ms", "%.3f", sim::to_msec(run.elapsed));
    json.field("iterations", "%llu",
               static_cast<unsigned long long>(run.app_iterations));
    json.field("converged", "%s", converged ? "true" : "false");
    json.field("final_residual", "%.6e", run.final_residual);
    json.field("messages", "%llu",
               static_cast<unsigned long long>(run.net.table_messages()));
    json.field("data_kb", "%llu",
               static_cast<unsigned long long>(run.net.total_bytes() / 1024));
    json.field("async_steps", "%llu",
               static_cast<unsigned long long>(
                   run.counters.async_steps.load()));
    json.field("async_refreshes", "%llu",
               static_cast<unsigned long long>(
                   run.counters.async_refreshes.load()));
    json.field("async_invalidations", "%llu",
               static_cast<unsigned long long>(
                   run.counters.async_invalidations.load()));
    json.field("async_throttles", "%llu",
               static_cast<unsigned long long>(
                   run.counters.async_throttles.load()));
    json.end_row();
  }

  // Summary: where does asynchrony win? The paper's claim is the
  // straggler column; a clean-transport win or loss is workload-dependent.
  int async_wins_straggler = 0;
  int straggler_cells = 0;
  std::printf("summary:\n");
  for (std::size_t a = 0; a < kNumApps; ++a) {
    for (std::size_t s = 0; s < kNumSev; ++s) {
      const double ratio = static_cast<double>(best_sync[a][s]) /
                           static_cast<double>(best_async[a][s]);
      const bool straggler =
          std::strcmp(kSeverities[s].label, "straggler") == 0;
      if (straggler) {
        ++straggler_cells;
        if (ratio > 1.0) ++async_wins_straggler;
      }
      std::printf("  %-13s %-10s best sync %8.2fms / best async %8.2fms "
                  "-> async %s by %.2fx\n",
                  kApps[a], kSeverities[s].label,
                  sim::to_msec(best_sync[a][s]),
                  sim::to_msec(best_async[a][s]),
                  ratio > 1.0 ? "wins " : "loses", ratio > 1.0 ? ratio
                                                               : 1.0 / ratio);
    }
  }
  std::printf("  async wins %d/%d straggler cells; all %zu runs %s\n",
              async_wins_straggler, straggler_cells, cells.size(),
              all_converged ? "converged" : "-- SOME DID NOT CONVERGE");

  json.end_rows();
  json.field("all_converged", "%s", all_converged ? "true" : "false");
  json.field("async_wins_straggler_cells", "%d", async_wins_straggler);
  json.field("straggler_cells", "%d", straggler_cells);
  std::printf("wrote BENCH_async.json (%zu runs)\n", cells.size());
  return all_converged ? 0 : 1;
}
