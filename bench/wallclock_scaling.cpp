// Wall-clock scaling trajectory of the host-parallel execution engine.
//
// Sweeps jacobi + fft under {bar-u, lmw-u} at 8/64/256 simulated nodes with
// the bounded worker pool at 1/2/4/8 OS threads, measuring *host* wall
// seconds per cell (simulated results are bit-identical everywhere -- each
// parallel run is checked against the sequential-baton baseline and the
// bench aborts on any divergence). Emits BENCH_wallclock.json with, per
// cell: wall seconds, simulated-node-barriers-per-core-second (the
// engine-throughput figure of merit: nodes x barriers / (wall x cores
// actually used)), and the speedup over the baton.
//
// stdout carries ONLY the deterministic `check ...` lines (one per
// app/protocol/nodes cell -- independent of the worker sweep), so a ctest
// can diff the output of two different --workers-list values byte for byte;
// timings go to stderr and the JSON.
#include <chrono>
#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using updsm::bench::BenchOptions;
using updsm::protocols::ProtocolKind;
using GangMode = updsm::sim::GangMode;

struct Timed {
  updsm::harness::RunResult result;
  double wall_s = 0.0;
};

Timed timed_run(const std::string& app, ProtocolKind kind,
                const updsm::dsm::ClusterConfig& cfg,
                const updsm::apps::AppParams& params) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  Timed t;
  t.result = updsm::harness::run_app(app, kind, cfg, params);
  t.wall_s = std::chrono::duration<double>(clock::now() - t0).count();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  // Every run sets its own node count, gang mode and worker count.
  BenchOptions opt;
  std::vector<int> workers_list = {1, 2, 4, 8};
  updsm::harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {{"workers-list", "M,M,...",
                  "worker counts to sweep (default 1,2,4,8)",
                  [&](std::string_view v) {
                    workers_list =
                        updsm::harness::parse_int_list(v, 1, INT_MAX);
                  }},
                 updsm::bench::quick_flag(opt)},
       .owned = {"nodes", "gang", "workers"}});

  const std::vector<std::string> apps = {"jacobi", "fft"};
  const std::vector<ProtocolKind> protos = {ProtocolKind::BarU,
                                            ProtocolKind::LmwU};
  std::vector<int> node_counts = opt.quick ? std::vector<int>{8, 64}
                                           : std::vector<int>{8, 64, 256};

  const unsigned cores = std::thread::hardware_concurrency();
  std::fprintf(stderr,
               "wallclock_scaling: %zu apps x %zu protocols x %zu node "
               "counts, workers sweep of %zu, on %u host cores\n",
               apps.size(), protos.size(), node_counts.size(),
               workers_list.size(), cores);

  // Every run sets its own workers and gang; the provenance records the
  // auto resolution at the default cluster size.
  updsm::bench::BenchJson json(
      "BENCH_wallclock.json",
      {updsm::sim::Gang::resolve_workers(0, opt.cluster.num_nodes), 1,
       "sweep"});
  json.text("bench", "wallclock_scaling");
  json.field("scale", "%.3f", opt.app.scale);
  json.field("iters", "%d", opt.app.measured_iterations);
  json.text("net_profile", opt.cluster.net_profile);
  json.texts("cost_overrides", opt.cost_overrides);
  json.begin_rows("runs");

  for (const std::string& app : apps) {
    for (const ProtocolKind kind : protos) {
      for (const int nodes : node_counts) {
        updsm::dsm::ClusterConfig cfg = opt.cluster_config();
        cfg.num_nodes = nodes;
        updsm::dsm::validate_cluster_config(cfg);
        const updsm::apps::AppParams params = opt.app;

        // Baseline: the sequential baton on one worker (the pre-pool
        // execution model -- every node context multiplexed over a single
        // host thread, strictly in node order).
        updsm::dsm::ClusterConfig baton_cfg = cfg;
        baton_cfg.gang = GangMode::Baton;
        baton_cfg.workers = 1;
        const Timed baton = timed_run(app, kind, baton_cfg, params);

        for (const int w : workers_list) {
          if (w > nodes) continue;  // clamp would alias a swept point
          updsm::dsm::ClusterConfig par_cfg = cfg;
          par_cfg.gang = GangMode::Parallel;
          par_cfg.workers = w;
          const Timed par = timed_run(app, kind, par_cfg, params);
          if (par.result.checksum != baton.result.checksum ||
              par.result.barriers != baton.result.barriers) {
            std::fprintf(stderr,
                         "FATAL: %s/%s at %d nodes, %d workers diverged "
                         "from the baton (checksum %.17g vs %.17g)\n",
                         app.c_str(), updsm::protocols::to_string(kind),
                         nodes, w, par.result.checksum,
                         baton.result.checksum);
            return 1;
          }
          const int cores_used =
              std::min(w, static_cast<int>(cores == 0 ? 1 : cores));
          const double per_core_s =
              static_cast<double>(nodes) *
              static_cast<double>(par.result.barriers) /
              (par.wall_s * static_cast<double>(cores_used));
          json.begin_row();
          json.text("app", app);
          json.text("protocol", updsm::protocols::to_string(kind));
          json.field("nodes", "%d", nodes);
          json.field("workers", "%d", w);
          json.field("wall_s", "%.4f", par.wall_s);
          json.field("baton_wall_s", "%.4f", baton.wall_s);
          json.field("barriers", "%llu",
                     static_cast<unsigned long long>(par.result.barriers));
          json.field("node_barriers_per_core_s", "%.1f", per_core_s);
          json.field("speedup_vs_baton", "%.3f", baton.wall_s / par.wall_s);
          json.end_row();
          std::fprintf(stderr,
                       "  %-6s %-6s n=%-4d w=%-2d  %7.3fs  (baton %7.3fs, "
                       "speedup %.2fx)\n",
                       app.c_str(), updsm::protocols::to_string(kind), nodes,
                       w, par.wall_s, baton.wall_s,
                       baton.wall_s / par.wall_s);
        }

        // Deterministic per-cell line: simulation outputs only, identical
        // for every --workers-list (each swept point already proved
        // bit-identical to this baseline above).
        std::printf("check app=%s proto=%s nodes=%d checksum=%.17g "
                    "barriers=%llu\n",
                    app.c_str(), updsm::protocols::to_string(kind), nodes,
                    baton.result.checksum,
                    static_cast<unsigned long long>(baton.result.barriers));
      }
    }
  }
  json.end_rows();
  std::fprintf(stderr, "wrote BENCH_wallclock.json\n");
  return 0;
}
