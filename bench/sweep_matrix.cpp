// sweep_matrix: machine-readable dump of the full experiment grid.
//
// Emits one CSV row per (application, protocol) with speedup, Table-1
// counters, traffic and the Figure-3 breakdown -- the raw material for
// external plotting or regression tracking. Shares flags with the other
// benches (see --help).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace updsm;
  bench::BenchOptions opt;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::jobs_flag(opt), bench::quick_flag(opt)}});
  const std::vector<bench::GridCell> cells = bench::full_grid();
  const bench::RunCache cache(opt, cells);

  std::printf(
      "app,protocol,nodes,scale,iters,seq_ms,elapsed_ms,speedup,diffs,"
      "zero_diffs,misses,messages,data_kb,updates_sent,updates_applied,"
      "migrations,private_in,private_out,app_pct,dsm_pct,os_pct,wait_pct,"
      "sigio_pct\n");
  for (const bench::GridCell& cell : cells) {
    const auto& run = cache.parallel(cell.app, cell.kind);
    const auto& seq = cache.sequential(cell.app);
    const auto sum = run.breakdown.summed();
    const double total = static_cast<double>(sum.total());
    std::printf(
        "%s,%s,%d,%.3f,%d,%.3f,%.3f,%.3f,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%llu,%llu,%llu,%.2f,%.2f,%.2f,%.2f,%.2f\n",
        run.app.c_str(), run.protocol.c_str(), run.nodes, opt.app.scale,
        opt.app.measured_iterations, sim::to_msec(seq.elapsed),
        sim::to_msec(run.elapsed), harness::speedup(run, seq),
        static_cast<unsigned long long>(run.counters.diffs_created),
        static_cast<unsigned long long>(run.counters.zero_diffs),
        static_cast<unsigned long long>(run.counters.remote_misses),
        static_cast<unsigned long long>(run.net.table_messages()),
        static_cast<unsigned long long>(run.net.total_bytes() / 1024),
        static_cast<unsigned long long>(run.counters.updates_sent),
        static_cast<unsigned long long>(run.counters.updates_applied),
        static_cast<unsigned long long>(run.counters.migrations),
        static_cast<unsigned long long>(run.counters.private_entries),
        static_cast<unsigned long long>(run.counters.private_exits),
        100.0 * static_cast<double>(sum.app) / total,
        100.0 * static_cast<double>(sum.dsm) / total,
        100.0 * static_cast<double>(sum.os) / total,
        100.0 * static_cast<double>(sum.wait) / total,
        100.0 * static_cast<double>(sum.sigio) / total);
  }
  return 0;
}
