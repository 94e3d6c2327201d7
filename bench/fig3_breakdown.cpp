// Reproduces Figure 3, "Time Breakdown for Bar-u": per-application
// percentage split of execution time into sigio handling, wait time,
// operating-system overhead and application computation (paper §4).
// CVM's breakdown folds user-level protocol work into "app"; we do the
// same here but also print the unfolded protocol (dsm) column, which the
// ablation benches use.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace updsm;
  using protocols::ProtocolKind;
  bench::BenchOptions opt;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::jobs_flag(opt), bench::quick_flag(opt)}});
  const bench::RunCache cache(opt,
                              bench::single_protocol_grid(ProtocolKind::BarU));

  std::cout << "Figure 3: Time Breakdown for Bar-u (" << opt.cluster.num_nodes
            << " nodes, scale " << harness::fmt(opt.app.scale, 2) << ")\n\n";

  harness::TextTable table(
      {"app", "sigio%", "wait%", "os%", "app%", "(protocol%)"});
  std::vector<std::string> groups;
  std::vector<std::vector<double>> values(4);
  for (const auto app : apps::app_names()) {
    const auto& run = cache.parallel(app, ProtocolKind::BarU);
    const auto sum = run.breakdown.summed();
    const double total = static_cast<double>(sum.total());
    const double sigio = 100.0 * static_cast<double>(sum.sigio) / total;
    const double wait = 100.0 * static_cast<double>(sum.wait) / total;
    const double os = 100.0 * static_cast<double>(sum.os) / total;
    // CVM folding: protocol (dsm) time counts as application time.
    const double app_pct =
        100.0 * static_cast<double>(sum.app + sum.dsm) / total;
    const double dsm_pct = 100.0 * static_cast<double>(sum.dsm) / total;
    table.add_row({std::string(app), harness::fmt(sigio, 1),
                   harness::fmt(wait, 1), harness::fmt(os, 1),
                   harness::fmt(app_pct, 1), harness::fmt(dsm_pct, 1)});
    groups.emplace_back(app);
    values[0].push_back(sigio);
    values[1].push_back(wait);
    values[2].push_back(os);
    values[3].push_back(app_pct);
  }
  table.print(std::cout);
  std::cout << '\n';
  harness::print_bar_chart(std::cout, "Figure 3 (bars, % of runtime)",
                           groups, {"sigio", "wait", "os", "app"}, values,
                           100.0);
  std::cout << "Paper's observation: fft, shallow and swm have substantial "
               "OS components,\ndominated by mprotect under VM stress.\n";
  return 0;
}
