// Reproduces Figure 2, "8-Proc Speedups": lmw-i, lmw-u, bar-i and bar-u
// speedups over the nulled-sync sequential baseline for all eight
// applications (paper §3.3).
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace updsm;
  using protocols::ProtocolKind;
  bench::BenchOptions opt;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::jobs_flag(opt), bench::quick_flag(opt)}});
  const bench::RunCache cache(opt, bench::base_grid());

  const auto protos = protocols::base_protocols();
  std::vector<std::string> app_list;
  for (const auto app : apps::app_names()) app_list.emplace_back(app);

  std::vector<std::string> series;
  std::vector<std::vector<double>> values;
  for (const auto kind : protos) {
    series.emplace_back(protocols::to_string(kind));
    std::vector<double> row;
    for (const auto app : apps::app_names()) {
      row.push_back(cache.speedup(app, kind));
    }
    values.push_back(std::move(row));
  }

  harness::TextTable table({"app", "lmw-i", "lmw-u", "bar-i", "bar-u"});
  for (std::size_t a = 0; a < app_list.size(); ++a) {
    table.add_row({app_list[a], harness::fmt(values[0][a]),
                   harness::fmt(values[1][a]), harness::fmt(values[2][a]),
                   harness::fmt(values[3][a])});
  }
  std::cout << "Figure 2: 8-Proc Speedups (" << opt.cluster.num_nodes
            << " nodes, scale " << harness::fmt(opt.app.scale, 2) << ")\n\n";
  table.print(std::cout);
  std::cout << '\n';
  harness::print_bar_chart(std::cout, "Figure 2 (bars, max = ideal speedup)",
                           app_list, series, values,
                           static_cast<double>(opt.cluster.num_nodes));

  // Paper headline: bar-u averages ~19% more speedup than the better of
  // the two lmw protocols.
  double gain = 0;
  for (const auto app : apps::app_names()) {
    const double best_lmw = std::max(cache.speedup(app, ProtocolKind::LmwI),
                                     cache.speedup(app, ProtocolKind::LmwU));
    gain += cache.speedup(app, ProtocolKind::BarU) / best_lmw;
  }
  gain = gain / static_cast<double>(app_list.size()) - 1.0;
  std::cout << "bar-u vs best(lmw): " << harness::fmt(100 * gain, 1)
            << "% average speedup gain (paper: ~19%)\n";
  return 0;
}
