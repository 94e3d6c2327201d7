// Reproduces Figure 4, "Overdrive Speedups": best-of-lmw, bar-u, bar-s and
// bar-m for the seven applications with invariant sharing (barnes is
// excluded: its sharing pattern, although iterative, is highly dynamic --
// paper §5.1).
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace updsm;
  using protocols::ProtocolKind;
  bench::BenchOptions opt;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::jobs_flag(opt), bench::quick_flag(opt)}});

  std::vector<std::string> app_list;
  std::vector<bench::GridCell> cells;
  for (const auto app : apps::app_names()) {
    if (!bench::overdrive_safe(app)) continue;
    app_list.emplace_back(app);
    for (const auto kind :
         {ProtocolKind::LmwI, ProtocolKind::LmwU, ProtocolKind::BarU,
          ProtocolKind::BarS, ProtocolKind::BarM}) {
      cells.push_back(bench::GridCell{std::string(app), kind});
    }
  }
  const bench::RunCache cache(opt, cells);

  std::vector<std::string> series{"lmw", "bar-u", "bar-s", "bar-m"};
  std::vector<std::vector<double>> values(4);
  for (const auto& app : app_list) {
    values[0].push_back(std::max(cache.speedup(app, ProtocolKind::LmwI),
                                 cache.speedup(app, ProtocolKind::LmwU)));
    values[1].push_back(cache.speedup(app, ProtocolKind::BarU));
    values[2].push_back(cache.speedup(app, ProtocolKind::BarS));
    values[3].push_back(cache.speedup(app, ProtocolKind::BarM));
  }

  std::cout << "Figure 4: Overdrive Speedups (" << opt.cluster.num_nodes
            << " nodes, scale " << harness::fmt(opt.app.scale, 2)
            << "; barnes excluded)\n\n";
  harness::TextTable table({"app", "lmw", "bar-u", "bar-s", "bar-m"});
  for (std::size_t a = 0; a < app_list.size(); ++a) {
    table.add_row({app_list[a], harness::fmt(values[0][a]),
                   harness::fmt(values[1][a]), harness::fmt(values[2][a]),
                   harness::fmt(values[3][a])});
  }
  table.print(std::cout);
  std::cout << '\n';
  harness::print_bar_chart(std::cout, "Figure 4 (bars, max = ideal speedup)",
                           app_list, series, values,
                           static_cast<double>(opt.cluster.num_nodes));

  // Paper §5.1 aggregates: bar-s gains ~2% over bar-u; bar-m a further
  // ~34%; overall bar protocols ~51% over lmw-i.
  double s_gain = 0;
  double m_gain = 0;
  for (std::size_t a = 0; a < app_list.size(); ++a) {
    s_gain += values[2][a] / values[1][a];
    m_gain += values[3][a] / values[1][a];
  }
  const auto n = static_cast<double>(app_list.size());
  std::cout << "bar-s vs bar-u: " << harness::fmt(100 * (s_gain / n - 1), 1)
            << "% (paper: ~2%)\n"
            << "bar-m vs bar-u: " << harness::fmt(100 * (m_gain / n - 1), 1)
            << "% (paper: ~34%)\n";
  return 0;
}
