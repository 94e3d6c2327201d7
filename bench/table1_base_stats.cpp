// Reproduces Table 1, "Base Statistics": diff creations, remote misses,
// messages, and data communicated for lmw-i / lmw-u / bar-i / bar-u over
// the eight applications (paper §3.3).
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
  std::cout << "Table 1: Base Statistics (" << opt.cluster.num_nodes
            << " nodes, scale " << harness::fmt(opt.app.scale, 2) << ", "
            << opt.app.measured_iterations << " measured iterations)\n"
            << "columns per metric: li = lmw-i, lu = lmw-u, bi = bar-i, "
               "bu = bar-u\n\n";

  harness::TextTable table({"app",
                            "diffs li", "lu", "bi", "bu",
                            "misses li", "lu", "bi", "bu",
                            "msgs li", "lu", "bi", "bu",
                            "data(kB) li", "lu", "bi", "bu"});
  for (const auto app : apps::app_names()) {
    std::vector<std::string> row{std::string(app)};
    for (const auto kind : protos) {
      row.push_back(std::to_string(cache.parallel(app, kind)
                                       .counters.diffs_created));
    }
    for (const auto kind : protos) {
      row.push_back(std::to_string(cache.parallel(app, kind)
                                       .counters.remote_misses));
    }
    for (const auto kind : protos) {
      row.push_back(std::to_string(cache.parallel(app, kind)
                                       .net.table_messages()));
    }
    for (const auto kind : protos) {
      row.push_back(std::to_string(cache.parallel(app, kind)
                                       .net.total_bytes() / 1024));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  // Paper §3.3 aggregate relations derived from this table.
  double diff_ratio = 0;
  double miss_ratio = 0;
  double msg_ratio = 0;
  double data_ratio = 0;
  int n = 0;
  for (const auto app : apps::app_names()) {
    const auto& li = cache.parallel(app, ProtocolKind::LmwI);
    const auto& bi = cache.parallel(app, ProtocolKind::BarI);
    if (li.counters.diffs_created == 0 || li.counters.remote_misses == 0) {
      continue;
    }
    diff_ratio += static_cast<double>(bi.counters.diffs_created) /
                  static_cast<double>(li.counters.diffs_created);
    miss_ratio += static_cast<double>(bi.counters.remote_misses) /
                  static_cast<double>(li.counters.remote_misses);
    msg_ratio += static_cast<double>(bi.net.table_messages()) /
                 static_cast<double>(li.net.table_messages());
    data_ratio += static_cast<double>(bi.net.total_bytes()) /
                  static_cast<double>(li.net.total_bytes());
    ++n;
  }
  std::cout << "\nbar-i vs lmw-i (mean over apps; paper: -36% diffs, -31% "
               "misses, -49% messages, +74% data):\n"
            << "  diffs " << harness::fmt(100 * (diff_ratio / n - 1), 1)
            << "%  misses " << harness::fmt(100 * (miss_ratio / n - 1), 1)
            << "%  messages " << harness::fmt(100 * (msg_ratio / n - 1), 1)
            << "%  data " << harness::fmt(100 * (data_ratio / n - 1), 1)
            << "%\n";
  return 0;
}
