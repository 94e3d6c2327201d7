// X2: page-size ablation. The paper used an 8 KB protection granularity on
// AIX (whose native page is 4 KB) "by the simple expedient of ensuring that
// all page protection changes use an 8k granularity" (§3.2). This bench
// compares 4 KB vs 8 KB vs 16 KB under bar-u: smaller pages mean more
// protection traffic per byte but finer sharing; bigger pages amplify
// false sharing.
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace updsm;
  using protocols::ProtocolKind;
  bench::BenchOptions opt;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::jobs_flag(opt), bench::quick_flag(opt)},
       .owned = {"page-size"}});

  // Per app and page size: (sequential baseline, bar-u).
  constexpr std::uint32_t kPageSizes[] = {4096, 8192, 16384};
  bench::Sweep sweep(opt);
  std::vector<std::pair<bench::Sweep::Index, bench::Sweep::Index>> runs;
  for (const auto app : apps::app_names()) {
    for (const std::uint32_t page_size : kPageSizes) {
      dsm::ClusterConfig cfg = opt.cluster_config();
      cfg.page_size = page_size;
      const bench::Sweep::Index seq = sweep.plan_sequential(app, cfg);
      runs.emplace_back(seq, sweep.plan(app, ProtocolKind::BarU, cfg, seq));
    }
  }
  const std::vector<harness::RunResult> results = sweep.run();

  std::cout << "Ablation X2: page-size sensitivity of bar-u\n\n";
  harness::TextTable table({"app", "4kB speedup", "8kB speedup",
                            "16kB speedup", "4kB data(kB)", "8kB data(kB)",
                            "16kB data(kB)"});
  auto run = runs.begin();
  for (const auto app : apps::app_names()) {
    std::vector<std::string> row{std::string(app)};
    std::vector<std::string> data;
    for (std::size_t p = 0; p < std::size(kPageSizes); ++p, ++run) {
      const harness::RunResult& bar_u = results[run->second];
      row.push_back(
          harness::fmt(harness::speedup(bar_u, results[run->first])));
      data.push_back(std::to_string(bar_u.net.total_bytes() / 1024));
    }
    row.insert(row.end(), data.begin(), data.end());
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return 0;
}
