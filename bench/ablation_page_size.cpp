// X2: page-size ablation. The paper used an 8 KB protection granularity on
// AIX (whose native page is 4 KB) "by the simple expedient of ensuring that
// all page protection changes use an 8k granularity" (§3.2). This bench
// compares 4 KB vs 8 KB vs 16 KB under bar-u: smaller pages mean more
// protection traffic per byte but finer sharing; bigger pages amplify
// false sharing.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace updsm;
  using protocols::ProtocolKind;
  bench::BenchOptions opt;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::quick_flag(opt)}, .owned = {"page-size"}});

  std::cout << "Ablation X2: page-size sensitivity of bar-u\n\n";
  harness::TextTable table({"app", "4kB speedup", "8kB speedup",
                            "16kB speedup", "4kB data(kB)", "8kB data(kB)",
                            "16kB data(kB)"});
  for (const auto app : apps::app_names()) {
    std::vector<double> speedups;
    std::vector<std::uint64_t> bytes;
    for (const std::uint32_t page_size : {4096u, 8192u, 16384u}) {
      dsm::ClusterConfig cfg = opt.cluster_config();
      cfg.page_size = page_size;
      const auto params = opt.app;
      const auto par = harness::run_app(app, ProtocolKind::BarU, cfg, params);
      const auto seq = harness::run_sequential(app, cfg, params);
      if (par.checksum != seq.checksum) {
        std::cerr << "FATAL: divergence for " << app << " at page size "
                  << page_size << "\n";
        return 1;
      }
      speedups.push_back(harness::speedup(par, seq));
      bytes.push_back(par.net.total_bytes() / 1024);
    }
    table.add_row({std::string(app), harness::fmt(speedups[0]),
                   harness::fmt(speedups[1]), harness::fmt(speedups[2]),
                   std::to_string(bytes[0]), std::to_string(bytes[1]),
                   std::to_string(bytes[2])});
  }
  table.print(std::cout);
  return 0;
}
