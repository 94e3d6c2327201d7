// X1: mprotect-stress ablation. The paper's §4 diagnosis is that bar-u's
// residual overhead is mprotect traffic under a stressed VM layer whose
// primitives are "location-dependent, occasionally an order of magnitude"
// slower. If that diagnosis is right, flattening mprotect back to its
// nominal 12 us should collapse most of bar-m's advantage. This bench runs
// bar-u and bar-m under both OS models and prints the gain each time.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace updsm;
  using protocols::ProtocolKind;
  bench::BenchOptions opt;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::jobs_flag(opt), bench::quick_flag(opt)}});

  // Per app and OS model (stressed, nominal): a sequential baseline, bar-u
  // and bar-m.
  dsm::ClusterConfig models[2] = {opt.cluster_config(), opt.cluster_config()};
  models[1].costs.os.stress_multiplier = 1.0;
  models[1].costs.os.slow_page_fraction = 0.0;
  struct Row {
    std::string app;
    bench::Sweep::Index bar_u[2];
    bench::Sweep::Index bar_m[2];
  };
  bench::Sweep sweep(opt);
  std::vector<Row> rows;
  for (const auto app : apps::app_names()) {
    if (!bench::overdrive_safe(app)) continue;
    Row row{std::string(app), {}, {}};
    for (int m = 0; m < 2; ++m) {
      const bench::Sweep::Index seq = sweep.plan_sequential(app, models[m]);
      row.bar_u[m] = sweep.plan(app, ProtocolKind::BarU, models[m], seq);
      row.bar_m[m] = sweep.plan(app, ProtocolKind::BarM, models[m], seq);
    }
    rows.push_back(row);
  }
  const std::vector<harness::RunResult> results = sweep.run();

  std::cout << "Ablation X1: bar-m gain over bar-u, with and without the "
               "mprotect stress regime\n\n";
  harness::TextTable table({"app", "bar-u os% (stressed)",
                            "bar-m gain% (stressed)",
                            "bar-u os% (nominal)",
                            "bar-m gain% (nominal)"});
  double total_gain[2] = {0, 0};
  for (const Row& row : rows) {
    std::vector<std::string> cells{row.app};
    for (int m = 0; m < 2; ++m) {
      const harness::RunResult& bar_u = results[row.bar_u[m]];
      const harness::RunResult& bar_m = results[row.bar_m[m]];
      const auto sum = bar_u.breakdown.summed();
      const double os_pct = 100.0 * static_cast<double>(sum.os) /
                            static_cast<double>(sum.total());
      const double gain = 100.0 * (static_cast<double>(bar_u.elapsed) /
                                       static_cast<double>(bar_m.elapsed) -
                                   1.0);
      cells.push_back(harness::fmt(os_pct, 1));
      cells.push_back(harness::fmt(gain, 1));
      total_gain[m] += gain;
    }
    table.add_row(std::move(cells));
  }
  table.print(std::cout);
  const auto n = static_cast<double>(rows.size());
  std::cout << "\nmean bar-m gain: stressed "
            << harness::fmt(total_gain[0] / n, 1) << "%, nominal "
            << harness::fmt(total_gain[1] / n, 1)
            << "% -- the gap is the OS-stress contribution the paper "
               "identifies\n(\"eliminating kernel traps will always help, "
               "even with tuned OS support\", paper section 5.2).\n";
  return 0;
}
