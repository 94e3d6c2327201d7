// X1: mprotect-stress ablation. The paper's §4 diagnosis is that bar-u's
// residual overhead is mprotect traffic under a stressed VM layer whose
// primitives are "location-dependent, occasionally an order of magnitude"
// slower. If that diagnosis is right, flattening mprotect back to its
// nominal 12 us should collapse most of bar-m's advantage. This bench runs
// bar-u and bar-m under both OS models and prints the gain each time.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace updsm;
  using protocols::ProtocolKind;
  bench::BenchOptions opt;
  harness::parse_flags_or_exit(argc, argv, opt,
                               {.flags = {bench::quick_flag(opt)}});

  auto run_gain = [&](std::string_view app, bool stressed, double* os_pct) {
    dsm::ClusterConfig cfg = opt.cluster_config();
    if (!stressed) {
      cfg.costs.os.stress_multiplier = 1.0;
      cfg.costs.os.slow_page_fraction = 0.0;
    }
    const auto params = opt.app;
    const auto bar_u =
        harness::run_app(app, ProtocolKind::BarU, cfg, params);
    const auto bar_m =
        harness::run_app(app, ProtocolKind::BarM, cfg, params);
    const auto sum = bar_u.breakdown.summed();
    *os_pct = 100.0 * static_cast<double>(sum.os) /
              static_cast<double>(sum.total());
    return 100.0 * (static_cast<double>(bar_u.elapsed) /
                        static_cast<double>(bar_m.elapsed) -
                    1.0);
  };

  std::cout << "Ablation X1: bar-m gain over bar-u, with and without the "
               "mprotect stress regime\n\n";
  harness::TextTable table({"app", "bar-u os% (stressed)",
                            "bar-m gain% (stressed)",
                            "bar-u os% (nominal)",
                            "bar-m gain% (nominal)"});
  double stressed_total = 0;
  double nominal_total = 0;
  int n = 0;
  for (const auto app : apps::app_names()) {
    if (!bench::overdrive_safe(app)) continue;
    double os_s = 0;
    double os_n = 0;
    const double gain_s = run_gain(app, /*stressed=*/true, &os_s);
    const double gain_n = run_gain(app, /*stressed=*/false, &os_n);
    table.add_row({std::string(app), harness::fmt(os_s, 1),
                   harness::fmt(gain_s, 1), harness::fmt(os_n, 1),
                   harness::fmt(gain_n, 1)});
    stressed_total += gain_s;
    nominal_total += gain_n;
    ++n;
  }
  table.print(std::cout);
  std::cout << "\nmean bar-m gain: stressed "
            << harness::fmt(stressed_total / n, 1) << "%, nominal "
            << harness::fmt(nominal_total / n, 1)
            << "% -- the gap is the OS-stress contribution the paper "
               "identifies\n(\"eliminating kernel traps will always help, "
               "even with tuned OS support\", paper section 5.2).\n";
  return 0;
}
