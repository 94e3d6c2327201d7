// A1: one binary that checks every quantitative claim of the paper's
// abstract and evaluation sections against this reproduction, printing
// paper-value vs measured-value side by side (the source of
// EXPERIMENTS.md's summary table). A claim holds when the measured value
// has the paper's sign or lies within 5 points of it; the bench exits 1,
// naming each claim that does not hold on stderr, so a flipped claim
// fails its ctest.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace updsm;
  using protocols::ProtocolKind;
  bench::BenchOptions opt;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::jobs_flag(opt), bench::quick_flag(opt)}});
  const bench::RunCache cache(opt, bench::full_grid());

  struct Claim {
    std::string description;
    double paper;
    double measured;
  };
  std::vector<Claim> claims;

  const auto apps_all = apps::app_names();
  const auto n_all = static_cast<double>(apps_all.size());

  // --- Table-1 aggregates (bar-i vs lmw-i), §3.3 --------------------------
  double diffs = 0;
  double misses = 0;
  double msgs = 0;
  double data = 0;
  for (const auto app : apps_all) {
    const auto& li = cache.parallel(app, ProtocolKind::LmwI);
    const auto& bi = cache.parallel(app, ProtocolKind::BarI);
    diffs += static_cast<double>(bi.counters.diffs_created) /
             static_cast<double>(std::max<std::uint64_t>(
                 1, li.counters.diffs_created));
    misses += static_cast<double>(bi.counters.remote_misses) /
              static_cast<double>(std::max<std::uint64_t>(
                  1, li.counters.remote_misses));
    msgs += static_cast<double>(bi.net.table_messages()) /
            static_cast<double>(li.net.table_messages());
    data += static_cast<double>(bi.net.total_bytes()) /
            static_cast<double>(li.net.total_bytes());
  }
  claims.push_back({"bar-i diffs vs lmw-i (%)", -36.0,
                    100.0 * (diffs / n_all - 1.0)});
  claims.push_back({"bar-i remote misses vs lmw-i (%)", -31.0,
                    100.0 * (misses / n_all - 1.0)});
  claims.push_back({"bar-i messages vs lmw-i (%)", -49.0,
                    100.0 * (msgs / n_all - 1.0)});
  claims.push_back({"bar-i data vs lmw-i (%)", +74.0,
                    100.0 * (data / n_all - 1.0)});

  // --- speedup aggregates, §3.3 / §5.1 ------------------------------------
  double bu_vs_lmw = 0;
  for (const auto app : apps_all) {
    const double best = std::max(cache.speedup(app, ProtocolKind::LmwI),
                                 cache.speedup(app, ProtocolKind::LmwU));
    bu_vs_lmw += cache.speedup(app, ProtocolKind::BarU) / best;
  }
  claims.push_back({"bar-u speedup vs best lmw (%)", +19.0,
                    100.0 * (bu_vs_lmw / n_all - 1.0)});

  double s_vs_u = 0;
  double m_vs_u = 0;
  double m_vs_li = 0;
  double n_od = 0;
  for (const auto app : apps_all) {
    if (!bench::overdrive_safe(app)) continue;
    s_vs_u += cache.speedup(app, ProtocolKind::BarS) /
              cache.speedup(app, ProtocolKind::BarU);
    m_vs_u += cache.speedup(app, ProtocolKind::BarM) /
              cache.speedup(app, ProtocolKind::BarU);
    m_vs_li += cache.speedup(app, ProtocolKind::BarM) /
               cache.speedup(app, ProtocolKind::LmwI);
    n_od += 1.0;
  }
  claims.push_back({"bar-s speedup vs bar-u (%)", +2.0,
                    100.0 * (s_vs_u / n_od - 1.0)});
  claims.push_back({"bar-m speedup vs bar-u (%)", +34.0,
                    100.0 * (m_vs_u / n_od - 1.0)});
  claims.push_back({"overall: bar-m vs lmw-i (%)", +51.0,
                    100.0 * (m_vs_li / n_od - 1.0)});

  // --- remote-miss elimination by updates, §3.3 ----------------------------
  std::uint64_t li_miss = 0;
  std::uint64_t lu_miss = 0;
  std::uint64_t bu_miss = 0;
  for (const auto app : apps_all) {
    li_miss += cache.parallel(app, ProtocolKind::LmwI).counters.remote_misses;
    lu_miss += cache.parallel(app, ProtocolKind::LmwU).counters.remote_misses;
    bu_miss += cache.parallel(app, ProtocolKind::BarU).counters.remote_misses;
  }
  claims.push_back({"lmw-u misses / lmw-i misses (%)", 1.0,
                    100.0 * static_cast<double>(lu_miss) /
                        static_cast<double>(li_miss)});
  claims.push_back({"bar-u misses / lmw-i misses (%)", 0.0,
                    100.0 * static_cast<double>(bu_miss) /
                        static_cast<double>(li_miss)});

  std::cout << "Claim check (" << opt.cluster.num_nodes << " nodes, scale "
            << harness::fmt(opt.app.scale, 2) << ", "
            << opt.app.measured_iterations << " measured iterations)\n\n";
  harness::TextTable table({"claim", "paper", "measured", "same sign/shape"});
  bool all_hold = true;
  for (const auto& c : claims) {
    const bool same = (c.paper >= 0) == (c.measured >= 0) ||
                      std::abs(c.paper - c.measured) < 5.0;
    table.add_row({c.description, harness::fmt(c.paper, 1),
                   harness::fmt(c.measured, 1), same ? "yes" : "NO"});
    if (!same) {
      std::cerr << "claim does not hold: " << c.description << ": paper "
                << harness::fmt(c.paper, 1) << ", measured "
                << harness::fmt(c.measured, 1) << "\n";
      all_hold = false;
    }
  }
  table.print(std::cout);
  std::cout << "\n(The absolute numbers depend on the simulated platform "
               "calibration;\nthe reproduction targets sign and rough "
               "magnitude, per DESIGN.md.)\n";
  return all_hold ? 0 : 1;
}
