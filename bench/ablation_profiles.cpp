// X4: interconnect cost-profile ablation. The paper's §3-§4 conclusions
// (update beats invalidate; overdrive pays) are derived on the 1998 SP-2
// cost vector (160us RPC, 45us per message). This ablation re-runs three
// representative iterative apps (a stencil, a vector kernel, a
// transpose-heavy FFT) under all six fixed protocols PLUS the adaptive
// per-page selector on both built-in profiles (sp2 and rdma) and reports
//   (a) which fixed-protocol rankings invert when the network gets four
//       orders of magnitude cheaper per message, and
//   (b) how close the adaptive selector lands to the best fixed protocol
//       on every (app x profile) cell -- the within-5% acceptance claim.
// Emits BENCH_profiles.json. Deterministic by construction (virtual-time
// results depend only on workload + config); the bench_profiles_determinism
// ctest pins byte-identical output across --jobs and --workers.
#include <cstdio>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace updsm;

constexpr const char* kApps[] = {"jacobi", "tomcat", "fft"};
constexpr const char* kProfiles[] = {"sp2", "rdma"};

}  // namespace

int main(int argc, char** argv) {
  using protocols::ProtocolKind;
  bench::BenchOptions opt;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::jobs_flag(opt), bench::quick_flag(opt)},
       .owned = {"net-profile"}});

  const std::vector<ProtocolKind> fixed = protocols::all_paper_protocols();
  const std::vector<ProtocolKind> grid = protocols::all_protocols_with_adaptive();
  std::vector<bench::GridCell> cells;
  for (const char* app : kApps) {
    for (const ProtocolKind kind : grid) {
      cells.push_back(bench::GridCell{app, kind});
    }
  }

  // One cache per profile: same workloads, different cost vector. Any
  // --cost=K=V overrides compose on top of BOTH profiles (that is the
  // point of an override: perturb one knob, keep the rest of the sweep).
  // speedup[profile][app][protocol]
  std::map<std::string, std::map<std::string, std::map<std::string, double>>>
      speedup;
  std::map<std::string, std::map<std::string, std::map<std::string, double>>>
      elapsed_ms;
  std::map<std::string, std::map<std::string, std::uint64_t>> switches;
  for (const char* profile : kProfiles) {
    bench::BenchOptions popt = opt;
    popt.cluster.net_profile = profile;
    const bench::RunCache cache(popt, cells);
    for (const bench::GridCell& cell : cells) {
      const char* proto = protocols::to_string(cell.kind);
      speedup[profile][cell.app][proto] = cache.speedup(cell.app, cell.kind);
      elapsed_ms[profile][cell.app][proto] =
          sim::to_msec(cache.parallel(cell.app, cell.kind).elapsed);
      if (cell.kind == ProtocolKind::Adaptive) {
        switches[profile][cell.app] =
            cache.parallel(cell.app, cell.kind)
                .counters.adaptive_switches.load();
      }
    }
  }

  // Per-profile speedup tables.
  std::printf("Ablation X4: cost profiles (sp2 vs rdma), %d nodes, scale %.2f, "
              "%d iters\n",
              opt.cluster.num_nodes, opt.app.scale,
              opt.app.measured_iterations);
  for (const char* profile : kProfiles) {
    std::printf("\n%s profile (speedup vs sequential):\n  %-10s", profile,
                "protocol");
    for (const char* app : kApps) std::printf(" %8s", app);
    std::printf("\n");
    for (const ProtocolKind kind : grid) {
      const char* proto = protocols::to_string(kind);
      std::printf("  %-10s", proto);
      for (const char* app : kApps) {
        std::printf(" %8.2f", speedup[profile][app][proto]);
      }
      std::printf("\n");
    }
  }

  // (a) Fixed-protocol ranking inversions between the two profiles: pairs
  // (p, q) with p strictly faster than q on sp2 but strictly slower on
  // rdma, per app. (Ties never count as an inversion.)
  struct Inversion {
    std::string app, faster_sp2, faster_rdma;
    double sp2_margin, rdma_margin;
  };
  std::vector<Inversion> inversions;
  for (const char* app : kApps) {
    for (std::size_t i = 0; i < fixed.size(); ++i) {
      for (std::size_t j = i + 1; j < fixed.size(); ++j) {
        const char* p = protocols::to_string(fixed[i]);
        const char* q = protocols::to_string(fixed[j]);
        const double sp = speedup["sp2"][app][p] - speedup["sp2"][app][q];
        const double rd = speedup["rdma"][app][p] - speedup["rdma"][app][q];
        if (sp > 0 && rd < 0) {
          inversions.push_back({app, p, q, sp, -rd});
        } else if (sp < 0 && rd > 0) {
          inversions.push_back({app, q, p, -sp, rd});
        }
      }
    }
  }
  std::printf("\nfixed-protocol ranking inversions (sp2 -> rdma): %zu\n",
              inversions.size());
  for (const Inversion& inv : inversions) {
    std::printf("  %-7s %s beats %s on sp2 (+%.2f) but loses on rdma "
                "(-%.2f)\n",
                inv.app.c_str(), inv.faster_sp2.c_str(),
                inv.faster_rdma.c_str(), inv.sp2_margin, inv.rdma_margin);
  }

  // (b) Adaptive vs the best fixed protocol, per cell. bar-m is reported
  // but also factored out: it skips the quiet-epoch twin scans by fiat
  // and "is not guaranteed to maintain consistency" (paper §5), so it is
  // an unsafe upper bound rather than a deployable competitor. The
  // per-cell mode switches settle during warmup (that is the point of a
  // warmup), so the measured-window adaptive_switches counter in the
  // JSON is normally 0 here; conformance tests pin the switching itself.
  std::printf("\nadaptive vs best fixed protocol (bar-m = unsafe bound):\n");
  double max_gap_pct = 0.0;
  double max_safe_gap_pct = 0.0;
  struct GapRow {
    std::string profile, app, best_fixed, best_safe;
    double best_speedup, adaptive_speedup, gap_pct;
    double best_safe_speedup, safe_gap_pct;
    std::uint64_t switches;
  };
  std::vector<GapRow> gaps;
  for (const char* profile : kProfiles) {
    for (const char* app : kApps) {
      std::string best_name, best_safe_name;
      double best = 0.0, best_safe = 0.0;
      for (const ProtocolKind kind : fixed) {
        const char* proto = protocols::to_string(kind);
        const double s = speedup[profile][app][proto];
        if (s > best) {
          best = s;
          best_name = proto;
        }
        if (s > best_safe && std::string_view(proto) != "bar-m") {
          best_safe = s;
          best_safe_name = proto;
        }
      }
      const double ad = speedup[profile][app]["adaptive"];
      const double gap_pct = 100.0 * (best - ad) / best;
      const double safe_gap_pct = 100.0 * (best_safe - ad) / best_safe;
      max_gap_pct = std::max(max_gap_pct, gap_pct);
      max_safe_gap_pct = std::max(max_safe_gap_pct, safe_gap_pct);
      gaps.push_back({profile, app, best_name, best_safe_name, best, ad,
                      gap_pct, best_safe, safe_gap_pct,
                      switches[profile][app]});
      std::printf("  %-5s %-7s best %-6s %5.2f  adaptive %5.2f  gap %+6.2f%% "
                  " | best safe %-6s %5.2f  gap %+6.2f%%\n",
                  profile, app, best_name.c_str(), best, ad, gap_pct,
                  best_safe_name.c_str(), best_safe, safe_gap_pct);
    }
  }
  std::printf("\nmax adaptive gap: %.2f%% vs best fixed, %.2f%% vs best "
              "SAFE fixed\n(acceptance: within ~5%% of the best fixed "
              "protocol everywhere; the residual\nvs bar-m is the "
              "quiet-epoch scan tax it unsafely skips)\n",
              max_gap_pct, max_safe_gap_pct);

  // --- BENCH_profiles.json ---------------------------------------------
  {
    bench::BenchJson json("BENCH_profiles.json", bench::provenance(opt));
    json.text("bench", "cost_profiles");
    json.field("scale", "%.3f", opt.app.scale);
    json.field("iters", "%d", opt.app.measured_iterations);
    json.field("nodes", "%d", opt.cluster.num_nodes);
    // This bench sweeps both profiles itself, so the uniform key records
    // the sweep (per-run cells carry their own profile).
    json.text("net_profile", "sweep");
    json.texts("cost_overrides", opt.cost_overrides);
    json.begin_rows("runs");
    for (const char* profile : kProfiles) {
      for (const char* app : kApps) {
        for (const ProtocolKind kind : grid) {
          const char* proto = protocols::to_string(kind);
          json.begin_row();
          json.text("profile", profile);
          json.text("app", app);
          json.text("protocol", proto);
          json.field("speedup", "%.4f", speedup[profile][app][proto]);
          json.field("elapsed_ms", "%.3f", elapsed_ms[profile][app][proto]);
          json.field("correct", "true");
          json.end_row();
        }
      }
    }
    json.end_rows();
    json.begin_rows("adaptive");
    for (const GapRow& g : gaps) {
      json.begin_row();
      json.text("profile", g.profile);
      json.text("app", g.app);
      json.text("best_fixed", g.best_fixed);
      json.field("best_speedup", "%.4f", g.best_speedup);
      json.field("adaptive_speedup", "%.4f", g.adaptive_speedup);
      json.field("gap_pct", "%.3f", g.gap_pct);
      json.text("best_safe_fixed", g.best_safe);
      json.field("best_safe_speedup", "%.4f", g.best_safe_speedup);
      json.field("safe_gap_pct", "%.3f", g.safe_gap_pct);
      json.field("adaptive_switches", "%llu",
                 static_cast<unsigned long long>(g.switches));
      json.end_row();
    }
    json.end_rows();
    json.begin_rows("inversions");
    for (const Inversion& inv : inversions) {
      json.begin_row();
      json.text("app", inv.app);
      json.text("faster_on_sp2", inv.faster_sp2);
      json.text("faster_on_rdma", inv.faster_rdma);
      json.end_row();
    }
    json.end_rows();
    json.field("ranking_inversions", "%zu", inversions.size());
    json.field("max_adaptive_gap_pct", "%.3f", max_gap_pct);
    json.field("max_adaptive_safe_gap_pct", "%.3f", max_safe_gap_pct);
  }
  std::printf("wrote BENCH_profiles.json (%zu cells x 2 profiles, all "
              "bit-exact vs sequential)\n",
              cells.size());
  return 0;
}
