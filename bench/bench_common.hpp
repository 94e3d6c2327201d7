// Shared plumbing for the table/figure bench binaries: the bench flags on
// top of the shared flag table, the BENCH_*.json writer, the sweep runner
// every simulation bench executes its runs through, and the canonical
// experiment grid (8 apps x protocols at paper scale) with a keyed view so
// one binary can build several views of the same runs.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "updsm/harness/cli.hpp"
#include "updsm/harness/experiment.hpp"
#include "updsm/harness/parallel_grid.hpp"
#include "updsm/harness/report.hpp"
#include "updsm/sim/gang.hpp"

namespace updsm::bench {

/// A bench's command line: the shared flag table plus --jobs and --quick.
struct BenchOptions : harness::RunOptions {
  /// Sweep worker count; 1 runs the plan serially in plan order. Output is
  /// byte-identical for every value (results land by plan index, and each
  /// run is an independent deterministic simulation).
  int jobs = harness::default_jobs();
};

/// --quick: quarter-scale problems and 4 measured iterations. It applies
/// where it stands, so a later --scale or --iters still wins.
inline harness::ToolFlag quick_flag(BenchOptions& opt) {
  return {"quick", "", "quarter-scale problems, 4 measured iterations",
          [&opt](std::string_view) {
            opt.app.scale = 0.25;
            opt.app.measured_iterations = 4;
          }};
}

/// --jobs, for the benches that run through the Sweep runner.
inline harness::ToolFlag jobs_flag(BenchOptions& opt) {
  return {"jobs", "N",
          "experiment-grid workers (default: host cores; output is\n"
          "byte-identical for every N)",
          [&opt](std::string_view v) { opt.jobs = harness::parse_int(v, 1); }};
}

#ifndef UPDSM_BUILD_TYPE
#define UPDSM_BUILD_TYPE "unknown"  // set per bench in bench/benches.cmake
#endif

/// Host provenance of one BENCH file: what ran the numbers, not what they
/// are, so determinism checks skip it. `workers` is the gang's resolved
/// worker count (1 for the baton and async gangs, which run on the calling
/// thread); `gang` is the mode, or "sweep" when the bench varies it.
/// Host time depends on the compiler and build type, so they are stamped
/// next to the host's core count.
struct Provenance {
  int workers;
  int jobs;
  const char* gang;
  const char* compiler = __VERSION__;
  const char* build_type = UPDSM_BUILD_TYPE;
};

inline Provenance provenance(const BenchOptions& opt) {
  return {opt.cluster.gang == sim::GangMode::Parallel
              ? sim::Gang::resolve_workers(opt.cluster.workers,
                                           opt.cluster.num_nodes)
              : 1,
          opt.jobs, sim::to_string(opt.cluster.gang)};
}

/// Writes one BENCH_*.json as
///   {"provenance": {host_cores, workers, jobs, gang, compiler, build_type},
///    "results": {...}}.
/// Results are written field by field, each value with its own printf
/// format, so its text is the bench's choice. A rows array holds one
/// object per line. The destructor closes the results and the file.
class BenchJson {
 public:
  BenchJson(const char* path, const Provenance& p)
      : f_(std::fopen(path, "w")) {
    if (f_ == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      std::exit(1);
    }
    std::fprintf(f_,
                 "{\n  \"provenance\": {\"host_cores\": %u, \"workers\": %d, "
                 "\"jobs\": %d, \"gang\": \"%s\", \"compiler\": \"%s\", "
                 "\"build_type\": \"%s\"},\n  \"results\": {",
                 std::thread::hardware_concurrency(), p.workers, p.jobs,
                 p.gang, p.compiler, p.build_type);
  }
  ~BenchJson() {
    std::fputs("\n  }\n}\n", f_);
    std::fclose(f_);
  }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  /// "key": value, the value printed with `fmt`.
  __attribute__((format(printf, 3, 4))) void field(const char* key,
                                                   const char* fmt, ...) {
    std::fputs(in_row_ ? (first_ ? "" : ", ") : (first_ ? "\n    " : ",\n    "),
               f_);
    first_ = false;
    std::fprintf(f_, "\"%s\": ", key);
    std::va_list args;
    va_start(args, fmt);
    std::vfprintf(f_, fmt, args);
    va_end(args);
  }
  void text(const char* key, std::string_view value) {
    field(key, "\"%.*s\"", static_cast<int>(value.size()), value.data());
  }
  void texts(const char* key, const std::vector<std::string>& values) {
    std::string list;
    for (const std::string& v : values) {
      list += (list.empty() ? "\"" : ", \"") + v + "\"";
    }
    field(key, "[%s]", list.c_str());
  }
  /// "key": [ then begin_row() ... end_row() per row, then end_rows(): ].
  void begin_rows(const char* key) {
    field(key, "[");
    first_row_ = true;
  }
  void end_rows() {
    std::fputs("\n    ]", f_);
    first_ = false;
  }
  void begin_row() {
    std::fputs(first_row_ ? "\n      {" : ",\n      {", f_);
    first_row_ = false;
    in_row_ = true;
    first_ = true;
  }
  void end_row() {
    std::fputc('}', f_);
    in_row_ = false;
  }

 private:
  std::FILE* f_;
  bool in_row_ = false;
  bool first_ = true;  // no field yet in the current object
  bool first_row_ = true;
};

/// The one way a simulation bench executes runs. The bench plans every run
/// up front: an app under a protocol on a cluster, plus the sequential
/// baseline whose checksum it must reproduce bit for bit (paper §3.1), or
/// marked self-checked. run() executes the plan on the --jobs pool and
/// checks every run against its baseline before it returns any result; a
/// divergent run exits 1 naming it. Results land by plan index, so the
/// output is byte-identical at any job count.
class Sweep {
 public:
  using Index = std::size_t;

  explicit Sweep(const BenchOptions& opt) : params_(opt.app), jobs_(opt.jobs) {}

  /// Plans the nulled-sync sequential run of `app` (one process, whatever
  /// cfg.num_nodes says). The bench declares which runs share it.
  Index plan_sequential(std::string_view app, const dsm::ClusterConfig& cfg) {
    return add(app, std::nullopt, cfg, kUnchecked);
  }
  /// Plans `app` under `kind`; it must reproduce the checksum of the run
  /// planned as `sequential`.
  Index plan(std::string_view app, protocols::ProtocolKind kind,
             const dsm::ClusterConfig& cfg, Index sequential) {
    return add(app, kind, cfg, sequential);
  }
  /// Plans a run that checks itself: the async stencils report convergence
  /// as their checksum, and their in-place chaotic byte pattern is
  /// schedule-dependent by design, so it has no sequential twin.
  Index plan_self_checked(std::string_view app, protocols::ProtocolKind kind,
                          const dsm::ClusterConfig& cfg) {
    return add(app, kind, cfg, kUnchecked);
  }

  /// Executes the plan, checks it, and returns the results by plan index.
  [[nodiscard]] std::vector<harness::RunResult> run() const {
    std::vector<std::function<harness::RunResult()>> tasks;
    for (const Planned& p : plan_) {
      tasks.push_back([&p, this] {
        return p.kind ? harness::run_app(p.app, *p.kind, p.cfg, params_)
                      : harness::run_sequential(p.app, p.cfg, params_);
      });
    }
    std::vector<harness::RunResult> results =
        harness::run_grid(tasks, jobs_);
    // A bench must never report numbers from a wrong answer.
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      const Planned& p = plan_[i];
      if (p.sequential != kUnchecked &&
          results[i].checksum != results[p.sequential].checksum) {
        std::fprintf(stderr,
                     "FATAL: %s under %s at %d nodes diverged from the "
                     "sequential result\n",
                     p.app.c_str(), protocols::to_string(*p.kind),
                     p.cfg.num_nodes);
        std::exit(1);
      }
    }
    return results;
  }

 private:
  static constexpr Index kUnchecked = SIZE_MAX;

  struct Planned {
    std::string app;
    std::optional<protocols::ProtocolKind> kind;  // empty: sequential
    dsm::ClusterConfig cfg;
    Index sequential;
  };

  Index add(std::string_view app, std::optional<protocols::ProtocolKind> kind,
            const dsm::ClusterConfig& cfg, Index sequential) {
    plan_.push_back(Planned{std::string(app), kind, cfg, sequential});
    return plan_.size() - 1;
  }

  apps::AppParams params_;
  int jobs_;
  std::vector<Planned> plan_;
};

/// One cell of the experiment grid: an application under a protocol.
struct GridCell {
  std::string app;
  protocols::ProtocolKind kind;
};

/// A keyed view over one Sweep of an app x protocol grid on the bench's
/// cluster: each cell is checked against its app's sequential baseline,
/// planned once per app and shared by all of its cells. Only planned cells
/// can be looked up; any other throws std::out_of_range.
class RunCache {
 public:
  RunCache(const BenchOptions& opt, const std::vector<GridCell>& cells) {
    const dsm::ClusterConfig cfg = opt.cluster_config();
    Sweep sweep(opt);
    for (const GridCell& cell : cells) {
      const auto [seq, first] = index_.try_emplace(cell.app + "/seq");
      if (first) seq->second = sweep.plan_sequential(cell.app, cfg);
      index_.emplace(cell.app + "/" + protocols::to_string(cell.kind),
                     sweep.plan(cell.app, cell.kind, cfg, seq->second));
    }
    results_ = sweep.run();
  }

  [[nodiscard]] const harness::RunResult& parallel(
      std::string_view app, protocols::ProtocolKind kind) const {
    return at(std::string(app) + "/" + protocols::to_string(kind));
  }

  [[nodiscard]] const harness::RunResult& sequential(
      std::string_view app) const {
    return at(std::string(app) + "/seq");
  }

  [[nodiscard]] double speedup(std::string_view app,
                               protocols::ProtocolKind kind) const {
    return harness::speedup(parallel(app, kind), sequential(app));
  }

 private:
  const harness::RunResult& at(const std::string& key) const {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      throw std::out_of_range("RunCache: " + key + " was not planned");
    }
    return results_[it->second];
  }

  std::map<std::string, Sweep::Index> index_;
  std::vector<harness::RunResult> results_;
};

/// Apps excluded from overdrive (dynamic sharing), per paper §5.1.
[[nodiscard]] inline bool overdrive_safe(std::string_view app) {
  apps::AppParams probe;
  return apps::make_app(app, probe)->overdrive_safe();
}

/// All apps under every paper protocol, with the overdrive protocols
/// filtered to overdrive-safe apps -- the grid of sweep_matrix and
/// claims_summary.
[[nodiscard]] inline std::vector<GridCell> full_grid() {
  using protocols::ProtocolKind;
  std::vector<GridCell> cells;
  for (const auto app : apps::app_names()) {
    for (const auto kind : protocols::all_paper_protocols()) {
      if (!overdrive_safe(app) &&
          (kind == ProtocolKind::BarS || kind == ProtocolKind::BarM)) {
        continue;
      }
      cells.push_back(GridCell{std::string(app), kind});
    }
  }
  return cells;
}

/// All apps under the four base protocols (table1, fig2).
[[nodiscard]] inline std::vector<GridCell> base_grid() {
  std::vector<GridCell> cells;
  for (const auto app : apps::app_names()) {
    for (const auto kind : protocols::base_protocols()) {
      cells.push_back(GridCell{std::string(app), kind});
    }
  }
  return cells;
}

/// All apps under one protocol (fig3's bar-u column).
[[nodiscard]] inline std::vector<GridCell> single_protocol_grid(
    protocols::ProtocolKind kind) {
  std::vector<GridCell> cells;
  for (const auto app : apps::app_names()) {
    cells.push_back(GridCell{std::string(app), kind});
  }
  return cells;
}

}  // namespace updsm::bench
