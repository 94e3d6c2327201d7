// Shared plumbing for the table/figure bench binaries: the bench flags on
// top of the shared flag table, the BENCH_*.json writer, the canonical
// experiment grid (8 apps x protocols at paper scale), and result caching
// so one binary can build several views of the same runs.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
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
  /// Experiment-grid worker count; 1 reproduces the serial behavior.
  /// Output is byte-identical for every value (results are collected by
  /// grid index, and each cell is an independent deterministic simulation).
  int jobs = harness::default_jobs();
  /// Set by --quick (wallclock_scaling also sweeps fewer node counts).
  bool quick = false;
};

/// --quick: quarter-scale problems and 4 measured iterations. It applies
/// where it stands, so a later --scale or --iters still wins.
inline harness::ToolFlag quick_flag(BenchOptions& opt) {
  return {"quick", "", "quarter-scale problems, 4 measured iterations",
          [&opt](std::string_view) {
            opt.app.scale = 0.25;
            opt.app.measured_iterations = 4;
            opt.quick = true;
          }};
}

/// --jobs, for the benches that run their cells on a grid.
inline harness::ToolFlag jobs_flag(BenchOptions& opt) {
  return {"jobs", "N",
          "experiment-grid workers (default: host cores; output is\n"
          "byte-identical for every N)",
          [&opt](std::string_view v) { opt.jobs = harness::parse_int(v, 1); }};
}

/// Host provenance of one BENCH file: what ran the numbers, not what they
/// are, so determinism checks skip it. `workers` is the gang's resolved
/// worker count; `gang` is the mode, or "sweep" when the bench varies it.
struct Provenance {
  int workers;
  int jobs;
  const char* gang;
};

inline Provenance provenance(const BenchOptions& opt) {
  return {sim::Gang::resolve_workers(opt.cluster.workers,
                                     opt.cluster.num_nodes),
          opt.jobs, sim::to_string(opt.cluster.gang)};
}

/// Writes one BENCH_*.json as
///   {"provenance": {host_cores, workers, jobs, gang}, "results": {...}}.
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
                 "\"jobs\": %d, \"gang\": \"%s\"},\n  \"results\": {",
                 std::thread::hardware_concurrency(), p.workers, p.jobs,
                 p.gang);
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

/// One cell of the experiment grid: an application under a protocol.
struct GridCell {
  std::string app;
  protocols::ProtocolKind kind;
};

/// Runs (and caches) the experiment grid used by several benches.
///
/// Benches declare their whole grid up front with warm(), which executes
/// the missing cells on a worker pool (BenchOptions::jobs wide) and fills
/// the cache; the subsequent per-cell accessors then never run anything,
/// so the printed output is byte-identical no matter how many workers ran.
/// Accessors also work without warm() -- they fall back to running the
/// cell inline, exactly the pre-parallel behavior.
class RunCache {
 public:
  explicit RunCache(const BenchOptions& opt) : opt_(opt) {}

  /// Runs every not-yet-cached cell, plus the sequential baseline of every
  /// app named by `cells` (computed once per app and shared across all of
  /// its cells), on `opt.jobs` workers.
  void warm(const std::vector<GridCell>& cells) {
    std::vector<std::string> keys;
    std::vector<std::function<harness::RunResult()>> tasks;
    auto plan = [&](const std::string& key,
                    std::function<harness::RunResult()> task) {
      if (cache_.count(key) != 0) return;
      // Dedup within this warm() call: the same app appears in many cells.
      if (std::find(keys.begin(), keys.end(), key) != keys.end()) return;
      keys.push_back(key);
      tasks.push_back(std::move(task));
    };
    for (const GridCell& cell : cells) {
      const BenchOptions opt = opt_;
      plan(cell.app + "/seq", [opt, app = cell.app] {
        return harness::run_sequential(app, opt.cluster_config(), opt.app);
      });
      plan(cell.app + "/" + protocols::to_string(cell.kind),
           [opt, app = cell.app, kind = cell.kind] {
             return harness::run_app(app, kind, opt.cluster_config(), opt.app);
           });
    }
    std::vector<harness::RunResult> results =
        harness::run_grid(tasks, opt_.jobs);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      cache_.emplace(keys[i], std::move(results[i]));
    }
  }

  const harness::RunResult& parallel(std::string_view app,
                                     protocols::ProtocolKind kind) {
    const std::string key =
        std::string(app) + "/" + protocols::to_string(kind);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_
               .emplace(key, harness::run_app(app, kind,
                                              opt_.cluster_config(),
                                              opt_.app))
               .first;
    }
    return it->second;
  }

  const harness::RunResult& sequential(std::string_view app) {
    const std::string key = std::string(app) + "/seq";
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_
               .emplace(key, harness::run_sequential(app,
                                                     opt_.cluster_config(),
                                                     opt_.app))
               .first;
    }
    return it->second;
  }

  double speedup(std::string_view app, protocols::ProtocolKind kind) {
    return harness::speedup(parallel(app, kind), sequential(app));
  }

  /// Checks that the run reproduced the sequential checksum; aborts loudly
  /// otherwise (a bench must never report numbers from a wrong answer).
  void verify(std::string_view app, protocols::ProtocolKind kind) {
    const auto& par = parallel(app, kind);
    const auto& seq = sequential(app);
    if (par.checksum != seq.checksum) {
      std::fprintf(stderr,
                   "FATAL: %s under %s diverged from sequential result\n",
                   std::string(app).c_str(), protocols::to_string(kind));
      std::exit(1);
    }
  }

 private:
  BenchOptions opt_;
  std::map<std::string, harness::RunResult> cache_;
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
