// Application framework.
//
// Every workload from the paper's Table 1 implements this interface. The
// standard run() skeleton reproduces the paper's methodology (§3.1):
// initialisation and the first `warmup_iterations` time-steps (covering
// home migration, copyset convergence and overdrive learning) run
// unmeasured; the steady-state window then covers `measured_iterations`
// time-steps; finally node 0 computes a checksum through the DSM, outside
// the window, which the harness compares bit-for-bit against the 1-node
// sequential baseline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "updsm/dsm/node_context.hpp"
#include "updsm/mem/shared_heap.hpp"

namespace updsm::apps {

struct AppParams {
  /// Unmeasured time-steps before the window opens. Must exceed the
  /// overdrive learning iterations (default 3) by at least one so bar-s /
  /// bar-m engage before measurement.
  int warmup_iterations = 5;
  /// Time-steps inside the measurement window.
  int measured_iterations = 10;
  /// Linear problem-dimension multiplier (1.0 = paper-scale); tests use
  /// smaller values for speed.
  double scale = 1.0;
  /// Seed for synthetic datasets.
  std::uint64_t seed = 0x5ca1ab1e;
};

/// Rejects parameters that would run but report a silently wrong number: a
/// scale that is not a finite number > 0 (scaled_dim would convert a
/// negative dimension to size_t), a negative warmup, or an empty
/// measurement window (run() opens the window at iteration warmup+1, so
/// without a measured iteration the "steady state" would cover the whole
/// run, set-up included). Throws UsageError naming the field.
void validate_app_params(const AppParams& params);

class Application {
 public:
  explicit Application(const AppParams& params) : params_(params) {
    validate_app_params(params_);
  }
  virtual ~Application() = default;

  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// True for applications whose sharing pattern, while iterative, is not
  /// invariant across iterations (barnes): excluded from bar-s / bar-m
  /// (paper §5.1 -- "Barnes is not shown because its sharing pattern ...
  /// is highly dynamic").
  [[nodiscard]] virtual bool overdrive_safe() const { return true; }

  /// Registers all shared allocations. Called once, before the cluster is
  /// constructed; must be deterministic.
  virtual void allocate(mem::SharedHeap& heap) = 0;

  /// The per-node program: init -> warmup -> measured window -> checksum.
  /// Virtual for workloads whose loop is not a fixed iteration count (the
  /// async stencils run to convergence); overrides must keep the barrier
  /// count identical across nodes and call set_checksum on node 0.
  virtual void run(dsm::NodeContext& ctx);

  /// Result checksum computed by node 0 at the end of run(); identical
  /// across protocols and node counts for a correct protocol.
  [[nodiscard]] double result_checksum() const { return checksum_; }

  /// Iterations the run actually executed: the fixed warmup+measured count
  /// for the standard skeleton; run-to-convergence workloads report the
  /// largest per-node sweep count instead.
  [[nodiscard]] virtual std::uint64_t iterations_completed() const {
    return static_cast<std::uint64_t>(total_iterations());
  }
  /// Final residual for convergence workloads (0 for the fixed-iteration
  /// skeleton, which has no residual notion at this level).
  [[nodiscard]] virtual double final_residual() const { return 0.0; }

  [[nodiscard]] const AppParams& params() const { return params_; }
  [[nodiscard]] int total_iterations() const {
    return params_.warmup_iterations + params_.measured_iterations;
  }

 protected:
  void set_checksum(double v) { checksum_ = v; }

  /// Populates initial data (typically from node 0, through the DSM).
  virtual void init(dsm::NodeContext& ctx) = 0;
  /// One time-step; may contain any number of barriers, but the same
  /// number in every iteration and on every node.
  virtual void step(dsm::NodeContext& ctx, int iter) = 0;
  /// Deterministic reduction of the final state, read through the DSM.
  [[nodiscard]] virtual double compute_checksum(dsm::NodeContext& ctx) = 0;

  AppParams params_;

 private:
  double checksum_ = 0.0;
};

/// Scales a base dimension by params.scale, keeping it a positive multiple
/// of `multiple` (applications keep arrays divisible by the node count).
[[nodiscard]] std::size_t scaled_dim(std::size_t base, double scale,
                                     std::size_t multiple);

}  // namespace updsm::apps
