// jacobi-async / sor-async: stencil solvers ported to the barrier-free
// workload class.
//
// Both solve the same damped fixed-point problem v = b + (kappa/4) * (sum of
// the four neighbours) on a single in-place grid -- a max-norm contraction
// with factor kappa < 1, so plain, red-black and *chaotic* (asynchronous,
// boundedly stale) relaxation all converge to the same fixed point
// (Chazan & Miranker 1969). That makes the pair dual-mode:
//
//  * Under a barrier gang the loop is classic: sweep, reduce the global max
//    residual (one barrier), stop when it drops under the configured
//    tolerance. Every node leaves the loop at the same iteration.
//  * Under gang=async there is no reduction and no barrier in the loop:
//    each node sweeps its own rows, tracks its LOCAL residual, and calls
//    ctx.async_step(residual) -- publish, yield, refresh. The step returns
//    true once the global epoch/residual detector converges; a node also
//    drains after max_sweeps as a backstop.
//
// The final grid bytes are schedule-dependent (in-place chaotic relaxation
// commits to no update order), so the checksum is the CONVERGED flag: every
// correct protocol/schedule must reach the same fixed point to the same
// tolerance, and that -- not the byte pattern -- is the invariant worth
// pinning. Elapsed times, message censuses and counters pin determinism of
// a given configuration bit-for-bit on top, and tests/stencil_test.cpp pins
// every node's final frame bytes, which nothing else sees.
//
// jacobi-async's kernel (relax_jacobi_rows) is a Gauss-Seidel sweep: point
// (r, c) reads the NEW values of (r-1, c) and (r, c-1) and the OLD values of
// (r+1, c) and (r, c+1). Done point by point, each point waits on its left
// neighbour's store. The kernel instead relaxes K rows as a skewed
// wavefront: row i of a block relaxes column c at step c + i, bottom row
// first within a step. Then (r-1, c) was relaxed one step earlier and
// (r, c-1) too, and both are still in registers; (r+1, c) and (r, c+1) are
// relaxed one step later, so memory still holds their old values when they
// are read. Every point therefore sees exactly the operands, and performs
// exactly the IEEE operations in the order, of the point-by-point sweep,
// and the grid bytes are bit-identical. Each row keeps its own residual
// maximum; the maximum of finite values does not depend on the order it is
// taken in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>

#include "updsm/apps/application.hpp"
#include "updsm/apps/grid.hpp"

namespace updsm::apps {

enum class StencilKind {
  Jacobi,  // damped in-place Jacobi/Gauss-Seidel hybrid sweep
  SorRb,   // red-black successive over-relaxation
};

/// Grid row r as a jacobi-async sweep takes its DSM views, in this order:
/// the row above and the row below (read views) and row r (write view).
struct JacobiRowViews {
  std::span<const double> up;
  std::span<const double> down;
  std::span<double> out;
};

/// jacobi-async's sweep over grid rows [lo, hi) in place, top down; returns
/// the largest |new - old|. The rows run as wavefront blocks of four, then
/// one block of the 1-3 rows left over. `views(r)` is called once per row,
/// r ascending, and all of a block's rows are fetched before its
/// arithmetic. A block reads only the `up` of its first row and the `down`
/// of its last; the other rows' `up` and `down` are rows of the block. Every
/// span must hold the same number of columns, more than the block's height
/// (the app's grids have at least 16); a violation throws InternalError.
[[nodiscard]] double relax_jacobi_rows(
    std::size_t lo, std::size_t hi,
    const std::function<JacobiRowViews(std::size_t)>& views);

class AsyncStencilApp final : public Application {
 public:
  AsyncStencilApp(const AppParams& params, StencilKind kind);

  [[nodiscard]] std::string_view name() const override {
    return kind_ == StencilKind::Jacobi ? "jacobi-async" : "sor-async";
  }
  /// The sweeps are not keyed to a periodic barrier pattern; keep the
  /// overdrive protocols away from this workload.
  [[nodiscard]] bool overdrive_safe() const override { return false; }

  void allocate(mem::SharedHeap& heap) override;
  void run(dsm::NodeContext& ctx) override;

  [[nodiscard]] std::uint64_t iterations_completed() const override {
    return max_sweeps_completed_;
  }
  [[nodiscard]] double final_residual() const override {
    return worst_residual_;
  }
  [[nodiscard]] bool all_converged() const { return all_converged_; }

 protected:
  void init(dsm::NodeContext& ctx) override;
  void step(dsm::NodeContext& ctx, int iter) override;
  [[nodiscard]] double compute_checksum(dsm::NodeContext& ctx) override;

 private:
  /// One relaxation sweep over this node's rows; returns the local max
  /// residual (max |new - old| over updated points).
  double sweep(dsm::NodeContext& ctx);
  /// Per-node loop-exit bookkeeping (any gang mode, hence the mutex).
  void record_exit(std::uint64_t sweeps, double residual, bool converged);

  StencilKind kind_;
  std::size_t rows_;
  std::size_t cols_;
  GlobalAddr grid_addr_ = 0;
  int max_sweeps_;

  std::mutex done_mu_;
  std::uint64_t max_sweeps_completed_ = 0;
  double worst_residual_ = 0.0;
  bool all_converged_ = true;
};

}  // namespace updsm::apps
