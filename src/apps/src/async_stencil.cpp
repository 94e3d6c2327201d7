#include "updsm/apps/async_stencil.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "updsm/common/error.hpp"

namespace updsm::apps {

namespace {
/// Damping factor: the sweep is a max-norm contraction with this factor, so
/// every relaxation order -- including boundedly-stale chaotic relaxation
/// under gang=async -- converges to the unique fixed point.
constexpr double kKappa = 0.8;
/// Weight of the four-neighbour sum.
constexpr double kWeight = 0.25 * kKappa;
/// Over-relaxation for the red-black variant; contraction factor is still
/// |1 - w| + w * kappa = 0.89 < 1.
constexpr double kOmega = 1.05;
constexpr std::uint64_t kFlopsPerPoint = 8;
/// Rows per wavefront block of relax_jacobi_rows.
constexpr std::size_t kJacobiBlock = 4;

/// Source term b(r, c) = kSource[(31 r + 17 c) % 97], a pure function of the
/// indices (nothing to allocate); along a row the index steps by 17 mod 97.
constexpr std::size_t kSourcePeriod = 97;
constexpr std::size_t kSourceStep = 17;
constexpr auto kSource = [] {
  std::array<double, kSourcePeriod> table{};
  for (std::size_t m = 0; m < kSourcePeriod; ++m) {
    table[m] = 0.2 * (1.0 + static_cast<double>(m) / 97.0);
  }
  return table;
}();

[[nodiscard]] std::size_t source_index(std::size_t r, std::size_t c) {
  return (r * 31 + c * kSourceStep) % kSourcePeriod;
}

/// Takes the views of rows first_row .. first_row + K - 1, then relaxes them
/// as a skewed wavefront (async_stencil.hpp gives the dependency argument):
/// step s relaxes column s - i of every row i that has that column, bottom
/// row first.
template <std::size_t K>
double relax_block(std::size_t first_row,
                   const std::function<JacobiRowViews(std::size_t)>& views) {
  std::array<JacobiRowViews, K> rows;
  for (std::size_t i = 0; i < K; ++i) rows[i] = views(first_row + i);
  const std::size_t cols = rows[0].out.size();
  UPDSM_CHECK_MSG(cols > K, "a " << K << "-row jacobi block needs more than "
                                 << K << " columns, got " << cols);
  UPDSM_CHECK(rows[0].up.size() == cols && rows[K - 1].down.size() == cols);
  const double* above = rows[0].up.data();
  const double* below = rows[K - 1].down.data();
  std::array<double*, K> out{};
  std::array<double, K> left{};      // row i's newest value: its left neighbour
  std::array<std::size_t, K> src{};  // kSource index of row i's next column
  std::array<double, K> residual{};
  for (std::size_t i = 0; i < K; ++i) {
    UPDSM_CHECK(rows[i].out.size() == cols);
    out[i] = rows[i].out.data();
    left[i] = out[i][0];
    src[i] = source_index(first_row + i, 1);
  }
  for (std::size_t s = 1; s + 2 < cols + K; ++s) {
#pragma GCC unroll 16
    for (std::size_t j = 0; j < K; ++j) {
      const std::size_t i = K - 1 - j;
      const std::size_t c = s - i;
      if (c - 1 >= cols - 2) continue;  // row i has not started or is done
      // Row i-1 relaxed column c one step ago and has not moved on yet;
      // row i+1 relaxes it one step from now.
      const double up = i == 0 ? above[c] : left[i - 1];
      const double down = i + 1 == K ? below[c] : out[i + 1][c];
      const double old = out[i][c];
      const double nv =
          kSource[src[i]] + kWeight * (up + down + left[i] + out[i][c + 1]);
      residual[i] = std::max(residual[i], std::abs(nv - old));
      out[i][c] = nv;
      left[i] = nv;
      src[i] += kSourceStep;
      src[i] -= src[i] >= kSourcePeriod ? kSourcePeriod : 0;
    }
  }
  return *std::max_element(residual.begin(), residual.end());
}

/// The last block, of the n < kJacobiBlock rows left over.
template <std::size_t K>
double relax_tail(std::size_t r, std::size_t n,
                  const std::function<JacobiRowViews(std::size_t)>& views) {
  if constexpr (K == 0) {
    return 0.0;
  } else {
    return n == K ? relax_block<K>(r, views) : relax_tail<K - 1>(r, n, views);
  }
}
}  // namespace

double relax_jacobi_rows(
    std::size_t lo, std::size_t hi,
    const std::function<JacobiRowViews(std::size_t)>& views) {
  double residual = 0.0;
  std::size_t r = lo;
  for (; hi - r >= kJacobiBlock; r += kJacobiBlock) {
    residual = std::max(residual, relax_block<kJacobiBlock>(r, views));
  }
  return std::max(residual, relax_tail<kJacobiBlock - 1>(r, hi - r, views));
}

AsyncStencilApp::AsyncStencilApp(const AppParams& params, StencilKind kind)
    : Application(params),
      kind_(kind),
      rows_(scaled_dim(256, params.scale, 16) + 2),
      cols_(scaled_dim(256, params.scale, 16)),
      max_sweeps_(500) {}

void AsyncStencilApp::allocate(mem::SharedHeap& heap) {
  const std::uint64_t bytes = rows_ * cols_ * sizeof(double);
  grid_addr_ = heap.alloc_page_aligned(
      bytes, kind_ == StencilKind::Jacobi ? "jacobi-async.v" : "sor-async.v");
}

void AsyncStencilApp::init(dsm::NodeContext& ctx) {
  if (ctx.node() != 0) return;
  Grid2<double> v(ctx, grid_addr_, rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    auto row = v.row_w(r);
    const bool edge_row = r == 0 || r + 1 == rows_;
    for (std::size_t c = 0; c < cols_; ++c) {
      const bool edge = edge_row || c == 0 || c + 1 == cols_;
      row[c] = edge ? 1.0 + 0.1 * static_cast<double>((r + c) % 7) : 0.0;
    }
  }
}

double AsyncStencilApp::sweep(dsm::NodeContext& ctx) {
  Grid2<double> v(ctx, grid_addr_, rows_, cols_);
  const Range mine = block_range(rows_ - 2, ctx.num_nodes(), ctx.node());
  double residual = 0.0;
  if (kind_ == StencilKind::Jacobi) {
    residual = relax_jacobi_rows(1 + mine.lo, 1 + mine.hi, [&v](std::size_t r) {
      return JacobiRowViews{v.row(r - 1), v.row(r + 1), v.row_w(r)};
    });
  } else {
    for (std::size_t color = 0; color < 2; ++color) {
      for (std::size_t r = 1 + mine.lo; r < 1 + mine.hi; ++r) {
        auto up = v.row(r - 1);
        auto down = v.row(r + 1);
        auto out = v.row_w(r);
        // The points of this color: (r + c) % 2 == color.
        for (std::size_t c = 2 - (r + color) % 2; c + 1 < cols_; c += 2) {
          const double relaxed =
              kSource[source_index(r, c)] +
              kWeight * (up[c] + down[c] + out[c - 1] + out[c + 1]);
          const double nv = (1.0 - kOmega) * out[c] + kOmega * relaxed;
          residual = std::max(residual, std::abs(nv - out[c]));
          out[c] = nv;
        }
      }
    }
  }
  ctx.compute_flops(mine.size() * (cols_ - 2) * kFlopsPerPoint);
  return residual;
}

void AsyncStencilApp::record_exit(std::uint64_t sweeps, double residual,
                                  bool converged) {
  std::lock_guard<std::mutex> lock(done_mu_);
  max_sweeps_completed_ = std::max(max_sweeps_completed_, sweeps);
  worst_residual_ = std::max(worst_residual_, residual);
  all_converged_ = all_converged_ && converged;
}

void AsyncStencilApp::run(dsm::NodeContext& ctx) {
  init(ctx);
  ctx.barrier();

  const double tol = ctx.convergence_tolerance();
  ctx.begin_measurement();
  ctx.barrier();  // window opens here, in both modes

  std::uint64_t sweeps = 0;
  bool converged = false;
  double last = 0.0;
  if (ctx.async_mode()) {
    // Barrier-free loop: publish/yield/refresh each sweep, leave once the
    // global detector converges (max_sweeps_ is a drain backstop).
    while (sweeps < static_cast<std::uint64_t>(max_sweeps_)) {
      last = sweep(ctx);
      ++sweeps;
      if (ctx.async_step(last)) {
        converged = true;
        break;
      }
    }
  } else {
    // Classic loop: every node sees the same reduced residual and leaves
    // at the same iteration.
    while (sweeps < static_cast<std::uint64_t>(max_sweeps_)) {
      ctx.iteration_begin();
      const double res = sweep(ctx);
      last = ctx.reduce_max(res);
      ++sweeps;
      if (last <= tol) {
        converged = true;
        break;
      }
    }
  }

  ctx.end_measurement();
  ctx.barrier();  // window closes here
  if (ctx.async_mode()) {
    // Every node has drained its loop at this barrier, so the detector's
    // verdict is final. A fast node can burn its sweep backstop and drain
    // unconverged while stragglers are still settling; if the detector
    // converges once their reports land, the run converged -- that node
    // merely did extra sweeps.
    converged = converged || ctx.async_converged();
  }
  record_exit(sweeps, last, converged);
  ctx.barrier();  // every node's exit is recorded
  if (ctx.node() == 0) set_checksum(compute_checksum(ctx));
  ctx.barrier();
}

void AsyncStencilApp::step(dsm::NodeContext&, int) {
  throw InternalError("async stencil apps use a custom run loop");
}

double AsyncStencilApp::compute_checksum(dsm::NodeContext&) {
  // In-place chaotic relaxation commits to no update order, so the final
  // byte pattern is schedule-dependent; the protocol-invariant result is
  // reaching the fixed point. (Determinism of a given configuration is
  // pinned separately via elapsed/counters/messages.)
  return all_converged_ ? 1.0 : 0.0;
}

}  // namespace updsm::apps
