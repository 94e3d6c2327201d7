// Checks jacobi-async's wavefront kernel bit for bit against the
// point-by-point sweep it replaced, and pins the virtual elapsed time and
// every node's final frame bytes of both async stencils. Their checksum is
// only a converged flag and virtual time does not see values, so without
// the frame pins a kernel edit that changed one rounding would pass every
// golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "updsm/apps/async_stencil.hpp"
#include "updsm/apps/registry.hpp"
#include "updsm/common/error.hpp"
#include "updsm/common/rng.hpp"
#include "updsm/dsm/cluster.hpp"
#include "updsm/mem/shared_heap.hpp"
#include "updsm/protocols/factory.hpp"

namespace updsm::apps {
namespace {

/// The point-by-point jacobi-async sweep that relax_jacobi_rows replaced,
/// on a plain row-major grid: the oracle.
double reference_sweep(std::vector<double>& grid, std::size_t cols,
                       std::size_t lo, std::size_t hi) {
  constexpr double kKappa = 0.8;
  double residual = 0.0;
  for (std::size_t r = lo; r < hi; ++r) {
    const double* up = grid.data() + (r - 1) * cols;
    const double* down = grid.data() + (r + 1) * cols;
    double* out = grid.data() + r * cols;
    for (std::size_t c = 1; c + 1 < cols; ++c) {
      const double source =
          0.2 * (1.0 + static_cast<double>((r * 31 + c * 17) % 97) / 97.0);
      const double nv =
          source + 0.25 * kKappa * (up[c] + down[c] + out[c - 1] + out[c + 1]);
      residual = std::max(residual, std::abs(nv - out[c]));
      out[c] = nv;
    }
  }
  return residual;
}

std::vector<double> random_grid(std::size_t rows, std::size_t cols,
                                std::uint64_t seed) {
  std::vector<double> grid(rows * cols);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] =
        static_cast<double>(splitmix64(seed + i) >> 11) * 0x1.0p-51 - 2.0;
  }
  return grid;
}

/// The first element whose bits differ, or grid.size().
std::size_t first_difference(const std::vector<double>& a,
                             const std::vector<double>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return i;
    }
  }
  return a.size();
}

/// Runs relax_jacobi_rows on `grid` with views into its rows, checking that
/// every row is fetched once, in ascending order, before it changes.
double kernel_sweep(std::vector<double>& grid, std::size_t cols,
                    std::size_t lo, std::size_t hi) {
  const std::vector<double> before = grid;
  const std::span<double> all(grid);
  std::size_t next = lo;
  const double residual =
      relax_jacobi_rows(lo, hi, [&](std::size_t r) {
        EXPECT_EQ(r, next++) << "rows must be fetched once, in order";
        EXPECT_TRUE(std::equal(grid.begin() + r * cols,
                               grid.begin() + (r + 1) * cols,
                               before.begin() + r * cols))
            << "row " << r << " changed before its views were taken";
        return JacobiRowViews{all.subspan((r - 1) * cols, cols),
                              all.subspan((r + 1) * cols, cols),
                              all.subspan(r * cols, cols)};
      });
  EXPECT_EQ(next, hi);
  return residual;
}

TEST(JacobiKernelTest, BitIdenticalToPointByPointSweep) {
  // 5 is the narrowest width a four-row block accepts; 16 is the app's
  // minimum; 43 is wider and not a multiple of four.
  for (const std::size_t cols : {5, 16, 43}) {
    for (std::size_t count = 0; count <= 9; ++count) {
      // The first row sets the source term's phase along each row.
      for (const std::size_t lo : {1, 30}) {
        for (const std::uint64_t seed : {1, 77, 4242}) {
          const std::size_t rows = lo + count + 1;
          std::vector<double> want = random_grid(rows, cols, seed);
          std::vector<double> got = want;
          const double want_res =
              reference_sweep(want, cols, lo, lo + count);
          const double got_res = kernel_sweep(got, cols, lo, lo + count);
          const std::size_t at = first_difference(want, got);
          ASSERT_EQ(at, want.size())
              << cols << " cols, rows [" << lo << ", " << lo + count
              << "), seed " << seed << ": first differing point (" << at / cols
              << ", " << at % cols << ") " << std::hexfloat << got[at]
              << " vs " << want[at];
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got_res),
                    std::bit_cast<std::uint64_t>(want_res))
              << cols << " cols, rows [" << lo << ", " << lo + count
              << "), seed " << seed << ": residual " << std::hexfloat
              << got_res << " vs " << want_res;
        }
      }
    }
  }
}

TEST(JacobiKernelTest, RejectsRowsTooNarrowForTheirBlock) {
  std::vector<double> grid = random_grid(6, 4, 3);
  // Four rows of four columns: the four-row block needs at least five.
  EXPECT_THROW((void)kernel_sweep(grid, 4, 1, 5), InternalError);
  // Three rows of four columns run as a three-row block, which fits.
  std::vector<double> want = random_grid(6, 4, 3);
  grid = want;
  reference_sweep(want, 4, 1, 4);
  kernel_sweep(grid, 4, 1, 4);
  EXPECT_EQ(first_difference(want, grid), want.size());
}

TEST(JacobiKernelTest, RejectsRowsOfDifferentWidths) {
  std::vector<double> grid = random_grid(4, 16, 5);
  const std::span<double> all(grid);
  EXPECT_THROW((void)relax_jacobi_rows(1, 3,
                                       [&](std::size_t r) {
                                         return JacobiRowViews{
                                             all.subspan((r - 1) * 16, 16),
                                             all.subspan((r + 1) * 16, 15),
                                             all.subspan(r * 16, 16)};
                                       }),
               InternalError);
}

/// 64-bit FNV-1a over every node's final frames, node by node, page by
/// page.
std::uint64_t hash_frames(const dsm::Runtime& rt) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (int n = 0; n < rt.num_nodes(); ++n) {
    const mem::PageTable& table =
        rt.table(NodeId{static_cast<std::uint32_t>(n)});
    for (std::uint32_t p = 0; p < rt.num_pages(); ++p) {
      for (const std::byte b : table.frame(PageId{p})) {
        hash ^= static_cast<std::uint8_t>(b);
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

struct FramePin {
  const char* label;
  const char* app;
  protocols::ProtocolKind protocol;
  sim::GangMode gang;
  int nodes;
  double scale;
  sim::SimTime elapsed;
  std::uint64_t frames;
};

void PrintTo(const FramePin& pin, std::ostream* os) { *os << pin.label; }

class StencilPinTest : public ::testing::TestWithParam<FramePin> {};

// Recorded from the point-by-point kernel the wavefront replaced (x86-64
// baseline ISA, GCC), with workers = min(4, nodes), sp2 costs and default
// AppParams apart from the scale. Node counts and scales cover one node;
// blocks of four only; left-over blocks of one, two and three rows; the
// barrier loop under the parallel gang; and nodes that own no row.
using protocols::ProtocolKind;
using sim::GangMode;
const FramePin kPins[] = {
    {"null_n1_s025", "jacobi-async", ProtocolKind::Null, GangMode::Parallel, 1,
     0.25, 43451840, 0x286befc8481283d8},
    {"null_n1_s2", "jacobi-async", ProtocolKind::Null, GangMode::Parallel, 1,
     2.0, 2841265600, 0x5ff8ee6d4e93bce8},
    {"async_u_n64_s2", "jacobi-async", ProtocolKind::AsyncU, GangMode::Async,
     64, 2.0, 152202056, 0x64ac643d62890d2e},
    {"async_u_n12_s1", "jacobi-async", ProtocolKind::AsyncU, GangMode::Async,
     12, 1.0, 133338744, 0x1cc18ad0ce195a91},
    {"async_i_n24_s1", "jacobi-async", ProtocolKind::AsyncI, GangMode::Async,
     24, 1.0, 153980064, 0xcdc9e6c0d90a1d78},
    {"bar_u_n7_s05", "jacobi-async", ProtocolKind::BarU, GangMode::Parallel, 7,
     0.5, 67286896, 0x81eecec664305e4e},
    {"async_u_n96_s025", "jacobi-async", ProtocolKind::AsyncU, GangMode::Async,
     96, 0.25, 749346864, 0xcfbd3e11fa629d5a},
    {"sor_async_u_n16_s1", "sor-async", ProtocolKind::AsyncU, GangMode::Async,
     16, 1.0, 94353112, 0xdc21c7168fcccfef},
};

TEST_P(StencilPinTest, ElapsedAndFinalFramesArePinned) {
  const FramePin& pin = GetParam();
  AppParams params;
  params.scale = pin.scale;
  auto app = make_app(pin.app, params);
  dsm::ClusterConfig cfg;
  cfg.num_nodes = pin.nodes;
  cfg.gang = pin.gang;
  cfg.workers = std::min(4, pin.nodes);
  mem::SharedHeap heap(cfg.page_size);
  app->allocate(heap);
  dsm::Cluster cluster(cfg, heap, protocols::make_protocol(pin.protocol));
  cluster.run([&](dsm::NodeContext& ctx) { app->run(ctx); });

  EXPECT_EQ(app->result_checksum(), 1.0) << "the run did not converge";
  EXPECT_EQ(cluster.elapsed(), pin.elapsed);
  EXPECT_EQ(hash_frames(cluster.runtime()), pin.frames)
      << std::hex << "frame hash 0x" << hash_frames(cluster.runtime())
      << ", pinned 0x" << pin.frames;
}

INSTANTIATE_TEST_SUITE_P(AsyncStencils, StencilPinTest,
                         ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<FramePin>& info) {
                           return std::string(info.param.label);
                         });

}  // namespace
}  // namespace updsm::apps
