#include "updsm/apps/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "updsm/apps/grid.hpp"
#include "updsm/common/rng.hpp"

namespace updsm::apps {

namespace {
constexpr double kDt = 0.02;

/// Largest power of two <= x (problem sizes must be powers of two).
std::size_t floor_pow2(std::size_t x) {
  std::size_t p = 1;
  while (p * 2 <= x) p *= 2;
  return p;
}

std::uint64_t fft_flops(std::size_t n) {
  std::size_t log_n = 0;
  while ((std::size_t{1} << log_n) < n) ++log_n;
  return 5ULL * n * log_n;  // the standard radix-2 operation count
}
}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  UPDSM_REQUIRE(n >= 2 && (n & (n - 1)) == 0,
                "fft length must be a power of two >= 2, got " << n);
  // Bit-reversal permutation over complex slots.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) swaps_.emplace_back(i, j);
  }
  // Twiddles exactly as the butterfly recurrence produces them.
  twiddles_.reserve(4 * (n - 1));
  for (const bool inverse : {false, true}) {
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang = 2.0 * std::numbers::pi / static_cast<double>(len) *
                         (inverse ? 1 : -1);
      const double w_re = std::cos(ang);
      const double w_im = std::sin(ang);
      double cur_re = 1.0;
      double cur_im = 0.0;
      for (std::size_t k = 0; k < len / 2; ++k) {
        twiddles_.push_back(cur_re);
        twiddles_.push_back(cur_im);
        const double next_re = cur_re * w_re - cur_im * w_im;
        cur_im = cur_re * w_im + cur_im * w_re;
        cur_re = next_re;
      }
    }
  }
}

void FftPlan::transform(double* data, std::size_t width,
                        bool inverse) const {
  const std::size_t row = 2 * width;  // doubles per element index
  for (const auto& [i, j] : swaps_) {
    std::swap_ranges(data + i * row, data + (i + 1) * row, data + j * row);
  }
  const double* stage = twiddles_.data() + (inverse ? 2 * (n_ - 1) : 0);
  for (std::size_t half = 1; half < n_; stage += 2 * half, half <<= 1) {
    for (std::size_t i = 0; i < n_; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const double cur_re = stage[2 * k];
        const double cur_im = stage[2 * k + 1];
        double* a = data + (i + k) * row;
        double* b = a + half * row;
        for (std::size_t c = 0; c < row; c += 2) {
          const double a_re = a[c];
          const double a_im = a[c + 1];
          const double b_re = b[c];
          const double b_im = b[c + 1];
          const double t_re = b_re * cur_re - b_im * cur_im;
          const double t_im = b_re * cur_im + b_im * cur_re;
          b[c] = a_re - t_re;
          b[c + 1] = a_im - t_im;
          a[c] = a_re + t_re;
          a[c + 1] = a_im + t_im;
        }
      }
    }
  }
}

void fft_radix2(double* data, std::size_t n, bool inverse) {
  FftPlan(n).transform(data, 1, inverse);
}

// ---------------------------------------------------------------------------
// Blocked layout (SPLASH-2 FFT style, "matrix transposition to reduce
// communication"): each z-plane of `data` is stored as kLayoutBlocks
// contiguous blocks, block b holding one x-range:
//
//   data(z, y, x) -> complex slot (z*L + b) * (n*B) + y*B + xw
//     where L = kLayoutBlocks, B = n/L, b = x/B, xw = x%B.
//
// The transpose consumer of block (z, b) is the owner of that x-range, so
// at paper scale (n = 64, 8 nodes, 8 KB pages) every block is one page
// with a single-node copyset -- no broadcast amplification. `scratch`
// mirrors the layout with the roles of x and z exchanged. The block count
// is FIXED (not the node count) so the stored field, and therefore every
// checksum, is bit-identical across cluster sizes.
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kLayoutBlocks = 8;

// A plane of the blocked layout is L blocks of n rows x B columns, and the
// line along the blocked axis at row y is row y of every block in turn
// (element b*B + w sits in block b, row y, column w). These copy the B
// lines of rows y0 .. y0+B-1 to and from `band`, where element e of line
// g sits at complex slot e*B + g: B lines as FftPlan::transform takes them.
void gather_band(const double* plane, std::size_t n, std::size_t y0,
                 double* band) {
  const std::size_t B = n / kLayoutBlocks;
  for (std::size_t b = 0; b < kLayoutBlocks; ++b) {
    const double* tile = plane + 2 * (b * n + y0) * B;
    for (std::size_t g = 0; g < B; ++g) {
      for (std::size_t w = 0; w < B; ++w) {
        const std::size_t e = b * B + w;
        band[2 * (e * B + g)] = tile[2 * (g * B + w)];
        band[2 * (e * B + g) + 1] = tile[2 * (g * B + w) + 1];
      }
    }
  }
}

void scatter_band(const double* band, std::size_t n, std::size_t y0,
                  double* plane) {
  const std::size_t B = n / kLayoutBlocks;
  for (std::size_t b = 0; b < kLayoutBlocks; ++b) {
    double* tile = plane + 2 * (b * n + y0) * B;
    for (std::size_t g = 0; g < B; ++g) {
      for (std::size_t w = 0; w < B; ++w) {
        const std::size_t e = b * B + w;
        tile[2 * (g * B + w)] = band[2 * (e * B + g)];
        tile[2 * (g * B + w) + 1] = band[2 * (e * B + g) + 1];
      }
    }
  }
}
}  // namespace

FftApp::FftApp(const AppParams& params)
    : Application(params),
      n_(floor_pow2(scaled_dim(64, params.scale, 16))),
      plan_(n_) {}

void FftApp::allocate(mem::SharedHeap& heap) {
  const std::uint64_t bytes = n_ * n_ * n_ * 2 * sizeof(double);
  data_addr_ = heap.alloc_page_aligned(bytes, "fft.data");
  scratch_addr_ = heap.alloc_page_aligned(bytes, "fft.scratch");
}

void FftApp::init(dsm::NodeContext& ctx) {
  if (ctx.node() != 0) return;
  auto data = ctx.array<double>(data_addr_, n_ * n_ * n_ * 2);
  auto w = data.write_all();
  for (std::size_t i = 0; i < n_ * n_ * n_; ++i) {
    // Deterministic pseudo-random field, purely real. Layout does not
    // matter here: the checksum and the physics are layout-agnostic.
    w[2 * i] =
        static_cast<double>(splitmix64(params_.seed + i) >> 11) * 0x1.0p-53;
    w[2 * i + 1] = 0.0;
  }
}

void FftApp::planar_fft(dsm::NodeContext& ctx, GlobalAddr cube,
                        bool inverse) {
  auto arr = ctx.array<double>(cube, n_ * n_ * n_ * 2);
  constexpr std::size_t L = kLayoutBlocks;
  const std::size_t B = n_ / L;
  const Range mine = block_range(n_, ctx.num_nodes(), ctx.node());
  const std::size_t plane_slots = n_ * n_ * 2;  // doubles per plane
  std::vector<double> band(2 * n_ * B);
  for (std::size_t plane = mine.lo; plane < mine.hi; ++plane) {
    auto pv = arr.write_view(plane * plane_slots, (plane + 1) * plane_slots);
    // FFT along x, B rows at a time.
    for (std::size_t y0 = 0; y0 < n_; y0 += B) {
      gather_band(pv.data(), n_, y0, band.data());
      plan_.transform(band.data(), B, inverse);
      scatter_band(band.data(), n_, y0, pv.data());
    }
    // FFT along y: block b holds the B lines of its x-range, element y of
    // line w at slot y*B + w, so it transforms in place.
    for (std::size_t b = 0; b < L; ++b) {
      plan_.transform(pv.data() + 2 * b * n_ * B, B, inverse);
    }
  }
  const std::uint64_t lines = mine.size() * 2 * n_;  // n along x, n along y
  ctx.compute_flops(lines * fft_flops(n_));
}

void FftApp::transpose(dsm::NodeContext& ctx, GlobalAddr src,
                       GlobalAddr dst) {
  // dst(x, y, z) <- src(z, y, x) for this node's x-planes of dst. The node
  // reads exactly block `me` of every src plane (contiguous, single-
  // consumer) and writes only its own dst planes.
  auto s = ctx.array<double>(src, n_ * n_ * n_ * 2);
  auto d = ctx.array<double>(dst, n_ * n_ * n_ * 2);
  constexpr std::size_t L = kLayoutBlocks;
  const std::size_t B = n_ / L;
  const std::size_t block_slots = n_ * B;  // complex slots per block
  const Range mine = block_range(n_, ctx.num_nodes(), ctx.node());
  auto out = d.write_view(mine.lo * n_ * n_ * 2, mine.hi * n_ * n_ * 2);
  const std::size_t out_base = mine.lo * n_ * n_;  // complex-slot origin
  const std::size_t b_first = mine.lo / B;
  const std::size_t b_last = (mine.hi - 1) / B;
  for (std::size_t z = 0; z < n_; ++z) {
    // dst slot of (x, y, z) in the z-blocked scratch layout:
    // (x*L + z/B) * block_slots + y*B + z%B.
    const std::size_t z_block = z / B;
    const std::size_t z_col = z % B;
    for (std::size_t b = b_first; b <= b_last; ++b) {
      const std::size_t src_block = (z * L + b) * block_slots;
      auto in = s.read_view(2 * src_block, 2 * (src_block + block_slots));
      const std::size_t x_lo = std::max(mine.lo, b * B);
      const std::size_t x_hi = std::min(mine.hi, (b + 1) * B);
      for (std::size_t y = 0; y < n_; ++y) {
        for (std::size_t x = x_lo; x < x_hi; ++x) {
          const std::size_t slot =
              (x * L + z_block) * block_slots + y * B + z_col - out_base;
          const std::size_t from = y * B + (x - b * B);
          out[2 * slot] = in[2 * from];
          out[2 * slot + 1] = in[2 * from + 1];
        }
      }
    }
  }
  ctx.compute_flops(mine.size() * n_ * n_ * 2);  // data movement
}

void FftApp::spectral_step(dsm::NodeContext& ctx) {
  // In the transposed cube the original z-axis is block-local: FFT along
  // z, apply the heat-kernel decay and the full normalization, inverse FFT
  // along z -- all within this node's x-planes.
  auto arr = ctx.array<double>(scratch_addr_, n_ * n_ * n_ * 2);
  constexpr std::size_t L = kLayoutBlocks;
  const std::size_t B = n_ / L;
  const std::size_t plane_slots = n_ * n_ * 2;  // doubles per x-plane
  const Range mine = block_range(n_, ctx.num_nodes(), ctx.node());
  const double norm = 1.0 / (static_cast<double>(n_) * static_cast<double>(n_) *
                             static_cast<double>(n_));
  auto wavenumber = [&](std::size_t i) {
    const double k = static_cast<double>(i <= n_ / 2 ? i : n_ - i);
    return 2.0 * std::numbers::pi * k / static_cast<double>(n_);
  };
  auto pv = arr.write_view(mine.lo * plane_slots, mine.hi * plane_slots);
  std::vector<double> band(2 * n_ * B);
  // decay[k*B + g]: line g's factor at every z with min(z, n - z) = k.
  // The decay depends on z only through wavenumber(z), which is built
  // from that k.
  std::vector<double> decay((n_ / 2 + 1) * B);
  for (std::size_t x = mine.lo; x < mine.hi; ++x) {
    const double kx = wavenumber(x);
    double* plane = pv.data() + (x - mine.lo) * plane_slots;
    for (std::size_t y0 = 0; y0 < n_; y0 += B) {
      for (std::size_t g = 0; g < B; ++g) {
        const double ky = wavenumber(y0 + g);
        for (std::size_t k = 0; k <= n_ / 2; ++k) {
          const double kz = wavenumber(k);
          decay[k * B + g] =
              std::exp(-(kx * kx + ky * ky + kz * kz) * kDt) * norm;
        }
      }
      gather_band(plane, n_, y0, band.data());
      plan_.transform(band.data(), B, /*inverse=*/false);
      for (std::size_t z = 0; z < n_; ++z) {
        const double* factor = &decay[(z <= n_ / 2 ? z : n_ - z) * B];
        double* row = &band[2 * z * B];
        for (std::size_t g = 0; g < B; ++g) {
          row[2 * g] *= factor[g];
          row[2 * g + 1] *= factor[g];
        }
      }
      plan_.transform(band.data(), B, /*inverse=*/true);
      scatter_band(band.data(), n_, y0, plane);
    }
  }
  const std::uint64_t lines = mine.size() * n_ * 2;  // forward + inverse
  ctx.compute_flops(lines * fft_flops(n_) + mine.size() * n_ * n_ * 8);
}

void FftApp::step(dsm::NodeContext& ctx, int /*iter*/) {
  planar_fft(ctx, data_addr_, /*inverse=*/false);
  ctx.barrier();
  transpose(ctx, data_addr_, scratch_addr_);
  ctx.barrier();
  spectral_step(ctx);
  ctx.barrier();
  transpose(ctx, scratch_addr_, data_addr_);
  ctx.barrier();
  planar_fft(ctx, data_addr_, /*inverse=*/true);
  ctx.barrier();
}

double FftApp::compute_checksum(dsm::NodeContext& ctx) {
  auto data = ctx.array<double>(data_addr_, n_ * n_ * n_ * 2);
  auto r = data.read_all();
  double sum = 0.0;
  for (std::size_t i = 0; i < r.size(); i += 2) sum += r[i];
  return sum;
}

}  // namespace updsm::apps
