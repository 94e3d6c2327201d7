#include "updsm/apps/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <type_traits>
#include <utility>
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
  // Bit-reversal permutation over element indices.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) swaps_.emplace_back(i, j);
  }
  // Twiddles exactly as the butterfly recurrence produces them.
  tw_re_.reserve(2 * (n - 1));
  tw_im_.reserve(2 * (n - 1));
  for (const bool inverse : {false, true}) {
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang = 2.0 * std::numbers::pi / static_cast<double>(len) *
                         (inverse ? 1 : -1);
      const double w_re = std::cos(ang);
      const double w_im = std::sin(ang);
      double cur_re = 1.0;
      double cur_im = 0.0;
      for (std::size_t k = 0; k < len / 2; ++k) {
        tw_re_.push_back(cur_re);
        tw_im_.push_back(cur_im);
        const double next_re = cur_re * w_re - cur_im * w_im;
        cur_im = cur_re * w_im + cur_im * w_re;
        cur_re = next_re;
      }
    }
  }
}

namespace {
/// Two doubles of adjacent lines (one SSE2 register on x86-64). Its
/// arithmetic is element-wise, so each lane gets exactly the scalar
/// operations (fft.hpp says why the vectors are spelled out).
using Lanes = double __attribute__((vector_size(16)));

template <typename T>
T load(const double* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename T>
void store(double* p, T v) {
  std::memcpy(p, &v, sizeof v);
}

template <typename T>
T splat(double v) {
  if constexpr (std::is_same_v<T, double>) {
    return v;
  } else {
    return T{v, v};
  }
}

/// (a, b) <- (a + b*w, a - b*w) with the recurrence kernel's operations.
template <typename T>
void butterfly(T& a_re, T& a_im, T& b_re, T& b_im, T w_re, T w_im) {
  const T t_re = b_re * w_re - b_im * w_im;
  const T t_im = b_re * w_im + b_im * w_re;
  b_re = a_re - t_re;
  b_im = a_im - t_im;
  a_re = a_re + t_re;
  a_im = a_im + t_im;
}

/// Swaps two rows of `width` doubles.
void swap_rows(double* a, double* b, std::size_t width) {
  std::size_t c = 0;
  for (; c + 2 <= width; c += 2) {
    const Lanes t = load<Lanes>(a + c);
    store(a + c, load<Lanes>(b + c));
    store(b + c, t);
  }
  if (c < width) std::swap(a[c], b[c]);
}

// The passes below run over columns [c0, c1), sizeof(T)/8 at a time, with
// one direction's twiddle tables `tw_re`/`tw_im`, where the stage of
// half-span h starts at index h - 1. Each reads its twiddles into locals
// before the column loop: the compiler cannot tell the tables from the
// planes, so it would reload them after every store.

/// Stages h and 2h.
template <typename T>
void radix4_pass(double* re, double* im, std::size_t n, std::size_t width,
                 std::size_t c0, std::size_t c1, std::size_t h,
                 const double* tw_re, const double* tw_im) {
  if (c0 == c1) return;
  const std::size_t q = h * width;  // from element e to element e + h
  for (std::size_t i = 0; i < n; i += 4 * h) {
    for (std::size_t k = 0; k < h; ++k) {
      const T u_re = splat<T>(tw_re[h - 1 + k]);  // stage h
      const T u_im = splat<T>(tw_im[h - 1 + k]);
      const T v_re = splat<T>(tw_re[2 * h - 1 + k]);  // stage 2h
      const T v_im = splat<T>(tw_im[2 * h - 1 + k]);
      const T w_re = splat<T>(tw_re[3 * h - 1 + k]);
      const T w_im = splat<T>(tw_im[3 * h - 1 + k]);
      double* r = re + (i + k) * width;
      double* m = im + (i + k) * width;
      for (std::size_t c = c0; c < c1; c += sizeof(T) / sizeof(double)) {
        T x0_re = load<T>(r + c);
        T x0_im = load<T>(m + c);
        T x1_re = load<T>(r + q + c);
        T x1_im = load<T>(m + q + c);
        T x2_re = load<T>(r + 2 * q + c);
        T x2_im = load<T>(m + 2 * q + c);
        T x3_re = load<T>(r + 3 * q + c);
        T x3_im = load<T>(m + 3 * q + c);
        butterfly(x0_re, x0_im, x1_re, x1_im, u_re, u_im);
        butterfly(x2_re, x2_im, x3_re, x3_im, u_re, u_im);
        butterfly(x0_re, x0_im, x2_re, x2_im, v_re, v_im);
        butterfly(x1_re, x1_im, x3_re, x3_im, w_re, w_im);
        store(r + c, x0_re);
        store(m + c, x0_im);
        store(r + q + c, x1_re);
        store(m + q + c, x1_im);
        store(r + 2 * q + c, x2_re);
        store(m + 2 * q + c, x2_im);
        store(r + 3 * q + c, x3_re);
        store(m + 3 * q + c, x3_im);
      }
    }
  }
}

/// Stage h alone.
template <typename T>
void radix2_pass(double* re, double* im, std::size_t n, std::size_t width,
                 std::size_t c0, std::size_t c1, std::size_t h,
                 const double* tw_re, const double* tw_im) {
  if (c0 == c1) return;
  const std::size_t q = h * width;
  for (std::size_t i = 0; i < n; i += 2 * h) {
    for (std::size_t k = 0; k < h; ++k) {
      const T w_re = splat<T>(tw_re[h - 1 + k]);
      const T w_im = splat<T>(tw_im[h - 1 + k]);
      double* r = re + (i + k) * width;
      double* m = im + (i + k) * width;
      for (std::size_t c = c0; c < c1; c += sizeof(T) / sizeof(double)) {
        T a_re = load<T>(r + c);
        T a_im = load<T>(m + c);
        T b_re = load<T>(r + q + c);
        T b_im = load<T>(m + q + c);
        butterfly(a_re, a_im, b_re, b_im, w_re, w_im);
        store(r + c, a_re);
        store(m + c, a_im);
        store(r + q + c, b_re);
        store(m + q + c, b_im);
      }
    }
  }
}
}  // namespace

void FftPlan::transform(double* re, double* im, std::size_t width,
                        bool inverse) const {
  for (const auto& [i, j] : swaps_) {
    swap_rows(re + i * width, re + j * width, width);
    swap_rows(im + i * width, im + j * width, width);
  }
  const std::size_t dir = inverse ? n_ - 1 : 0;
  const double* w_re = tw_re_.data() + dir;
  const double* w_im = tw_im_.data() + dir;
  const std::size_t pairs = width & ~std::size_t{1};  // columns in Lanes
  std::size_t h = 1;
  for (; 4 * h <= n_; h *= 4) {
    radix4_pass<Lanes>(re, im, n_, width, 0, pairs, h, w_re, w_im);
    radix4_pass<double>(re, im, n_, width, pairs, width, h, w_re, w_im);
  }
  if (h < n_) {  // log2 n is odd: stage n/2 remains
    radix2_pass<Lanes>(re, im, n_, width, 0, pairs, h, w_re, w_im);
    radix2_pass<double>(re, im, n_, width, pairs, width, h, w_re, w_im);
  }
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
// lines of rows y0 .. y0+B-1 between a plane and the split planes of
// `band`, where element e of line g sits at index e*B + g: B lines as
// FftPlan::transform takes them. B = n/L is a power of two >= 2, so each
// copy moves two lines or two columns at a time through `zip`.

/// The 2x2 transpose: (a0, b0) and (a1, b1) from (a0, a1) and (b0, b1).
std::pair<Lanes, Lanes> zip(Lanes a, Lanes b) {
  return {__builtin_shufflevector(a, b, 0, 2),
          __builtin_shufflevector(a, b, 1, 3)};
}

/// Band lines from an interleaved plane (the frame).
void gather_band(const double* plane, std::size_t n, std::size_t y0,
                 double* band_re, double* band_im) {
  const std::size_t B = n / kLayoutBlocks;
  for (std::size_t b = 0; b < kLayoutBlocks; ++b) {
    const double* tile = plane + 2 * (b * n + y0) * B;
    for (std::size_t g = 0; g < B; g += 2) {
      for (std::size_t w = 0; w < B; ++w) {
        const std::size_t e = b * B + w;
        const auto [re, im] = zip(load<Lanes>(tile + 2 * (g * B + w)),
                                  load<Lanes>(tile + 2 * ((g + 1) * B + w)));
        store(band_re + e * B + g, re);
        store(band_im + e * B + g, im);
      }
    }
  }
}

/// Band lines back into an interleaved plane: gather_band's inverse.
void scatter_band(const double* band_re, const double* band_im,
                  std::size_t n, std::size_t y0, double* plane) {
  const std::size_t B = n / kLayoutBlocks;
  for (std::size_t b = 0; b < kLayoutBlocks; ++b) {
    double* tile = plane + 2 * (b * n + y0) * B;
    for (std::size_t g = 0; g < B; g += 2) {
      for (std::size_t w = 0; w < B; ++w) {
        const std::size_t e = b * B + w;
        const auto [c0, c1] = zip(load<Lanes>(band_re + e * B + g),
                                  load<Lanes>(band_im + e * B + g));
        store(tile + 2 * (g * B + w), c0);
        store(tile + 2 * ((g + 1) * B + w), c1);
      }
    }
  }
}

/// Band lines into a split plane (index s of the plane at re[s], im[s]).
void scatter_band_split(const double* band_re, const double* band_im,
                        std::size_t n, std::size_t y0, double* re,
                        double* im) {
  const std::size_t B = n / kLayoutBlocks;
  for (std::size_t b = 0; b < kLayoutBlocks; ++b) {
    const std::size_t tile = (b * n + y0) * B;
    for (std::size_t g = 0; g < B; g += 2) {
      for (std::size_t w = 0; w < B; w += 2) {
        const std::size_t e = b * B + w;
        for (const auto& [from, to] : {std::pair{band_re, re},
                                       std::pair{band_im, im}}) {
          const auto [row0, row1] = zip(load<Lanes>(from + e * B + g),
                                        load<Lanes>(from + (e + 1) * B + g));
          store(to + tile + g * B + w, row0);
          store(to + tile + (g + 1) * B + w, row1);
        }
      }
    }
  }
}

/// min(i, n - i): the wavenumber index of position i along an axis.
std::size_t fold(std::size_t i, std::size_t n) {
  return i <= n / 2 ? i : n - i;
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
  // The decay table: host memory, so filling it moves no virtual time.
  const std::size_t m = n_ / 2 + 1;
  const double norm = 1.0 / (static_cast<double>(n_) * static_cast<double>(n_) *
                             static_cast<double>(n_));
  auto wavenumber = [&](std::size_t k) {
    return 2.0 * std::numbers::pi * static_cast<double>(k) /
           static_cast<double>(n_);
  };
  decay_.resize(m * m * m);
  for (std::size_t ix = 0; ix < m; ++ix) {
    const double kx = wavenumber(ix);
    for (std::size_t iy = 0; iy < m; ++iy) {
      const double ky = wavenumber(iy);
      for (std::size_t iz = 0; iz < m; ++iz) {
        const double kz = wavenumber(iz);
        decay_[(ix * m + iy) * m + iz] =
            std::exp(-(kx * kx + ky * ky + kz * kz) * kDt) * norm;
      }
    }
  }
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
  const std::size_t plane_slots = n_ * n_;  // complex values per plane
  std::vector<double> band(2 * n_ * B);
  std::vector<double> split(2 * plane_slots);  // the plane: re, then im
  double* band_re = band.data();
  double* band_im = band_re + n_ * B;
  double* re = split.data();
  double* im = re + plane_slots;
  for (std::size_t plane = mine.lo; plane < mine.hi; ++plane) {
    auto pv = arr.write_view(2 * plane * plane_slots,
                             2 * (plane + 1) * plane_slots);
    // FFT along x, B rows at a time, into the split copy.
    for (std::size_t y0 = 0; y0 < n_; y0 += B) {
      gather_band(pv.data(), n_, y0, band_re, band_im);
      plan_.transform(band_re, band_im, B, inverse);
      scatter_band_split(band_re, band_im, n_, y0, re, im);
    }
    // FFT along y: block b holds the B lines of its x-range, element y of
    // line w at index y*B + w, so it transforms in place.
    for (std::size_t b = 0; b < L; ++b) {
      plan_.transform(re + b * n_ * B, im + b * n_ * B, B, inverse);
    }
    for (std::size_t i = 0; i < plane_slots; i += 2) {
      const auto [c0, c1] = zip(load<Lanes>(re + i), load<Lanes>(im + i));
      store(pv.data() + 2 * i, c0);
      store(pv.data() + 2 * i + 2, c1);
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
  if (mine.size() > 0) {
    const std::size_t out_base = mine.lo * n_ * n_;  // complex-slot origin
    const std::size_t b_first = mine.lo / B;
    const std::size_t blocks = (mine.hi - 1) / B + 1 - b_first;
    // Every read view first, z then b, as the element-by-element loop
    // took them: the DSM sees the same touches in the same order.
    std::vector<const double*> in(n_ * blocks);
    for (std::size_t z = 0; z < n_; ++z) {
      for (std::size_t j = 0; j < blocks; ++j) {
        const std::size_t src_block = (z * L + b_first + j) * block_slots;
        in[z * blocks + j] =
            s.read_view(2 * src_block, 2 * (src_block + block_slots)).data();
      }
    }
    // Then one BxB tile per (z-block zb, x-block, row y): row y of the B
    // src blocks of z = zb*B .. zb*B+B-1 into `tile` as they lie, then out
    // transposed, one dst row per x: row y of dst block (x, zb) holds those
    // B values of z, at slots (x*L + zb)*block_slots + y*B + z%B. Both
    // sides move whole rows, so each cache line is read or written in one
    // go: the src rows sit whole blocks apart at one offset, and element
    // by element their lines would evict each other before being used up.
    std::vector<double> tile(2 * B * B);
    for (std::size_t zb = 0; zb < L; ++zb) {
      for (std::size_t j = 0; j < blocks; ++j) {
        const std::size_t b = b_first + j;
        const std::size_t x_lo = std::max(mine.lo, b * B);
        const std::size_t x_hi = std::min(mine.hi, (b + 1) * B);
        for (std::size_t y = 0; y < n_; ++y) {
          for (std::size_t zc = 0; zc < B; ++zc) {
            std::memcpy(&tile[2 * zc * B], in[(zb * B + zc) * blocks + j] +
                                               2 * y * B,
                        2 * B * sizeof(double));
          }
          for (std::size_t x = x_lo; x < x_hi; ++x) {
            double* to = out.data() +
                         2 * ((x * L + zb) * block_slots + y * B - out_base);
            for (std::size_t zc = 0; zc < B; ++zc) {
              std::memcpy(to + 2 * zc, &tile[2 * (zc * B + x - b * B)],
                          2 * sizeof(double));
            }
          }
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
  const std::size_t m = n_ / 2 + 1;
  const std::size_t plane_slots = n_ * n_ * 2;  // doubles per x-plane
  const Range mine = block_range(n_, ctx.num_nodes(), ctx.node());
  auto pv = arr.write_view(mine.lo * plane_slots, mine.hi * plane_slots);
  std::vector<double> band(2 * n_ * B);
  double* band_re = band.data();
  double* band_im = band_re + n_ * B;
  for (std::size_t x = mine.lo; x < mine.hi; ++x) {
    const double* decay_x = decay_.data() + fold(x, n_) * m * m;
    double* plane = pv.data() + (x - mine.lo) * plane_slots;
    for (std::size_t y0 = 0; y0 < n_; y0 += B) {
      gather_band(plane, n_, y0, band_re, band_im);
      plan_.transform(band_re, band_im, B, /*inverse=*/false);
      for (std::size_t g = 0; g < B; ++g) {
        const double* factor = decay_x + fold(y0 + g, n_) * m;
        for (std::size_t z = 0; z < n_; ++z) {
          band_re[z * B + g] *= factor[fold(z, n_)];
          band_im[z * B + g] *= factor[fold(z, n_)];
        }
      }
      plan_.transform(band_re, band_im, B, /*inverse=*/true);
      scatter_band(band_re, band_im, n_, y0, plane);
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
