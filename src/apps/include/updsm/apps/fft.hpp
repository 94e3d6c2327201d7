// fft: "a three-dimensional implementation of the Fast Fourier Transform
// that uses matrix transposition to reduce communication" (paper §3.1).
//
// Each time-step advances a 3-D heat equation spectrally:
//   forward 2-D FFTs on owned z-planes, a global transpose (z <-> x), a
//   1-D FFT + spectral decay + inverse 1-D FFT along the (now local)
//   z-axis, a transpose back, and inverse 2-D FFTs. The transposes are
//   all-to-all: every node reads a strided slice of every other node's
//   planes -- the heaviest data traffic of the suite, matching fft's
//   Table-1 row.
//
// In the shared cube, complex values are stored interleaved (re, im); the
// kernel works on split planes instead: every line it transforms has its
// real parts in one array and its imaginary parts in another. The radix-2
// Cooley-Tukey kernel is a real implementation validated against a direct
// DFT in tests/fft_math_test.cpp.
//
// The kernel runs over an FftPlan: everything about a length-n transform
// that does not depend on the data, built once per length. Each FftApp
// holds one, shared read-only by its node fibers. The plan holds
//   * the bit-reversal permutation, as the list of swaps it performs, and
//   * for each butterfly stage (span len = 2, 4, ..., n) and direction,
//     the twiddles w^k, k < len/2, as the recurrence cur <- cur * w from
//     cur = 1 (w = exp(-/+ 2 pi i / len)) produces them, rounding included,
//     split into a real and an imaginary table.
// Each pass over the data runs two stages, half-spans h and 2h (radix-2^2):
// the four elements e, e+h, e+2h, e+3h are closed under both stages, so a
// pass loads them once and gives each the two butterflies it would get
// from the two radix-2 stages. When log2 n is odd, one radix-2 pass ends
// the transform. Every element therefore sees the same butterflies, with
// the same twiddles, in the same order as under the recurrence, and the
// two agree bit for bit (tests/fft_math_test.cpp keeps the recurrence as
// the oracle). The checksums are the correctness reference of every run,
// so that identity is what lets the host kernel change at all
// (docs/SIMULATION.md).
//
// Lines go through the kernel two at a time, as two-lane vectors of
// doubles (one SSE2 register on baseline x86-64); one butterfly template
// serves the two-lane type and the scalar tail of an odd width. The
// vectors are explicit because the compiler does not supply them: GCC 12
// at -O2 leaves a scalar split-plane loop scalar (its four plane pointers
// need runtime alias checks that the -O2 cost model does not emit), and
// the interleaved loop it did vectorize matched its complex-multiply
// pattern, which becomes vfmaddsub under -march=x86-64-v3 even with
// contraction off and changes the last bits. Element-wise vector
// arithmetic is plain IEEE arithmetic per lane under any ISA level.
//
// The spectral step multiplies by a heat-kernel decay that depends on a
// point only through its folded wavenumbers (min(i, n - i) per axis), so
// the app tabulates it once per run: (n/2+1)^3 factors, each computed with
// the step's own expression. Node 0 fills the table in init(); the barrier
// that ends init publishes it to every node. It is not built in the
// constructor, which runs inside the harness's set-up.
//
// The copies between the interleaved cube and the split planes move two
// values at a time too. The transpose takes all of its read views first,
// in the order the DSM has always seen them, then copies B x B tiles of
// whole complex values so that its writes run sequentially.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "updsm/apps/application.hpp"

namespace updsm::apps {

/// The data-independent tables of a length-n radix-2 transform.
class FftPlan {
 public:
  /// Throws UsageError unless `n` is a power of two >= 2.
  explicit FftPlan(std::size_t n);

  /// Transforms `width` lines of n complex values in place. Element e of
  /// line c is (re[e * width + c], im[e * width + c]), so one line is
  /// width 1 and the columns of an n x width row-major block are width
  /// lines. `inverse` applies the conjugate transform WITHOUT the 1/n
  /// scaling (callers fold normalization into the spectral step).
  void transform(double* re, double* im, std::size_t width,
                 bool inverse) const;

 private:
  std::size_t n_;
  /// Bit-reversal swaps (i, j), i < j, in the order the permutation
  /// loop finds them.
  std::vector<std::pair<std::size_t, std::size_t>> swaps_;
  /// Twiddle real and imaginary parts: all forward stages, then all
  /// inverse ones; within a direction the stage of half-span h starts at
  /// index h - 1 and holds h values.
  std::vector<double> tw_re_;
  std::vector<double> tw_im_;
};

class FftApp final : public Application {
 public:
  explicit FftApp(const AppParams& params);

  [[nodiscard]] std::string_view name() const override { return "fft"; }
  void allocate(mem::SharedHeap& heap) override;

  [[nodiscard]] std::size_t n() const { return n_; }

 protected:
  void init(dsm::NodeContext& ctx) override;
  void step(dsm::NodeContext& ctx, int iter) override;
  [[nodiscard]] double compute_checksum(dsm::NodeContext& ctx) override;

 private:
  /// 2-D FFTs (x then y) over this node's z-planes of `cube`.
  void planar_fft(dsm::NodeContext& ctx, GlobalAddr cube, bool inverse);
  /// dst[x][y][z] <- src[z][y][x] for this node's x-planes of dst.
  void transpose(dsm::NodeContext& ctx, GlobalAddr src, GlobalAddr dst);
  /// FFT along z (local in the transposed cube), spectral decay, inverse
  /// FFT along z, and the full 1/n^3 normalization, fused in one pass.
  void spectral_step(dsm::NodeContext& ctx);

  std::size_t n_;
  FftPlan plan_;                 // length n_, read by every node
  /// decay_[(ix*m + iy)*m + iz], m = n/2 + 1: the spectral factor of every
  /// point whose folded wavenumbers are (ix, iy, iz). Filled by node 0 in
  /// init(), read by every node after the barrier that follows it.
  std::vector<double> decay_;
  GlobalAddr data_addr_ = 0;     // data[z][y][x]
  GlobalAddr scratch_addr_ = 0;  // scratch[x][y][z]
};

}  // namespace updsm::apps
