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
// Complex values are stored interleaved (re, im) in a double array; the
// radix-2 Cooley-Tukey kernel is a real implementation validated against
// a direct DFT in tests/fft_math_test.cpp.
//
// The kernel runs over an FftPlan: everything about a length-n transform
// that does not depend on the data, built once per length. Each FftApp
// holds one, shared read-only by its node fibers. The plan holds
//   * the bit-reversal permutation, as the list of swaps it performs, and
//   * for each butterfly stage (span len = 2, 4, ..., n) and direction,
//     the twiddles w^k, k < len/2, as the recurrence cur <- cur * w from
//     cur = 1 (w = exp(-/+ 2 pi i / len)) produces them, rounding included.
// A transform that runs that recurrence inline, one butterfly after the
// other, gives every element the same IEEE operations in the same order
// as the planned kernel, so the two agree bit for bit
// (tests/fft_math_test.cpp keeps the recurrence as the oracle). The
// checksums are the correctness reference of every run, so that identity
// is what lets the host kernel change at all (docs/SIMULATION.md).
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
  /// line c is the complex at slot e * width + c (doubles 2*slot and
  /// 2*slot + 1), so one line is width 1 and the columns of an
  /// n x width row-major block are width lines. `inverse` applies the
  /// conjugate transform WITHOUT the 1/n scaling.
  void transform(double* data, std::size_t width, bool inverse) const;

 private:
  std::size_t n_;
  /// Bit-reversal swaps (i, j), i < j, in the order the permutation
  /// loop finds them.
  std::vector<std::pair<std::size_t, std::size_t>> swaps_;
  /// Interleaved (re, im) twiddles: all forward stages, then all inverse
  /// ones; within a direction the stage of half-span h starts at complex
  /// h - 1 and holds h values.
  std::vector<double> twiddles_;
};

/// In-place radix-2 FFT over `n` interleaved complex values, through a
/// plan built for this call. `inverse` applies the conjugate transform
/// WITHOUT the 1/n scaling (callers fold normalization into the spectral
/// step).
void fft_radix2(double* data, std::size_t n, bool inverse);

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
  GlobalAddr data_addr_ = 0;     // data[z][y][x]
  GlobalAddr scratch_addr_ = 0;  // scratch[x][y][z]
};

}  // namespace updsm::apps
