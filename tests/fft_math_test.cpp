// Validates the radix-2 FFT kernel against a direct DFT, plus transform
// identities (roundtrip, linearity, Parseval); checks the planned kernel
// bit for bit against the twiddle recurrence it replaced; and pins the
// bits of the sequential fft answer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "updsm/apps/fft.hpp"
#include "updsm/common/rng.hpp"
#include "updsm/harness/experiment.hpp"

namespace updsm::apps {
namespace {

using Cvec = std::vector<std::complex<double>>;

Cvec to_complex(const std::vector<double>& interleaved) {
  Cvec out(interleaved.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = {interleaved[2 * i], interleaved[2 * i + 1]};
  }
  return out;
}

Cvec naive_dft(const Cvec& in, bool inverse) {
  const std::size_t n = in.size();
  Cvec out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0, 0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * std::numbers::pi *
                         static_cast<double>(k * j) / static_cast<double>(n);
      acc += in[j] * std::complex<double>{std::cos(ang), std::sin(ang)};
    }
    out[k] = acc;
  }
  return out;
}

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  std::vector<double> signal(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    signal[i] =
        static_cast<double>(splitmix64(seed + i) >> 11) * 0x1.0p-53 - 0.5;
  }
  return signal;
}

class FftLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftLengthTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 17);
  const Cvec reference = naive_dft(to_complex(signal), /*inverse=*/false);
  fft_radix2(signal.data(), n, /*inverse=*/false);
  const Cvec fast = to_complex(signal);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[k].real(), reference[k].real(), 1e-9 * n);
    EXPECT_NEAR(fast[k].imag(), reference[k].imag(), 1e-9 * n);
  }
}

TEST_P(FftLengthTest, ForwardInverseRoundTrip) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 23);
  auto signal = original;
  fft_radix2(signal.data(), n, /*inverse=*/false);
  fft_radix2(signal.data(), n, /*inverse=*/true);
  // Unnormalized: inverse(forward(x)) == n * x.
  for (std::size_t i = 0; i < 2 * n; ++i) {
    EXPECT_NEAR(signal[i], original[i] * static_cast<double>(n), 1e-9 * n);
  }
}

TEST_P(FftLengthTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 31);
  double time_energy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    time_energy += signal[2 * i] * signal[2 * i] +
                   signal[2 * i + 1] * signal[2 * i + 1];
  }
  fft_radix2(signal.data(), n, /*inverse=*/false);
  double freq_energy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    freq_energy += signal[2 * i] * signal[2 * i] +
                   signal[2 * i + 1] * signal[2 * i + 1];
  }
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftLengthTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           std::string name = "n";
                           name += std::to_string(i.param);
                           return name;
                         });

TEST(FftTest, LinearityOfTransform) {
  constexpr std::size_t n = 64;
  auto a = random_signal(n, 1);
  auto b = random_signal(n, 2);
  std::vector<double> sum(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  fft_radix2(a.data(), n, false);
  fft_radix2(b.data(), n, false);
  fft_radix2(sum.data(), n, false);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    EXPECT_NEAR(sum[i], 2.0 * a[i] + 3.0 * b[i], 1e-9);
  }
}

TEST(FftTest, ImpulseTransformsToConstant) {
  constexpr std::size_t n = 32;
  std::vector<double> signal(2 * n, 0.0);
  signal[0] = 1.0;  // delta at t=0
  fft_radix2(signal.data(), n, false);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(signal[2 * k], 1.0, 1e-12);
    EXPECT_NEAR(signal[2 * k + 1], 0.0, 1e-12);
  }
}

TEST(FftTest, RejectsNonPowerOfTwo) {
  std::vector<double> signal(2 * 12);
  EXPECT_THROW(fft_radix2(signal.data(), 12, false), UsageError);
  EXPECT_THROW(fft_radix2(signal.data(), 0, false), UsageError);
}

// The oracle: a radix-2 kernel that computes its twiddles inside the
// butterfly loop by the recurrence cur <- cur * w. The planned kernel
// must reproduce it bit for bit.
void recurrence_fft(double* data, std::size_t n, bool inverse) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      std::swap(data[2 * i], data[2 * j]);
      std::swap(data[2 * i + 1], data[2 * j + 1]);
    }
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1 : -1);
    const double w_re = std::cos(ang);
    const double w_im = std::sin(ang);
    for (std::size_t i = 0; i < n; i += len) {
      double cur_re = 1.0;
      double cur_im = 0.0;
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::size_t a = 2 * (i + k);
        const std::size_t b = 2 * (i + k + len / 2);
        const double t_re = data[b] * cur_re - data[b + 1] * cur_im;
        const double t_im = data[b] * cur_im + data[b + 1] * cur_re;
        data[b] = data[a] - t_re;
        data[b + 1] = data[a + 1] - t_im;
        data[a] += t_re;
        data[a + 1] += t_im;
        const double next_re = cur_re * w_re - cur_im * w_im;
        cur_im = cur_re * w_im + cur_im * w_re;
        cur_re = next_re;
      }
    }
  }
}

/// Seeded doubles of both signs and many magnitudes, with +0.0, -0.0 and
/// subnormals mixed in: the values where a reordered or simplified
/// operation would first change a sign or a last bit.
std::vector<double> edge_signal(std::size_t doubles, std::uint64_t seed) {
  std::vector<double> v(doubles);
  for (std::size_t i = 0; i < doubles; ++i) {
    const std::uint64_t r = splitmix64(seed + i);
    const std::uint64_t sign = (r & 1) << 63;
    switch (r % 8) {
      case 0:
        v[i] = 0.0;
        break;
      case 1:
        v[i] = -0.0;
        break;
      case 2:  // exponent field 0: a subnormal with a random mantissa
        v[i] = std::bit_cast<double>(sign | ((r >> 8) & ((1ULL << 52) - 1)) |
                                     1);
        break;
      case 3:
        v[i] = std::numeric_limits<double>::denorm_min();
        break;
      default:
        v[i] = std::ldexp(static_cast<double>(r >> 11) * 0x1.0p-53,
                          static_cast<int>((r >> 3) % 41) - 20) *
               ((r & 1) != 0 ? -1.0 : 1.0);
        break;
    }
  }
  return v;
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << ": double " << i << " is " << got[i] << ", recurrence "
        << "gives " << want[i];
  }
}

// A zero's sign survives only while its butterfly partners are zeros too,
// so short lines show most sign slips: every length gets many inputs.
TEST(FftPlanTest, BitIdenticalToRecurrence) {
  for (std::size_t n = 2; n <= 1024; n *= 2) {
    for (const bool inverse : {false, true}) {
      for (std::uint64_t seed = 0; seed < 64; ++seed) {
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                     std::to_string(seed) +
                     (inverse ? " inverse" : " forward"));
        const auto input = edge_signal(2 * n, (n << 8) + seed);
        auto planned = input;
        fft_radix2(planned.data(), n, inverse);
        auto oracle = input;
        recurrence_fft(oracle.data(), n, inverse);
        expect_same_bits(planned, oracle, "fft_radix2");
      }
    }
  }
}

// The app transforms B lines at once (element e of line c at slot
// e*width + c); each line must come out exactly as if transformed alone.
TEST(FftPlanTest, BatchedLinesBitIdenticalToRecurrence) {
  for (std::size_t n = 2; n <= 1024; n *= 2) {
    const FftPlan plan(n);
    for (const std::size_t width : {2, 3, 8}) {
      for (const bool inverse : {false, true}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " width=" +
                     std::to_string(width) +
                     (inverse ? " inverse" : " forward"));
        const auto input = edge_signal(2 * n * width, 7 * n + width);
        auto batched = input;
        plan.transform(batched.data(), width, inverse);
        for (std::size_t c = 0; c < width; ++c) {
          std::vector<double> line(2 * n);
          std::vector<double> got(2 * n);
          for (std::size_t e = 0; e < n; ++e) {
            for (std::size_t part = 0; part < 2; ++part) {
              line[2 * e + part] = input[2 * (e * width + c) + part];
              got[2 * e + part] = batched[2 * (e * width + c) + part];
            }
          }
          recurrence_fft(line.data(), n, inverse);
          expect_same_bits(got, line, "FftPlan::transform");
        }
      }
    }
  }
}

// The sequential fft answer (15 time-steps, the default window), pinned
// bit for bit. Any kernel edit that changes one rounding anywhere in the
// run changes these. They were recorded with the recurrence kernel the
// plan replaced, on x86-64 with glibc 2.36; the libm's exp, sin and cos
// feed them too.
TEST(FftAnswerTest, SequentialChecksumBitsArePinned) {
  struct Pin {
    double scale;
    std::uint64_t seed;
    double checksum;
  };
  const Pin pins[] = {
      {0.25, 0x5ca1ab1e, 0x1.fb112f875232p+10},
      {0.25, 7, 0x1.007170efb65dap+11},
      {0.5, 0x5ca1ab1e, 0x1.ff7dd2eb1f2dbp+13},
      {0.5, 7, 0x1.fe9a778350ecap+13},
  };
  for (const Pin& pin : pins) {
    AppParams params;
    params.scale = pin.scale;
    params.seed = pin.seed;
    const harness::RunResult run =
        harness::run_sequential("fft", dsm::ClusterConfig{}, params);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(run.checksum),
              std::bit_cast<std::uint64_t>(pin.checksum))
        << "scale " << pin.scale << " seed " << pin.seed << ": checksum "
        << std::hexfloat << run.checksum << ", pinned " << pin.checksum;
  }
}

}  // namespace
}  // namespace updsm::apps
