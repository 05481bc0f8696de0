#include "baseband/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "baseband/fft_reference.hpp"
#include "util/rng.hpp"

namespace acorn::baseband {
namespace {

TEST(Fft, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_TRUE(is_power_of_two(128));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(12));
  EXPECT_FALSE(is_power_of_two(100));
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Cx> data(12);
  EXPECT_THROW(fft_in_place(data), std::invalid_argument);
  EXPECT_THROW(ifft_in_place(data), std::invalid_argument);
}

TEST(Fft, DeltaTransformsToFlatSpectrum) {
  std::vector<Cx> data(8, Cx{});
  data[0] = Cx(1.0, 0.0);
  const auto spec = fft(data);
  for (const Cx& x : spec) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToDcBin) {
  std::vector<Cx> data(16, Cx(1.0, 0.0));
  const auto spec = fft(data);
  EXPECT_NEAR(spec[0].real(), 16.0, 1e-12);
  for (std::size_t k = 1; k < spec.size(); ++k) {
    EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInCorrectBin) {
  const std::size_t n = 64;
  const std::size_t tone = 5;
  std::vector<Cx> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * M_PI * tone * i / n;
    data[i] = Cx(std::cos(phase), std::sin(phase));
  }
  const auto spec = fft(data);
  EXPECT_NEAR(std::abs(spec[tone]), static_cast<double>(n), 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != tone) {
      EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, RoundTripIsIdentity) {
  // Table-driven twiddles: no per-stage drift, so the round trip holds
  // to near machine precision (the accumulated-twiddle kernel needed
  // 1e-10 here).
  util::Rng rng(5);
  for (std::size_t n : {8u, 64u, 128u, 256u}) {
    std::vector<Cx> data(n);
    for (auto& x : data) x = Cx(rng.normal(), rng.normal());
    const auto back = ifft(fft(data));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i].real(), data[i].real(), 1e-13);
      EXPECT_NEAR(back[i].imag(), data[i].imag(), 1e-13);
    }
  }
}

TEST(Fft, LongTransformRoundTripStaysTight) {
  // 4096-point forward/inverse identity: the old `w *= wlen`
  // accumulation lost ~4 digits over butterflies this long.
  util::Rng rng(21);
  const std::size_t n = 4096;
  std::vector<Cx> data(n);
  for (auto& x : data) x = Cx(rng.normal(), rng.normal());
  const auto back = ifft(fft(data));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), data[i].real(), 1e-12);
    EXPECT_NEAR(back[i].imag(), data[i].imag(), 1e-12);
  }
}

TEST(Fft, PlanMatchesFreeFunctions) {
  util::Rng rng(22);
  const FftPlan plan(64);
  EXPECT_EQ(plan.size(), 64u);
  std::vector<Cx> a(64);
  for (auto& x : a) x = Cx(rng.normal(), rng.normal());
  std::vector<Cx> b = a;
  fft_in_place(a);
  plan.forward(b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);  // same plan tables -> bit-identical
  }
  EXPECT_THROW(plan.forward(std::span<Cx>(a.data(), 32)),
               std::invalid_argument);
  EXPECT_THROW(FftPlan(24), std::invalid_argument);
}

TEST(Fft, SharedPlanCacheReturnsSameInstance) {
  const FftPlan& p1 = fft_plan(128);
  const FftPlan& p2 = fft_plan(128);
  EXPECT_EQ(&p1, &p2);
  EXPECT_THROW(fft_plan(96), std::invalid_argument);
}

TEST(Fft, ParsevalEnergyConservation) {
  util::Rng rng(6);
  const std::size_t n = 128;
  std::vector<Cx> data(n);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = Cx(rng.normal(), rng.normal());
    time_energy += std::norm(x);
  }
  const auto spec = fft(data);
  double freq_energy = 0.0;
  for (const Cx& x : spec) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n), 1e-6);
}

TEST(Fft, Linearity) {
  util::Rng rng(7);
  const std::size_t n = 32;
  std::vector<Cx> a(n);
  std::vector<Cx> b(n);
  std::vector<Cx> sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = Cx(rng.normal(), rng.normal());
    b[i] = Cx(rng.normal(), rng.normal());
    sum[i] = a[i] + 2.0 * b[i];
  }
  const auto fa = fft(a);
  const auto fb = fft(b);
  const auto fs = fft(sum);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(fs[k] - (fa[k] + 2.0 * fb[k])), 0.0, 1e-9);
  }
}

TEST(Ifft, NormalizationGivesUnitRoundTrip) {
  // IFFT of a one-hot frequency grid has 1/N amplitude per sample.
  std::vector<Cx> grid(64, Cx{});
  grid[3] = Cx(1.0, 0.0);
  const auto time = ifft(grid);
  for (const Cx& x : time) {
    EXPECT_NEAR(std::abs(x), 1.0 / 64.0, 1e-12);
  }
}

// The vector kernel against the one-lane reference transform
// (reference/baseband/fft_reference.hpp), byte for byte.

// The NaN the hardware produces for inf - inf (on x86 its sign bit is
// set). IEEE 754 leaves open which NaN an operation on two NaNs returns,
// and a compiler may swap the operands of an addition, so the inputs
// carry only this NaN: every NaN inside either transform then has the
// same bytes, whichever operand each add propagates.
double hardware_nan() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

// A value from the special set: signed zeros, infinities, NaN,
// denormals and magnitudes near overflow.
double special_value(util::Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double pool[] = {0.0,     -0.0,     inf,      -inf,    hardware_nan(),
                         5e-324,  -5e-324,  2.5e-310, -1e-308, 1e308,
                         -1e308,  1.7e308,  -1.7e308, 1.0,     -1.0};
  return pool[rng.uniform_int(0, std::ssize(pool) - 1)];
}

// Kind 0: normal draws. Kind 1: normal draws with a fifth of the
// components replaced by special values. Kind 2: special values only.
// Kind 3: finite specials only (zeros, denormals, huge values), whose
// sums overflow to infinities and then NaNs inside the transform.
std::vector<Cx> oracle_input(util::Rng& rng, std::size_t n, int kind) {
  std::vector<Cx> data(n);
  const auto component = [&]() -> double {
    switch (kind) {
      case 1:
        return rng.uniform() < 0.2 ? special_value(rng) : rng.normal();
      case 2:
        return special_value(rng);
      case 3: {
        const double finite[] = {0.0, -0.0, 5e-324, -2.5e-310, 1.7e308,
                                 -1.7e308, 1e-300};
        return finite[rng.uniform_int(0, 6)];
      }
      default:
        return rng.normal();
    }
  };
  for (Cx& x : data) {
    const double re = component();
    x = Cx(re, component());
  }
  return data;
}

bool same_bytes(const std::vector<Cx>& a, const std::vector<Cx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Cx)) == 0;
}

TEST(FftOracle, ForwardAndInverseMatchReferenceBytes) {
  util::Rng rng(0xFF7);
  for (std::size_t n = 1; n <= 1024; n *= 2) {
    const FftPlan plan(n);
    const reference::ScalarFftPlan ref(n);
    for (int kind = 0; kind < 4; ++kind) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<Cx> input = oracle_input(rng, n, kind);
        std::vector<Cx> got = input;
        std::vector<Cx> want = input;
        plan.forward(got);
        ref.forward(want);
        ASSERT_TRUE(same_bytes(got, want))
            << "forward n " << n << " kind " << kind << " trial " << trial;
        got = input;
        want = input;
        plan.inverse(got);
        ref.inverse(want);
        ASSERT_TRUE(same_bytes(got, want))
            << "inverse n " << n << " kind " << kind << " trial " << trial;
      }
    }
  }
}

TEST(FftOracle, SharedPlansMatchReferenceAtOfdmSizes) {
  // The plans the OFDM chain uses, on many random symbols.
  util::Rng rng(0x64128);
  for (const std::size_t n : {64u, 128u}) {
    const reference::ScalarFftPlan ref(n);
    for (int trial = 0; trial < 500; ++trial) {
      const std::vector<Cx> input = oracle_input(rng, n, trial % 2);
      std::vector<Cx> got = input;
      std::vector<Cx> want = input;
      if (trial % 4 < 2) {
        fft_in_place(got);
        ref.forward(want);
      } else {
        ifft_in_place(got);
        ref.inverse(want);
      }
      ASSERT_TRUE(same_bytes(got, want)) << "n " << n << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace acorn::baseband
