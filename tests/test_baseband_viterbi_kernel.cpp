// Randomized equivalence suite for the butterfly Viterbi kernel against
// the kept reference decoder (reference/baseband/viterbi_reference.hpp,
// in the test-only acorn_reference library), which derives its trellis
// independently from the generator polynomials. Hard decoding
// must be bit-exact; soft decoding is exact whenever the LLRs are
// integers within +/-kSoftLevelMax (quantization scale 1). The SIMD and
// scalar kernels must agree on every decision bitmask and final metric.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <vector>

#include "baseband/convolutional.hpp"
#include "baseband/viterbi_kernel.hpp"
#include "baseband/viterbi_reference.hpp"

// Global allocation counter for the zero-allocation tests. Overriding
// operator new here affects this test binary only.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace acorn::baseband {
namespace {

constexpr phy::CodeRate kAllRates[] = {
    phy::CodeRate::kRate12, phy::CodeRate::kRate23, phy::CodeRate::kRate34,
    phy::CodeRate::kRate56};

std::size_t pattern_period(phy::CodeRate rate) {
  switch (rate) {
    case phy::CodeRate::kRate12: return 2;
    case phy::CodeRate::kRate23: return 4;
    case phy::CodeRate::kRate34: return 6;
    case phy::CodeRate::kRate56: return 10;
  }
  return 0;
}

std::vector<std::uint8_t> random_bits(std::mt19937_64& gen, std::size_t n) {
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(gen() & 1);
  return bits;
}

// Encode -> puncture -> flip some punctured bits -> depuncture: the hard
// stream a receiver would hand the decoder, erasures included.
std::vector<std::uint8_t> noisy_hard_stream(std::mt19937_64& gen,
                                            std::size_t payload,
                                            phy::CodeRate rate,
                                            bool terminated,
                                            double flip_prob) {
  const ConvolutionalCode code;
  const auto bits = random_bits(gen, payload);
  const auto coded = code.encode(bits, terminated);
  auto punct = puncture(coded, rate);
  std::bernoulli_distribution flip(flip_prob);
  for (auto& b : punct) {
    if (flip(gen)) b ^= 1;
  }
  return depuncture(punct, rate, coded.size());
}

TEST(ViterbiKernelHard, BitExactAcrossRatesAndTermination) {
  const ConvolutionalCode code;
  std::mt19937_64 gen(0xC0DEC0DEu);
  std::uniform_int_distribution<std::size_t> len(1, 320);
  for (const phy::CodeRate rate : kAllRates) {
    for (const bool terminated : {true, false}) {
      for (int trial = 0; trial < 24; ++trial) {
        const std::size_t payload = len(gen);
        const auto stream =
            noisy_hard_stream(gen, payload, rate, terminated, 0.08);
        const auto fast = code.decode(stream, terminated);
        const auto ref = reference::viterbi_decode(stream, terminated);
        ASSERT_EQ(fast, ref)
            << "rate period " << pattern_period(rate) << " terminated "
            << terminated << " payload " << payload << " trial " << trial;
      }
    }
  }
}

TEST(ViterbiKernelHard, LengthEdgesAroundPuncturePeriod) {
  // Payload lengths that land the coded length on, just before and just
  // after a puncture-period boundary exercise punctured_length's partial
  // prefix and the depuncture phase counter.
  const ConvolutionalCode code;
  std::mt19937_64 gen(0xED6Eu);
  for (const phy::CodeRate rate : kAllRates) {
    const std::size_t p = pattern_period(rate);
    std::vector<std::size_t> payloads = {1, 2, 3, p - 1, p, p + 1,
                                         2 * p - 1, 2 * p, 2 * p + 1,
                                         5 * p - 1, 5 * p, 5 * p + 1};
    for (const std::size_t payload : payloads) {
      if (payload == 0) continue;
      const auto stream =
          noisy_hard_stream(gen, payload, rate, /*terminated=*/true, 0.05);
      const auto fast = code.decode(stream, true);
      const auto ref = reference::viterbi_decode(stream, true);
      ASSERT_EQ(fast, ref)
          << "rate period " << p << " payload " << payload;
    }
  }
}

TEST(ViterbiKernelHard, AllErasureSpans) {
  // Whole puncture periods of erasures (a fade wiping out consecutive
  // symbols) force long runs of tied metrics: both decoders must break
  // every tie identically. The fully erased stream is the extreme case.
  const ConvolutionalCode code;
  std::mt19937_64 gen(0x5EEDu);
  for (const phy::CodeRate rate : kAllRates) {
    const std::size_t p = pattern_period(rate);
    for (int trial = 0; trial < 8; ++trial) {
      auto stream =
          noisy_hard_stream(gen, 60 + 3 * p, rate, /*terminated=*/true, 0.0);
      const std::size_t span = p * (2 + static_cast<std::size_t>(trial % 3));
      const std::size_t start =
          (gen() % (stream.size() - span)) & ~std::size_t{1};
      std::fill_n(stream.begin() + static_cast<std::ptrdiff_t>(start), span,
                  kErasedBit);
      ASSERT_EQ(code.decode(stream, true),
                reference::viterbi_decode(stream, true))
          << "rate period " << p << " erased [" << start << ", "
          << start + span << ")";
    }
  }
  // Everything erased: pure tie-break territory.
  for (const bool terminated : {true, false}) {
    const std::vector<std::uint8_t> erased(96, kErasedBit);
    EXPECT_EQ(code.decode(erased, terminated),
              reference::viterbi_decode(erased, terminated));
  }
}

TEST(ViterbiKernelSoft, ExactWithIntegerLlrs) {
  // Integer LLRs whose largest magnitude is exactly kSoftLevelMax
  // quantize with scale 1 (lrint is the identity), so the kernel must
  // reproduce the double-precision reference decoder bit for bit —
  // including the zero-LLR erasures depuncturing inserts.
  const ConvolutionalCode code;
  std::mt19937_64 gen(0x50F7u);
  std::uniform_int_distribution<int> level(-viterbi::kSoftLevelMax,
                                           viterbi::kSoftLevelMax);
  std::uniform_int_distribution<std::size_t> len(2, 200);
  for (const phy::CodeRate rate : kAllRates) {
    for (const bool terminated : {true, false}) {
      for (int trial = 0; trial < 16; ++trial) {
        const std::size_t payload = len(gen);
        const std::size_t coded_len =
            ConvolutionalCode::encoded_length(payload, terminated);
        std::vector<double> punct(punctured_length(coded_len, rate));
        for (auto& l : punct) l = static_cast<double>(level(gen));
        punct[gen() % punct.size()] =
            (gen() & 1) ? viterbi::kSoftLevelMax : -viterbi::kSoftLevelMax;
        const auto llrs = depuncture_soft(punct, rate, coded_len);
        const auto fast = code.decode_soft(llrs, terminated);
        const auto ref = reference::viterbi_decode_soft(llrs, terminated);
        ASSERT_EQ(fast, ref)
            << "rate period " << pattern_period(rate) << " terminated "
            << terminated << " payload " << payload << " trial " << trial;
      }
    }
  }
}

TEST(ViterbiKernelSoft, RecoversPayloadFromNoisyDoubleLlrs) {
  // Continuous LLRs exercise the quantizer: at a comfortable SNR the
  // quantized kernel and the double-precision reference must both
  // recover the payload exactly (statistical equivalence shows up as
  // identical decisions here; near-threshold behaviour is covered by the
  // phy-chain waterfall tests).
  const ConvolutionalCode code;
  std::mt19937_64 gen(0xF10A7u);
  std::normal_distribution<double> noise(0.0, 0.8);
  for (const phy::CodeRate rate : kAllRates) {
    for (int trial = 0; trial < 12; ++trial) {
      const auto bits = random_bits(gen, 240);
      const auto coded = code.encode(bits, true);
      std::vector<double> llr_coded(coded.size());
      for (std::size_t i = 0; i < coded.size(); ++i) {
        llr_coded[i] = (coded[i] ? -4.0 : 4.0) + noise(gen);
      }
      std::vector<double> punct(punctured_length(coded.size(), rate));
      {
        // Puncture the soft stream with the same pattern the bit
        // puncturer uses: a depunctured all-ones stream marks the kept
        // positions with 1 and the punctured ones with kErasedBit.
        const std::vector<std::uint8_t> ones(coded.size(), 1);
        const auto mask = depuncture(puncture(ones, rate), rate, coded.size());
        std::size_t cursor = 0;
        for (std::size_t i = 0; i < mask.size(); ++i) {
          if (mask[i] == 1) punct[cursor++] = llr_coded[i];
        }
      }
      const auto llrs = depuncture_soft(punct, rate, coded.size());
      EXPECT_EQ(code.decode_soft(llrs, true), bits)
          << "kernel, rate period " << pattern_period(rate);
      EXPECT_EQ(reference::viterbi_decode_soft(llrs, true), bits)
          << "reference, rate period " << pattern_period(rate);
    }
  }
}

TEST(ViterbiKernelForward, SimdMatchesScalarExactly) {
  // Decisions and final metrics must be bit-identical between the two
  // kernels at step counts below, at, and across the normalization
  // interval (and over many random level streams).
  std::mt19937_64 gen(0xACE5u);
  std::uniform_int_distribution<int> level(-viterbi::kSoftLevelMax,
                                           viterbi::kSoftLevelMax);
  const std::size_t interval = viterbi::kNormInterval;
  const std::size_t step_cases[] = {1,           interval - 1, interval,
                                    interval + 1, 10 * interval - 3,
                                    10 * interval, 401};
  for (const std::size_t steps : step_cases) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<std::int16_t> levels(2 * steps);
      for (auto& l : levels) l = static_cast<std::int16_t>(level(gen));
      std::vector<std::uint64_t> dec_a(steps);
      std::vector<std::uint64_t> dec_b(steps);
      std::array<std::int16_t, viterbi::kNumStates> met_a;
      std::array<std::int16_t, viterbi::kNumStates> met_b;
      viterbi::forward(levels.data(), steps, dec_a.data(), met_a.data());
      viterbi::forward_scalar(levels.data(), steps, dec_b.data(),
                              met_b.data());
      ASSERT_EQ(dec_a, dec_b) << "steps " << steps << " trial " << trial;
      ASSERT_TRUE(std::equal(met_a.begin(), met_a.end(), met_b.begin()))
          << "steps " << steps << " trial " << trial;
    }
  }
}

// forward against forward_scalar on one level stream: every decision
// word and every final metric.
void expect_forward_matches_scalar(const std::vector<std::int16_t>& levels,
                                   const char* what) {
  const std::size_t steps = levels.size() / 2;
  std::vector<std::uint64_t> dec_a(steps);
  std::vector<std::uint64_t> dec_b(steps);
  std::array<std::int16_t, viterbi::kNumStates> met_a;
  std::array<std::int16_t, viterbi::kNumStates> met_b;
  viterbi::forward(levels.data(), steps, dec_a.data(), met_a.data());
  viterbi::forward_scalar(levels.data(), steps, dec_b.data(), met_b.data());
  for (std::size_t i = 0; i < steps; ++i) {
    ASSERT_EQ(dec_a[i], dec_b[i]) << what << ", " << steps << " steps, step "
                                  << i;
  }
  ASSERT_TRUE(std::equal(met_a.begin(), met_a.end(), met_b.begin()))
      << what << ", " << steps << " steps";
}

TEST(ViterbiKernelForward, SimdMatchesScalarOnTiesAndExtremes) {
  // Uniform soft levels rarely tie; hard levels in {-1, 0, +1} tie at
  // most states on every step, so the even-predecessor tie-break is hit
  // everywhere. The all-erasure stream ties every comparison; alternating
  // full-scale levels are the int16 overflow budget's worst case; 12,006
  // steps is a 1500-byte packet.
  std::mt19937_64 gen(0x71E5u);
  std::uniform_int_distribution<int> hard(-1, 1);
  std::uniform_int_distribution<int> soft(-viterbi::kSoftLevelMax,
                                          viterbi::kSoftLevelMax);
  const std::size_t interval = viterbi::kNormInterval;
  const std::size_t step_cases[] = {1,        2,        interval - 1,
                                    interval, interval + 1, 10 * interval,
                                    401,      12006};
  const std::int16_t top = viterbi::kSoftLevelMax;
  for (const std::size_t steps : step_cases) {
    std::vector<std::int16_t> levels(2 * steps);
    for (int trial = 0; trial < 4; ++trial) {
      for (auto& l : levels) l = static_cast<std::int16_t>(hard(gen));
      expect_forward_matches_scalar(levels, "hard levels");
    }
    std::fill(levels.begin(), levels.end(), std::int16_t{0});
    expect_forward_matches_scalar(levels, "all erasures");
    for (std::size_t i = 0; i < levels.size(); ++i) {
      levels[i] = static_cast<std::int16_t>(i % 2 == 0 ? top : -top);
    }
    expect_forward_matches_scalar(levels, "alternating +/-max per level");
    for (std::size_t i = 0; i < levels.size(); ++i) {
      levels[i] = static_cast<std::int16_t>((i / 2) % 2 == 0 ? top : -top);
    }
    expect_forward_matches_scalar(levels, "alternating +/-max per step");
    for (auto& l : levels) {
      l = static_cast<std::int16_t>((gen() & 1) != 0 ? top : -top);
    }
    expect_forward_matches_scalar(levels, "random +/-max");
    for (auto& l : levels) l = static_cast<std::int16_t>(soft(gen));
    expect_forward_matches_scalar(levels, "uniform soft levels");
  }
}

std::size_t decode_alloc_count(bool soft, int iterations) {
  const ConvolutionalCode code;
  std::mt19937_64 gen(0xA110Cu);
  const auto bits = random_bits(gen, 400);
  const auto coded = code.encode(bits, true);
  std::vector<double> llrs(coded.begin(), coded.end());
  for (auto& l : llrs) l = l ? -3.0 : 3.0;
  std::vector<std::uint8_t> out(bits.size());
  ViterbiWorkspace ws;
  // Warm call sizes the workspace.
  if (soft) {
    code.decode_soft_into(llrs, out, ws);
  } else {
    code.decode_into(coded, out, ws);
  }
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < iterations; ++i) {
    if (soft) {
      code.decode_soft_into(llrs, out, ws);
    } else {
      code.decode_into(coded, out, ws);
    }
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(out, bits);
  return after - before;
}

TEST(ViterbiKernelLevels, HardLevelsForEveryByte) {
  // 0 -> +1, 1 -> -1, any other byte (kErasedBit included) -> 0.
  std::vector<std::uint8_t> coded(256);
  for (std::size_t i = 0; i < coded.size(); ++i) {
    coded[i] = static_cast<std::uint8_t>(i);
  }
  std::vector<std::int16_t> levels(coded.size(), 7);
  viterbi::levels_from_hard(coded, levels.data());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const std::int16_t want = i == 0 ? 1 : (i == 1 ? -1 : 0);
    EXPECT_EQ(levels[i], want) << "byte " << i;
  }
}

TEST(ViterbiKernelLevels, SoftLevelsMatchLrintLoop) {
  // The quantizer is peak-scaled round-to-nearest-even (std::lrint) with
  // saturation: exact .5 ties round to even, NaN and infinities follow
  // whatever std::lrint returns for them.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> cases = {
      {255.0, 0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 254.5, -254.5, 0.0, -0.0},
      {510.0, 1.0, 3.0, 5.0, -1.0, -3.0, -5.0, 509.0},  // scale 1/2: ties
      {255.0, nan, 3.0, -nan, -7.25},
      {inf, 1.0, -2.0, 0.0, -inf, nan},
      {-inf, 3.0},
      {nan, nan},
      {1e-310, -5e-324, 2.5e-310},
  };
  std::mt19937_64 gen(21);
  std::uniform_real_distribution<double> u(-40.0, 40.0);
  std::vector<double> random(1001);
  for (double& x : random) x = std::round(u(gen) * 2.0) / 2.0;
  cases.push_back(random);
  for (const std::vector<double>& llrs : cases) {
    double peak = 0.0;
    for (const double x : llrs) peak = std::max(peak, std::abs(x));
    std::vector<std::int16_t> want(llrs.size(), 0);
    if (peak > 0.0) {
      const double scale = static_cast<double>(viterbi::kSoftLevelMax) / peak;
      for (std::size_t i = 0; i < llrs.size(); ++i) {
        want[i] = static_cast<std::int16_t>(
            std::clamp<long>(std::lrint(llrs[i] * scale),
                             -viterbi::kSoftLevelMax, viterbi::kSoftLevelMax));
      }
    }
    std::vector<std::int16_t> got(llrs.size(), 7);
    viterbi::levels_from_soft(llrs, got.data());
    EXPECT_EQ(got, want) << "case of " << llrs.size() << " LLRs, first "
                         << llrs[0];
  }
}

TEST(ViterbiKernelAllocation, WarmDecodeIsAllocationFree) {
  EXPECT_EQ(decode_alloc_count(/*soft=*/false, 8), 0u);
  EXPECT_EQ(decode_alloc_count(/*soft=*/true, 8), 0u);
}

}  // namespace
}  // namespace acorn::baseband
