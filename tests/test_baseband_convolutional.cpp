#include "baseband/convolutional.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace acorn::baseband {
namespace {

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_u64() & 1u);
  return bits;
}

TEST(Convolutional, EncodeDoublesLengthPlusTail) {
  const ConvolutionalCode code;
  const auto bits = random_bits(100, 1);
  EXPECT_EQ(code.encode(bits).size(), 2 * (100 + 6));
  EXPECT_EQ(code.encode(bits, false).size(), 200u);
}

TEST(Convolutional, AllZeroInputGivesAllZeroOutput) {
  const ConvolutionalCode code;
  const std::vector<std::uint8_t> zeros(50, 0);
  for (std::uint8_t b : code.encode(zeros)) EXPECT_EQ(b, 0);
}

TEST(Convolutional, RoundTripNoiseless) {
  const ConvolutionalCode code;
  const auto bits = random_bits(500, 2);
  const auto decoded = code.decode(code.encode(bits));
  ASSERT_EQ(decoded.size(), bits.size());
  EXPECT_EQ(decoded, bits);
}

TEST(Convolutional, DecodeRejectsOddLength) {
  const ConvolutionalCode code;
  const std::vector<std::uint8_t> odd(7, 0);
  EXPECT_THROW(code.decode(odd), std::invalid_argument);
}

TEST(Convolutional, CorrectsScatteredErrors) {
  // dfree = 10: a handful of well-separated channel errors must vanish.
  const ConvolutionalCode code;
  const auto bits = random_bits(400, 3);
  auto coded = code.encode(bits);
  for (std::size_t pos : {10u, 150u, 300u, 500u, 700u}) {
    coded[pos] ^= 1;
  }
  EXPECT_EQ(code.decode(coded), bits);
}

TEST(Convolutional, CorrectsErasures) {
  const ConvolutionalCode code;
  const auto bits = random_bits(200, 4);
  auto coded = code.encode(bits);
  // Erase every 6th coded bit (worse than rate-3/4 puncturing).
  for (std::size_t i = 0; i < coded.size(); i += 6) coded[i] = kErasedBit;
  EXPECT_EQ(code.decode(coded), bits);
}

TEST(Convolutional, BurstBeyondCapacityFails) {
  const ConvolutionalCode code;
  const auto bits = random_bits(100, 5);
  auto coded = code.encode(bits);
  for (std::size_t i = 40; i < 80; ++i) coded[i] ^= 1;  // 40-bit burst
  EXPECT_NE(code.decode(coded), bits);
}

TEST(Convolutional, UnterminatedRoundTrip) {
  const ConvolutionalCode code;
  const auto bits = random_bits(300, 6);
  const auto decoded = code.decode(code.encode(bits, false), false);
  // Without termination, the last few bits lack protection; the body
  // must still be exact.
  ASSERT_EQ(decoded.size(), bits.size());
  for (std::size_t i = 0; i + 8 < bits.size(); ++i) {
    EXPECT_EQ(decoded[i], bits[i]) << i;
  }
}

TEST(Puncturing, LengthsMatchRates) {
  // 1200 rate-1/2 coded bits -> 1200 (1/2), 900 (2/3), 800 (3/4),
  // 720 (5/6).
  EXPECT_EQ(punctured_length(1200, phy::CodeRate::kRate12), 1200u);
  EXPECT_EQ(punctured_length(1200, phy::CodeRate::kRate23), 900u);
  EXPECT_EQ(punctured_length(1200, phy::CodeRate::kRate34), 800u);
  EXPECT_EQ(punctured_length(1200, phy::CodeRate::kRate56), 720u);
}

TEST(Puncturing, RateOneHalfIsIdentity) {
  const auto bits = random_bits(100, 7);
  EXPECT_EQ(puncture(bits, phy::CodeRate::kRate12),
            std::vector<std::uint8_t>(bits.begin(), bits.end()));
}

TEST(Puncturing, DepunctureRestoresKeptBitsAndMarksErasures) {
  const auto coded = random_bits(120, 8);
  for (const phy::CodeRate rate :
       {phy::CodeRate::kRate23, phy::CodeRate::kRate34,
        phy::CodeRate::kRate56}) {
    const auto punct = puncture(coded, rate);
    const auto back = depuncture(punct, rate, coded.size());
    ASSERT_EQ(back.size(), coded.size());
    std::size_t erased = 0;
    for (std::size_t i = 0; i < coded.size(); ++i) {
      if (back[i] == kErasedBit) {
        ++erased;
      } else {
        EXPECT_EQ(back[i], coded[i]) << i;
      }
    }
    EXPECT_EQ(erased, coded.size() - punct.size());
  }
}

TEST(Puncturing, DepunctureValidatesLength) {
  const auto punct = random_bits(10, 9);
  EXPECT_THROW(depuncture(punct, phy::CodeRate::kRate34, 100),
               std::invalid_argument);
}

// Punctured round trips through the decoder, per rate.
class PuncturedRoundTrip
    : public ::testing::TestWithParam<phy::CodeRate> {};

TEST_P(PuncturedRoundTrip, CleanChannel) {
  const ConvolutionalCode code;
  const auto bits = random_bits(600, 10);
  const auto coded = code.encode(bits);
  const auto punct = puncture(coded, GetParam());
  const auto depunct = depuncture(punct, GetParam(), coded.size());
  EXPECT_EQ(code.decode(depunct), bits);
}

TEST_P(PuncturedRoundTrip, SurvivesSparseErrors) {
  const ConvolutionalCode code;
  const auto bits = random_bits(600, 11);
  const auto coded = code.encode(bits);
  auto punct = puncture(coded, GetParam());
  // One error every 100 bits: within even the rate-5/6 correction power.
  for (std::size_t i = 50; i < punct.size(); i += 100) punct[i] ^= 1;
  const auto depunct = depuncture(punct, GetParam(), coded.size());
  EXPECT_EQ(code.decode(depunct), bits);
}

INSTANTIATE_TEST_SUITE_P(AllRates, PuncturedRoundTrip,
                         ::testing::Values(phy::CodeRate::kRate12,
                                           phy::CodeRate::kRate23,
                                           phy::CodeRate::kRate34,
                                           phy::CodeRate::kRate56));

TEST(Convolutional, WeakerRatesFailFirstUnderNoise) {
  // At a fixed channel BER, decoded error rate must rise with puncturing
  // (mirrors the analytic ordering in phy/coding.hpp).
  const ConvolutionalCode code;
  util::Rng rng(12);
  const auto bits = random_bits(2000, 13);
  const auto coded = code.encode(bits);
  double prev_errors = -1.0;
  for (const phy::CodeRate rate :
       {phy::CodeRate::kRate12, phy::CodeRate::kRate34,
        phy::CodeRate::kRate56}) {
    auto punct = puncture(coded, rate);
    for (auto& b : punct) {
      if (rng.bernoulli(0.04)) b ^= 1;
    }
    const auto decoded =
        code.decode(depuncture(punct, rate, coded.size()));
    double errors = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (decoded[i] != bits[i]) ++errors;
    }
    EXPECT_GE(errors, prev_errors) << to_string(rate);
    prev_errors = errors;
  }
  EXPECT_GT(prev_errors, 0.0);  // rate 5/6 must show residual errors
}


TEST(SoftViterbi, RoundTripWithConfidentLlrs) {
  const ConvolutionalCode code;
  const auto bits = random_bits(400, 20);
  const auto coded = code.encode(bits);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? -4.0 : 4.0;  // positive = bit 0
  }
  EXPECT_EQ(code.decode_soft(llrs), bits);
}

TEST(SoftViterbi, RejectsOddLength) {
  const ConvolutionalCode code;
  const std::vector<double> odd(5, 1.0);
  EXPECT_THROW(code.decode_soft(odd), std::invalid_argument);
}

TEST(SoftViterbi, ErasuresAreNeutral) {
  const ConvolutionalCode code;
  const auto bits = random_bits(200, 21);
  const auto coded = code.encode(bits);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = (i % 5 == 0) ? 0.0 : (coded[i] ? -3.0 : 3.0);
  }
  EXPECT_EQ(code.decode_soft(llrs), bits);
}

TEST(SoftViterbi, BeatsHardOnNoisyLlrs) {
  // Same channel observations: soft keeps confidence information the
  // hard slicer throws away.
  const ConvolutionalCode code;
  util::Rng rng(22);
  int soft_errors = 0;
  int hard_errors = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto bits = random_bits(300, 23 + static_cast<std::uint64_t>(trial));
    const auto coded = code.encode(bits);
    std::vector<double> llrs(coded.size());
    std::vector<std::uint8_t> hard(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) {
      // BPSK-ish observation at low SNR.
      const double x = (coded[i] ? -1.0 : 1.0) + rng.normal(0.0, 0.9);
      llrs[i] = 2.0 * x;
      hard[i] = x < 0.0 ? 1 : 0;
    }
    const auto soft_out = code.decode_soft(llrs);
    const auto hard_out = code.decode(hard);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (soft_out[i] != bits[i]) ++soft_errors;
      if (hard_out[i] != bits[i]) ++hard_errors;
    }
  }
  EXPECT_LT(soft_errors, hard_errors / 2 + 1)
      << "soft " << soft_errors << " vs hard " << hard_errors;
}

TEST(SoftDepuncture, ErasuresAreZeroLlrs) {
  std::vector<double> punctured = {1.0, -2.0, 3.0};
  const auto out =
      depuncture_soft(punctured, phy::CodeRate::kRate34, 4);
  // Hmm: rate 3/4 keeps 4 of every 6; with coded_len 4 the kept count is
  // punctured_length(4, 3/4). Validate shape through the library itself.
  EXPECT_EQ(out.size(), 4u);
}

// Oracle for the word-at-a-time encoder and the period-wise
// (de)puncturers: the 802.11 shift register one input bit at a time
// (bit 6 holds the current input, bit 0 the one six steps back; each
// output is the parity of the register under its generator, 0133 or
// 0171), and the puncturing pattern walked one coded bit at a time.
std::vector<std::uint8_t> shift_register_encode(
    const std::vector<std::uint8_t>& bits, bool terminate) {
  std::vector<std::uint8_t> out;
  unsigned reg = 0;
  const auto push = [&](unsigned u) {
    reg = (u & 1u) << 6 | reg >> 1;
    out.push_back(static_cast<std::uint8_t>(std::popcount(reg & 0133u) & 1));
    out.push_back(static_cast<std::uint8_t>(std::popcount(reg & 0171u) & 1));
  };
  for (const std::uint8_t b : bits) push(b);
  if (terminate) {
    for (int i = 0; i < 6; ++i) push(0);
  }
  return out;
}

std::vector<std::uint8_t> keep_pattern(phy::CodeRate rate) {
  switch (rate) {
    case phy::CodeRate::kRate12: return {1, 1};
    case phy::CodeRate::kRate23: return {1, 1, 1, 0};
    case phy::CodeRate::kRate34: return {1, 1, 1, 0, 0, 1};
    case phy::CodeRate::kRate56: return {1, 1, 1, 0, 0, 1, 1, 0, 0, 1};
  }
  return {};
}

std::vector<std::uint8_t> pattern_walk_puncture(
    const std::vector<std::uint8_t>& coded, phy::CodeRate rate) {
  const std::vector<std::uint8_t> keep = keep_pattern(rate);
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (keep[i % keep.size()]) out.push_back(coded[i]);
  }
  return out;
}

// Punctured positions back to `erased`, kept ones in order.
template <typename T>
std::vector<T> pattern_walk_depuncture(const std::vector<T>& punctured,
                                       phy::CodeRate rate,
                                       std::size_t coded_len, T erased) {
  const std::vector<std::uint8_t> keep = keep_pattern(rate);
  std::vector<T> out(coded_len, erased);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < coded_len; ++i) {
    if (keep[i % keep.size()]) out[i] = punctured[cursor++];
  }
  return out;
}

TEST(ConvolutionalOracle, EncodeAndPunctureMatchBitSerialReference) {
  // Every payload length 0-300 (word and byte boundaries, partial tail
  // words and periods), with and without the tail, at all four rates,
  // and both depuncturers back. Input bytes other than 0 and 1 must
  // count by their low bit only.
  const ConvolutionalCode code;
  util::Rng rng(0xE4C0);
  const phy::CodeRate rates[] = {phy::CodeRate::kRate12,
                                 phy::CodeRate::kRate23,
                                 phy::CodeRate::kRate34,
                                 phy::CodeRate::kRate56};
  for (std::size_t n = 0; n <= 300; ++n) {
    for (const bool terminate : {true, false}) {
      std::vector<std::uint8_t> bits(n);
      for (auto& b : bits) {
        b = static_cast<std::uint8_t>(n % 3 == 0 ? rng.next_u64() & 0xFFu
                                                 : rng.next_u64() & 1u);
      }
      const std::vector<std::uint8_t> want =
          shift_register_encode(bits, terminate);
      std::vector<std::uint8_t> coded(
          ConvolutionalCode::encoded_length(n, terminate), 9);
      code.encode_into(bits, coded, terminate);
      ASSERT_EQ(coded, want) << n << " bits, terminate " << terminate;
      for (const phy::CodeRate rate : rates) {
        const std::vector<std::uint8_t> kept =
            pattern_walk_puncture(want, rate);
        std::vector<std::uint8_t> got(punctured_length(coded.size(), rate), 9);
        ASSERT_EQ(got.size(), kept.size());
        puncture_into(coded, rate, got);
        ASSERT_EQ(got, kept) << n << " bits, terminate " << terminate
                             << ", rate " << static_cast<int>(rate);
        std::vector<std::uint8_t> restored(coded.size(), 9);
        depuncture_into(kept, rate, restored);
        ASSERT_EQ(restored, pattern_walk_depuncture(kept, rate, coded.size(),
                                                    kErasedBit))
            << n << " bits, rate " << static_cast<int>(rate);
        std::vector<double> soft(kept.size());
        for (std::size_t i = 0; i < soft.size(); ++i) {
          soft[i] = kept[i] != 0 ? -1.5 - static_cast<double>(i) : 2.5;
        }
        std::vector<double> soft_restored(coded.size(), 9.0);
        depuncture_soft_into(soft, rate, soft_restored);
        ASSERT_EQ(soft_restored,
                  pattern_walk_depuncture(soft, rate, coded.size(), 0.0))
            << n << " bits, rate " << static_cast<int>(rate);
      }
    }
  }
}

}  // namespace
}  // namespace acorn::baseband
