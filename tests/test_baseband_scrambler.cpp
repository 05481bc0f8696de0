#include "baseband/scrambler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace acorn::baseband {
namespace {

TEST(Scrambler, RejectsZeroSeed) {
  EXPECT_THROW(Scrambler(0), std::invalid_argument);
  Scrambler s(1);
  EXPECT_THROW(s.reset(0x80), std::invalid_argument);  // 0x80 & 0x7F == 0
}

TEST(Scrambler, SelfInverse) {
  util::Rng rng(1);
  std::vector<std::uint8_t> bits(1000);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_u64() & 1u);
  EXPECT_EQ(descramble(scramble(bits, 0x3A), 0x3A), bits);
}

TEST(Scrambler, DifferentSeedsDifferentKeystream) {
  const std::vector<std::uint8_t> zeros(100, 0);
  EXPECT_NE(scramble(zeros, 0x5D), scramble(zeros, 0x2B));
}

TEST(Scrambler, KeystreamPeriodIs127) {
  // Maximal-length 7-bit LFSR: period 2^7 - 1.
  Scrambler s(0x5D);
  std::vector<std::uint8_t> first(127);
  for (auto& b : first) b = s.next_bit();
  std::vector<std::uint8_t> second(127);
  for (auto& b : second) b = s.next_bit();
  EXPECT_EQ(first, second);
  // And it is not shorter: the first 127 bits are not themselves
  // periodic with period 1..63 (checking a few divisors suffices for a
  // maximal-length sequence).
  for (std::size_t period : {1u, 7u, 31u, 63u}) {
    bool same = true;
    for (std::size_t i = 0; i + period < first.size(); ++i) {
      if (first[i] != first[i + period]) {
        same = false;
        break;
      }
    }
    EXPECT_FALSE(same) << "period " << period;
  }
}

TEST(Scrambler, WhitensConstantInput) {
  // An all-zero payload must come out roughly balanced.
  const std::vector<std::uint8_t> zeros(1270, 0);
  const auto out = scramble(zeros);
  int ones = 0;
  for (std::uint8_t b : out) ones += b;
  EXPECT_NEAR(static_cast<double>(ones) / out.size(), 0.5, 0.05);
}

TEST(Scrambler, ProcessContinuesKeystream) {
  Scrambler a(0x11);
  const std::vector<std::uint8_t> zeros(64, 0);
  const auto first = a.process(zeros);
  const auto second = a.process(zeros);
  EXPECT_NE(first, second);  // keystream advanced
  // Equivalent to one 128-bit pass.
  Scrambler b(0x11);
  const std::vector<std::uint8_t> lots(128, 0);
  const auto whole = b.process(lots);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(whole[i], first[i]);
    EXPECT_EQ(whole[64 + i], second[i]);
  }
}

TEST(Scrambler, BlockProcessMatchesNextBit) {
  // process_into XORs whole keystream periods; bit for bit it must equal
  // the serial LFSR for every length, in place or not, and leave the
  // state where the serial walk does, across consecutive calls.
  util::Rng rng(2);
  for (std::size_t n = 0; n <= 400; ++n) {
    const auto seed = static_cast<std::uint8_t>(1 + n % 127);
    std::vector<std::uint8_t> bits(n);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_u64() & 1u);
    Scrambler block(seed);
    Scrambler serial(seed);
    std::vector<std::uint8_t> out(n);
    block.process_into(bits, out);
    std::vector<std::uint8_t> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = static_cast<std::uint8_t>(bits[i] ^ serial.next_bit());
    }
    ASSERT_EQ(out, want) << "length " << n;
    // A second call continues the keystream, here in place.
    std::vector<std::uint8_t> again = bits;
    block.process_into(again, again);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = static_cast<std::uint8_t>(bits[i] ^ serial.next_bit());
    }
    ASSERT_EQ(again, want) << "second call, length " << n;
    for (int i = 0; i < 130; ++i) {
      ASSERT_EQ(block.next_bit(), serial.next_bit()) << "length " << n;
    }
  }
}

}  // namespace
}  // namespace acorn::baseband
