#include "baseband/qam.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>

#include "baseband/qam_reference.hpp"
#include "util/rng.hpp"

namespace acorn::baseband {
namespace {

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_u64() & 1u);
  return bits;
}

constexpr phy::Modulation kAll[] = {
    phy::Modulation::kBpsk, phy::Modulation::kQpsk, phy::Modulation::kQam16,
    phy::Modulation::kQam64};

TEST(Qam, UnitAverageEnergy) {
  // Over all symbols of the constellation, mean |s|^2 = 1.
  for (const auto mod : kAll) {
    const int k = phy::bits_per_symbol(mod);
    double energy = 0.0;
    const int count = 1 << k;
    for (int v = 0; v < count; ++v) {
      std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
      for (int b = 0; b < k; ++b) {
        bits[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>((v >> (k - 1 - b)) & 1);
      }
      energy += std::norm(qam_map_symbol(bits, mod));
    }
    EXPECT_NEAR(energy / count, 1.0, 1e-9) << to_string(mod);
  }
}

TEST(Qam, AllConstellationPointsDistinct) {
  for (const auto mod : kAll) {
    const int k = phy::bits_per_symbol(mod);
    std::set<std::pair<long, long>> seen;
    for (int v = 0; v < (1 << k); ++v) {
      std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
      for (int b = 0; b < k; ++b) {
        bits[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>((v >> (k - 1 - b)) & 1);
      }
      const Cx s = qam_map_symbol(bits, mod);
      seen.insert({std::lround(s.real() * 1e6), std::lround(s.imag() * 1e6)});
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(1 << k))
        << to_string(mod);
  }
}

TEST(Qam, RoundTripNoiseless) {
  for (const auto mod : kAll) {
    const auto bits = random_bits(1200, 3);
    const auto symbols = qam_modulate(bits, mod);
    const auto decoded = qam_demodulate(symbols, mod);
    ASSERT_GE(decoded.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(decoded[i], bits[i]) << to_string(mod) << " bit " << i;
    }
  }
}

TEST(Qam, GrayNeighborsDifferInOneBit) {
  // Walk adjacent I-levels of 16-QAM: Gray coding means one bit flip.
  const auto mod = phy::Modulation::kQam16;
  std::vector<std::uint8_t> prev_bits;
  const double norm = 1.0 / std::sqrt(10.0);
  for (double level = -3.0; level <= 3.0; level += 2.0) {
    std::vector<std::uint8_t> bits(4);
    qam_demap_symbol(Cx(level * norm, 3.0 * norm), mod, bits);
    if (!prev_bits.empty()) {
      int diff = 0;
      for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i] != prev_bits[i]) ++diff;
      }
      EXPECT_EQ(diff, 1) << "level " << level;
    }
    prev_bits = bits;
  }
}

TEST(Qam, HardDecisionNearestNeighbor) {
  // A small perturbation decodes to the original point.
  util::Rng rng(4);
  for (const auto mod : kAll) {
    const auto bits = random_bits(600, 5);
    auto symbols = qam_modulate(bits, mod);
    const double margin = mod == phy::Modulation::kQam64 ? 0.05 : 0.15;
    for (auto& s : symbols) {
      s += Cx(rng.uniform(-margin, margin), rng.uniform(-margin, margin));
    }
    const auto decoded = qam_demodulate(symbols, mod);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(decoded[i], bits[i]) << to_string(mod);
    }
  }
}

TEST(Qam, PadsPartialSymbols) {
  const std::vector<std::uint8_t> bits = {1, 0, 1};  // 3 bits into 64-QAM
  const auto symbols = qam_modulate(bits, phy::Modulation::kQam64);
  EXPECT_EQ(symbols.size(), 1u);
  const auto decoded = qam_demodulate(symbols, phy::Modulation::kQam64);
  EXPECT_EQ(decoded.size(), 6u);
  EXPECT_EQ(decoded[0], 1);
  EXPECT_EQ(decoded[1], 0);
  EXPECT_EQ(decoded[2], 1);
}

TEST(Qam, MapValidatesBitCount) {
  const std::vector<std::uint8_t> three(3, 0);
  EXPECT_THROW(qam_map_symbol(three, phy::Modulation::kQam16),
               std::invalid_argument);
  std::vector<std::uint8_t> out(3);
  EXPECT_THROW(qam_demap_symbol(Cx{}, phy::Modulation::kQam16, out),
               std::invalid_argument);
}

TEST(Qam, QpskMatchesLegacyMapper) {
  // The dedicated QPSK mapper and the generic QAM mapper agree up to the
  // same Gray convention: both produce unit-energy points on (+-1,+-1)/sqrt(2).
  const auto bits = random_bits(100, 6);
  const auto symbols = qam_modulate(bits, phy::Modulation::kQpsk);
  for (const Cx s : symbols) {
    EXPECT_NEAR(std::abs(s.real()), 1.0 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(std::abs(s.imag()), 1.0 / std::sqrt(2.0), 1e-12);
  }
}

TEST(QamSoft, SignsAgreeWithHardDecisions) {
  util::Rng rng(7);
  for (const auto mod : kAll) {
    const auto bits = random_bits(240, 8);
    auto symbols = qam_modulate(bits, mod);
    for (auto& s : symbols) {
      s += Cx(rng.normal(0.0, 0.05), rng.normal(0.0, 0.05));
    }
    const std::vector<double> vars(symbols.size(), 0.05 * 0.05 * 2.0);
    const auto llrs = qam_soft_demodulate(symbols, mod, vars);
    const auto hard = qam_demodulate(symbols, mod);
    ASSERT_EQ(llrs.size(), hard.size());
    for (std::size_t i = 0; i < hard.size(); ++i) {
      // Positive LLR = bit 0; sign must agree with the hard slicer.
      EXPECT_EQ(hard[i], llrs[i] < 0.0 ? 1 : 0) << to_string(mod) << i;
    }
  }
}

TEST(QamSoft, ConfidenceScalesWithNoiseVariance) {
  const std::vector<Cx> one = {qam_map_symbol(
      std::vector<std::uint8_t>{0, 0}, phy::Modulation::kQpsk)};
  const std::vector<double> quiet = {0.01};
  const std::vector<double> loud = {1.0};
  const auto llr_quiet =
      qam_soft_demodulate(one, phy::Modulation::kQpsk, quiet);
  const auto llr_loud =
      qam_soft_demodulate(one, phy::Modulation::kQpsk, loud);
  EXPECT_GT(llr_quiet[0], llr_loud[0]);
  EXPECT_GT(llr_loud[0], 0.0);
}

TEST(QamSoft, ValidatesVarianceCount) {
  const std::vector<Cx> two(2);
  const std::vector<double> one_var = {0.1};
  EXPECT_THROW(
      qam_soft_demodulate(two, phy::Modulation::kQpsk, one_var),
      std::invalid_argument);
}

TEST(Qam, HugeSymbolsSliceToTheOuterLevel) {
  // Past 2^31 on the index scale, and at +inf, the slicer must saturate
  // at the outer level instead of wrapping to the lowest one; a NaN
  // slices to index 0 (Gray label all zeros).
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    phy::Modulation mod;
    std::vector<std::uint8_t> top;  // Gray label of the highest level
  };
  const Case cases[] = {{phy::Modulation::kQpsk, {1}},
                        {phy::Modulation::kQam16, {1, 0}},
                        {phy::Modulation::kQam64, {1, 0, 0}}};
  for (const Case& c : cases) {
    const std::size_t half = c.top.size();
    const std::vector<std::uint8_t> bottom(half, 0);
    std::vector<std::uint8_t> out(2 * half);
    for (const double x : {1e9, 1e10, 1e19, 1e300, inf}) {
      qam_demap_symbol(Cx(x, -x), c.mod, out);
      EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.begin() + half),
                c.top)
          << to_string(c.mod) << " I at " << x;
      EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + half, out.end()),
                bottom)
          << to_string(c.mod) << " Q at " << -x;
      qam_demap_symbol(Cx(-x, x), c.mod, out);
      EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.begin() + half),
                bottom)
          << to_string(c.mod) << " I at " << -x;
      EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + half, out.end()),
                c.top)
          << to_string(c.mod) << " Q at " << x;
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    qam_demap_symbol(Cx(nan, nan), c.mod, out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(2 * half, 0)) << to_string(c.mod);
  }
}

TEST(Qam, MapperRejectsNonBinaryBits) {
  EXPECT_THROW(qam_map_symbol(std::vector<std::uint8_t>{2, 0, 0, 0},
                              phy::Modulation::kQam16),
               std::invalid_argument);
  EXPECT_THROW(
      qam_map_symbol(std::vector<std::uint8_t>{2}, phy::Modulation::kBpsk),
      std::invalid_argument);
  for (const auto mod : kAll) {
    for (const std::uint8_t bad : {std::uint8_t{2}, std::uint8_t{0xFF}}) {
      auto bits = random_bits(60, 11);
      bits[37] = bad;
      EXPECT_THROW(qam_modulate(bits, mod), std::invalid_argument)
          << to_string(mod);
      // The zero-padded trailing symbol is checked too.
      bits.push_back(bad);
      std::vector<Cx> symbols(
          (bits.size() + static_cast<std::size_t>(phy::bits_per_symbol(mod)) -
           1) /
          static_cast<std::size_t>(phy::bits_per_symbol(mod)));
      bits[37] = 0;
      EXPECT_THROW(qam_modulate_into(bits, mod, symbols),
                   std::invalid_argument)
          << to_string(mod);
    }
  }
}

TEST(Qam, TableMapperMatchesSymbolMapper) {
  for (const auto mod : kAll) {
    const auto k = static_cast<std::size_t>(phy::bits_per_symbol(mod));
    const auto bits = random_bits(k * 500 + k / 2, 12);
    const auto symbols = qam_modulate(bits, mod);
    ASSERT_EQ(symbols.size(), (bits.size() + k - 1) / k);
    for (std::size_t s = 0; s < symbols.size(); ++s) {
      std::vector<std::uint8_t> one(k, 0);
      for (std::size_t b = 0; b < k && s * k + b < bits.size(); ++b) {
        one[b] = bits[s * k + b];
      }
      const Cx want = qam_map_symbol(one, mod);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(symbols[s].real()),
                std::bit_cast<std::uint64_t>(want.real()))
          << to_string(mod) << " symbol " << s;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(symbols[s].imag()),
                std::bit_cast<std::uint64_t>(want.imag()))
          << to_string(mod) << " symbol " << s;
    }
  }
}

double normalization_of(phy::Modulation mod) {
  switch (mod) {
    case phy::Modulation::kBpsk: return 1.0;
    case phy::Modulation::kQpsk: return 1.0 / std::sqrt(2.0);
    case phy::Modulation::kQam16: return 1.0 / std::sqrt(10.0);
    case phy::Modulation::kQam64: return 1.0 / std::sqrt(42.0);
  }
  return 0.0;
}

TEST(Qam, SlicerMatchesLroundBelow2To31) {
  // Wherever the index-scale value x = (y / norm + (L - 1)) / 2 stays
  // below 2^31 in magnitude, the slice is clamp(lround(x), 0, L - 1):
  // random values, every exact threshold i - 1/2 and its two neighbours.
  util::Rng rng(13);
  for (const auto mod : {phy::Modulation::kQpsk, phy::Modulation::kQam16,
                         phy::Modulation::kQam64}) {
    const int half = phy::bits_per_symbol(mod) / 2;
    const int levels = 1 << half;
    const double norm = normalization_of(mod);
    std::vector<double> ys;
    for (int i = 0; i < 200000; ++i) {
      const int exponent = static_cast<int>(rng.next_u64() % 34);
      ys.push_back(rng.uniform(-1.0, 1.0) * std::ldexp(1.0, exponent));
    }
    for (int i = -2; i <= levels + 2; ++i) {
      const double y = (2.0 * (i - 0.5) - (levels - 1)) * norm;
      for (const double toward : {-1e300, 1e300}) {
        double t = y;
        for (int n = 0; n < 4; ++n, t = std::nextafter(t, toward)) {
          ys.push_back(t);
        }
      }
    }
    ys.push_back(0.0);
    ys.push_back(-0.0);
    std::size_t checked = 0;
    std::size_t midpoints = 0;
    for (const double y : ys) {
      const double x = (y / norm + (levels - 1)) / 2.0;
      if (!(std::abs(x) < 2147483648.0)) continue;
      if (x - std::floor(x) == 0.5) ++midpoints;
      const int idx =
          std::clamp(static_cast<int>(std::lround(x)), 0, levels - 1);
      const auto gray = static_cast<unsigned>(idx ^ (idx >> 1));
      std::vector<std::uint8_t> out(static_cast<std::size_t>(2 * half));
      qam_demap_symbol(Cx(y, y), mod, out);
      for (int b = 0; b < half; ++b) {
        const auto want =
            static_cast<std::uint8_t>((gray >> (half - 1 - b)) & 1u);
        ASSERT_EQ(out[static_cast<std::size_t>(b)], want)
            << to_string(mod) << " y " << y;
        ASSERT_EQ(out[static_cast<std::size_t>(half + b)], want)
            << to_string(mod) << " y " << y;
      }
      ++checked;
    }
    EXPECT_GT(checked, ys.size() / 2) << to_string(mod);
    EXPECT_GE(midpoints, static_cast<std::size_t>(levels - 1))
        << to_string(mod);
  }
}

// A double drawn to cover the demapper's corner cases: noisy points,
// exact points and exact midpoints between levels, huge and tiny values,
// signed zeros, infinities, NaNs and arbitrary bit patterns.
double corner_value(util::Rng& rng, double norm) {
  static const double kSpecial[] = {
      0.0, -0.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(), 1e300, -1e300, 1e154,
      -1e154, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min()};
  const std::uint64_t pick = rng.next_u64() % 16;
  const double level = static_cast<double>(
      static_cast<int>(rng.next_u64() % 15) - 7);  // -7 .. 7
  switch (pick) {
    case 0: return kSpecial[rng.next_u64() % std::size(kSpecial)];
    case 1: return std::bit_cast<double>(rng.next_u64());
    case 2: return level * norm;  // a level (odd) or a midpoint (even)
    case 3: return std::nextafter(level * norm, rng.uniform(-1.0, 1.0));
    case 4: return rng.uniform(-1.0, 1.0) * 1e30;
    default: return level * norm + rng.normal(0.0, 0.3);
  }
}

TEST(QamSoft, MatchesEnumeratingReferenceBitForBit) {
  // Over a million symbols per modulation, the per-axis demapper's LLRs
  // must equal the enumerating oracle's bit for bit.
  constexpr std::size_t kBatch = 1 << 16;
  constexpr int kBatches = 16;
  for (const auto mod : kAll) {
    util::Rng rng(14 + static_cast<std::uint64_t>(mod));
    const double norm = normalization_of(mod);
    const auto k = static_cast<std::size_t>(phy::bits_per_symbol(mod));
    std::vector<Cx> symbols(kBatch);
    std::vector<double> vars(kBatch);
    std::vector<double> got(kBatch * k);
    std::vector<double> want(kBatch * k);
    std::size_t mismatches = 0;
    for (int batch = 0; batch < kBatches; ++batch) {
      for (std::size_t s = 0; s < kBatch; ++s) {
        symbols[s] = Cx(corner_value(rng, norm), corner_value(rng, norm));
        vars[s] = rng.next_u64() % 64 == 0 ? corner_value(rng, 1.0)
                                           : rng.uniform(1e-14, 2.0);
      }
      qam_soft_demodulate_into(symbols, mod, vars, got);
      reference::qam_soft_demodulate_into(symbols, mod, vars, want);
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(got[i]) !=
            std::bit_cast<std::uint64_t>(want[i])) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << to_string(mod) << " symbol " << symbols[i / k]
                          << " bit " << i % k << ": " << got[i] << " vs "
                          << want[i];
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << to_string(mod);
  }
}

}  // namespace
}  // namespace acorn::baseband
