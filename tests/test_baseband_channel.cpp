#include "baseband/channel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/units.hpp"

namespace acorn::baseband {
namespace {

TEST(FadingChannel, RejectsBadConfig) {
  util::Rng rng(1);
  ChannelConfig bad;
  bad.num_taps = 0;
  EXPECT_THROW(FadingChannel(bad, rng), std::invalid_argument);
  ChannelConfig bad2;
  bad2.sample_rate_hz = 0.0;
  EXPECT_THROW(FadingChannel(bad2, rng), std::invalid_argument);
}

TEST(FadingChannel, NoiseVarianceFollowsEquationOne) {
  util::Rng rng(2);
  ChannelConfig cfg;
  cfg.sample_rate_hz = 20e6;
  const FadingChannel ch(cfg, rng);
  // sigma^2 = N0 * Fs; N0 = -174 dBm/Hz.
  EXPECT_NEAR(util::mw_to_dbm(ch.noise_variance_mw()),
              -174.0 + 10.0 * std::log10(20e6), 1e-9);
}

TEST(FadingChannel, DoublingBandwidthDoublesNoise) {
  util::Rng rng(2);
  ChannelConfig c20;
  c20.sample_rate_hz = 20e6;
  ChannelConfig c40;
  c40.sample_rate_hz = 40e6;
  const FadingChannel ch20(c20, rng);
  const FadingChannel ch40(c40, rng);
  EXPECT_NEAR(ch40.noise_variance_mw() / ch20.noise_variance_mw(), 2.0,
              1e-9);
}

TEST(FadingChannel, NoiseFigureScalesNoise) {
  util::Rng rng(2);
  ChannelConfig cfg;
  cfg.noise_figure_db = 6.0;
  const FadingChannel with_nf(cfg, rng);
  cfg.noise_figure_db = 0.0;
  const FadingChannel without(cfg, rng);
  EXPECT_NEAR(
      util::lin_to_db(with_nf.noise_variance_mw() / without.noise_variance_mw()),
      6.0, 1e-9);
}

TEST(FadingChannel, DeterministicTapsCarryPathLoss) {
  util::Rng rng(3);
  ChannelConfig cfg;
  cfg.rayleigh = false;
  cfg.num_taps = 1;
  cfg.path_loss_db = 20.0;
  const FadingChannel ch(cfg, rng);
  ASSERT_EQ(ch.taps().size(), 1u);
  EXPECT_NEAR(std::norm(ch.taps()[0]), 0.01, 1e-9);
}

TEST(FadingChannel, RayleighTapsAveragePathGain) {
  util::Rng rng(4);
  ChannelConfig cfg;
  cfg.num_taps = 3;
  cfg.path_loss_db = 10.0;
  double total = 0.0;
  const int trials = 4000;
  FadingChannel ch(cfg, rng);
  for (int t = 0; t < trials; ++t) {
    ch.redraw(rng);
    for (const Cx& tap : ch.taps()) total += std::norm(tap);
  }
  EXPECT_NEAR(total / trials, 0.1, 0.01);
}

TEST(FadingChannel, PropagateLengthIsConvolutionLength) {
  util::Rng rng(5);
  ChannelConfig cfg;
  cfg.num_taps = 4;
  cfg.rayleigh = false;
  const FadingChannel ch(cfg, rng);
  const std::vector<Cx> tx(100, Cx(1.0, 0.0));
  EXPECT_EQ(ch.propagate(tx).size(), 103u);
}

TEST(FadingChannel, SingleTapPropagateIsScaling) {
  util::Rng rng(6);
  ChannelConfig cfg;
  cfg.rayleigh = false;
  cfg.path_loss_db = 6.0;
  const FadingChannel ch(cfg, rng);
  const std::vector<Cx> tx = {Cx(2.0, 0.0), Cx(0.0, 2.0)};
  const auto out = ch.propagate(tx);
  const double expected = 2.0 * std::sqrt(util::db_to_lin(-6.0));
  EXPECT_NEAR(std::abs(out[0]), expected, 1e-12);
  EXPECT_NEAR(std::abs(out[1]), expected, 1e-12);
}

TEST(FadingChannel, FrequencyResponseOfSingleTapIsFlat) {
  util::Rng rng(7);
  ChannelConfig cfg;
  cfg.rayleigh = false;
  const FadingChannel ch(cfg, rng);
  const auto h = ch.frequency_response(64);
  for (const Cx& x : h) EXPECT_NEAR(std::abs(x), 1.0, 1e-12);
}

TEST(FadingChannel, FrequencyResponseIsSelectiveWithMultipath) {
  util::Rng rng(8);
  ChannelConfig cfg;
  cfg.num_taps = 4;
  const FadingChannel ch(cfg, rng);
  const auto h = ch.frequency_response(64);
  double min_mag = 1e9;
  double max_mag = 0.0;
  for (const Cx& x : h) {
    min_mag = std::min(min_mag, std::abs(x));
    max_mag = std::max(max_mag, std::abs(x));
  }
  EXPECT_GT(max_mag / std::max(min_mag, 1e-12), 1.2);
}

TEST(FadingChannel, FrequencyResponseValidatesArgs) {
  util::Rng rng(9);
  ChannelConfig cfg;
  cfg.num_taps = 3;
  const FadingChannel ch(cfg, rng);
  EXPECT_THROW(ch.frequency_response(63), std::invalid_argument);
  EXPECT_THROW(ch.frequency_response(2), std::invalid_argument);
}

TEST(AddAwgn, MatchesRequestedVariance) {
  util::Rng rng(10);
  std::vector<Cx> samples(200000, Cx{});
  add_awgn(samples, 4.0, rng);
  double power = 0.0;
  for (const Cx& x : samples) power += std::norm(x);
  EXPECT_NEAR(power / samples.size(), 4.0, 0.05);
}

TEST(AddAwgn, ZeroVarianceIsNoOp) {
  util::Rng rng(11);
  std::vector<Cx> samples(10, Cx(1.0, 2.0));
  add_awgn(samples, 0.0, rng);
  for (const Cx& x : samples) EXPECT_EQ(x, Cx(1.0, 2.0));
}

TEST(AddAwgn, RejectsNegativeVariance) {
  util::Rng rng(12);
  std::vector<Cx> samples(4);
  EXPECT_THROW(add_awgn(samples, -1.0, rng), std::invalid_argument);
}

TEST(FadingChannel, RedrawChangesRealization) {
  util::Rng rng(13);
  ChannelConfig cfg;
  cfg.num_taps = 2;
  FadingChannel ch(cfg, rng);
  const Cx before = ch.taps()[0];
  ch.redraw(rng);
  EXPECT_NE(before, ch.taps()[0]);
}

// The tap-major convolution propagate_into ran before it became one
// vectorized pass, kept as its oracle: a product pass for tap 0 over a
// zero-filled tail, then one += pass per further tap, each through the
// same real/imaginary expressions.
std::vector<Cx> three_pass_reference(std::span<const Cx> tx,
                                     std::span<const Cx> taps) {
  std::vector<Cx> out(tx.size() + taps.size() - 1);
  double* const o = reinterpret_cast<double*>(out.data());
  const double* const x = reinterpret_cast<const double*>(tx.data());
  const std::size_t n_tx = tx.size();
  {
    const double hr = taps[0].real();
    const double hi = taps[0].imag();
    for (std::size_t n = 0; n < n_tx; ++n) {
      const double xr = x[2 * n];
      const double xi = x[2 * n + 1];
      o[2 * n] = xr * hr - xi * hi;
      o[2 * n + 1] = xr * hi + xi * hr;
    }
  }
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(n_tx), out.end(),
            Cx{});
  for (std::size_t l = 1; l < taps.size(); ++l) {
    const double hr = taps[l].real();
    const double hi = taps[l].imag();
    double* const ol = o + 2 * l;
    for (std::size_t n = 0; n < n_tx; ++n) {
      const double xr = x[2 * n];
      const double xi = x[2 * n + 1];
      ol[2 * n] += xr * hr - xi * hi;
      ol[2 * n + 1] += xr * hi + xi * hr;
    }
  }
  return out;
}

// The NaN the hardware produces for inf - inf. IEEE 754 leaves open which
// NaN an operation on two NaNs returns, and a compiler may swap an
// addition's operands, so inputs carry only this one.
double hardware_nan() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

std::vector<Cx> fir_input(util::Rng& rng, std::size_t n, bool specials) {
  const double inf = std::numeric_limits<double>::infinity();
  const double pool[] = {0.0,    -0.0,  inf,     -inf,     hardware_nan(),
                         5e-324, -1e-310, 1.7e308, -1.7e308, 1e-300};
  std::vector<Cx> tx(n);
  const auto component = [&] {
    if (specials && rng.uniform() < 0.2) {
      return pool[rng.uniform_int(0, std::ssize(pool) - 1)];
    }
    return rng.normal();
  };
  for (Cx& v : tx) {
    const double re = component();
    v = Cx(re, component());
  }
  return tx;
}

TEST(FadingChannelOracle, PropagateMatchesThreePassBytes) {
  // 1-8 taps, inputs shorter than, as long as and longer than the tap
  // line (odd and even lengths, for the two-output vector body).
  util::Rng rng(0xF1F0);
  for (int taps = 1; taps <= 8; ++taps) {
    ChannelConfig cfg;
    cfg.num_taps = taps;
    FadingChannel ch(cfg, rng);
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 2 * static_cast<std::size_t>(taps) + 3; ++n) {
      lengths.push_back(n);
    }
    for (int i = 0; i < 6; ++i) {
      lengths.push_back(static_cast<std::size_t>(rng.uniform_int(20, 400)));
    }
    for (const std::size_t n : lengths) {
      for (const bool specials : {false, true}) {
        ch.redraw(rng);
        const std::vector<Cx> tx = fir_input(rng, n, specials);
        std::vector<Cx> got(n + static_cast<std::size_t>(taps) - 1,
                            Cx(7.0, 7.0));
        ch.propagate_into(tx, got);
        const std::vector<Cx> want = three_pass_reference(tx, ch.taps());
        ASSERT_EQ(got.size(), want.size());
        ASSERT_TRUE(got.empty() || std::memcmp(got.data(), want.data(),
                                               got.size() * sizeof(Cx)) == 0)
            << taps << " taps, " << n << " samples, specials " << specials;
      }
    }
  }
}

}  // namespace
}  // namespace acorn::baseband
