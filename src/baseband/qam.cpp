#include "baseband/qam.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace acorn::baseband {

namespace {

// Gray mapping of m bits to one PAM axis with levels
// {-(2^m - 1), ..., -1, 1, ..., 2^m - 1}: per IEEE 802.11 Table 18-9/10.
double gray_to_level(unsigned gray_bits, int m) {
  // Convert Gray code to binary index.
  unsigned bin = gray_bits;
  for (unsigned shift = 1; shift < static_cast<unsigned>(m); shift <<= 1) {
    bin ^= bin >> shift;
  }
  const int levels = 1 << m;
  return 2.0 * static_cast<double>(bin) - (levels - 1);
}

// Slice one axis of M bits to the Gray label of its nearest level. On the
// index scale x = (value + (levels - 1)) / 2 the index is the number of
// thresholds i - 1/2 (i = 1 .. levels - 1) that x reaches: clamp(lround(x))
// wherever lround fits an int, saturating beyond it (+inf slices to the
// top level), and 0 for a NaN, which reaches none.
template <int M>
unsigned level_to_gray(double value) {
  constexpr int kLevels = 1 << M;
  const double x = (value + (kLevels - 1)) / 2.0;
  unsigned idx = 0;
#pragma GCC unroll 8
  for (int i = 1; i < kLevels; ++i) idx += x >= i - 0.5 ? 1u : 0u;
  return idx ^ (idx >> 1);
}

double normalization(phy::Modulation mod) {
  switch (mod) {
    case phy::Modulation::kBpsk: return 1.0;
    case phy::Modulation::kQpsk: return 1.0 / std::sqrt(2.0);
    case phy::Modulation::kQam16: return 1.0 / std::sqrt(10.0);
    case phy::Modulation::kQam64: return 1.0 / std::sqrt(42.0);
  }
  throw std::invalid_argument("unknown modulation");
}

// A byte other than 0 or 1 would index past the constellation table (and
// the bit-serial mapper would build an off-grid point from it).
void require_binary(std::span<const std::uint8_t> bits) {
  std::uint8_t any = 0;
  for (const std::uint8_t b : bits) any |= b;
  if (any > 1) throw std::invalid_argument("bits must be 0 or 1");
}

// The 2^k points of a modulation, indexed by their k label bits read
// first to last (I bits, then Q bits), built once by qam_map_symbol so
// the table mapper and the soft demapper's levels are bit-equal to it.
struct Constellation {
  std::vector<Cx> points;

  explicit Constellation(phy::Modulation mod) {
    const int k = phy::bits_per_symbol(mod);
    points.resize(std::size_t{1} << k);
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
    for (std::size_t v = 0; v < points.size(); ++v) {
      for (int b = 0; b < k; ++b) {
        bits[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>((v >> (k - 1 - b)) & 1u);
      }
      points[v] = qam_map_symbol(bits, mod);
    }
  }
};

const Constellation& constellation(phy::Modulation mod) {
  static const Constellation bpsk(phy::Modulation::kBpsk);
  static const Constellation qpsk(phy::Modulation::kQpsk);
  static const Constellation qam16(phy::Modulation::kQam16);
  static const Constellation qam64(phy::Modulation::kQam64);
  switch (mod) {
    case phy::Modulation::kBpsk: return bpsk;
    case phy::Modulation::kQpsk: return qpsk;
    case phy::Modulation::kQam16: return qam16;
    case phy::Modulation::kQam64: return qam64;
  }
  throw std::invalid_argument("unknown modulation");
}

// Table-map `n` whole symbols of K bits each.
template <int K>
void map_symbols(const std::uint8_t* bits, std::size_t n, const Cx* points,
                 Cx* out) {
  for (std::size_t s = 0; s < n; ++s, bits += K) {
    unsigned v = 0;
#pragma GCC unroll 8
    for (int b = 0; b < K; ++b) v = (v << 1) | bits[b];
    out[s] = points[v];
  }
}

// Hard-demap symbols of a square constellation with M bits per axis.
template <int M>
void demap_symbols(std::span<const Cx> symbols, double norm,
                   std::uint8_t* out) {
  for (const Cx y : symbols) {
    const unsigned i_bits = level_to_gray<M>(y.real() / norm);
    const unsigned q_bits = level_to_gray<M>(y.imag() / norm);
#pragma GCC unroll 4
    for (int b = 0; b < M; ++b) {
      out[b] = static_cast<std::uint8_t>((i_bits >> (M - 1 - b)) & 1u);
      out[M + b] = static_cast<std::uint8_t>((q_bits >> (M - 1 - b)) & 1u);
    }
    out += 2 * M;
  }
}

void demap_symbols(std::span<const Cx> symbols, phy::Modulation mod,
                   std::uint8_t* out) {
  switch (mod) {
    case phy::Modulation::kBpsk:
      for (const Cx y : symbols) *out++ = y.real() < 0.0 ? 1 : 0;
      return;
    case phy::Modulation::kQpsk:
      return demap_symbols<1>(symbols, normalization(mod), out);
    case phy::Modulation::kQam16:
      return demap_symbols<2>(symbols, normalization(mod), out);
    case phy::Modulation::kQam64:
      return demap_symbols<3>(symbols, normalization(mod), out);
  }
  throw std::invalid_argument("unknown modulation");
}

// Squared distances from `x` to the 2^B levels of one axis, reduced to
// their minimum (returned) and, for each of the axis's B label bits, to
// the minimum over the levels whose bit is 0 (`lo`) and 1 (`hi`). Each is
// a std::min chain seeded at 1e300, so a NaN distance never wins.
template <int B>
inline double axis_minima(double x, const double* level, double* lo,
                          double* hi) {
  double all = 1e300;
#pragma GCC unroll 8
  for (int b = 0; b < B; ++b) lo[b] = hi[b] = 1e300;
#pragma GCC unroll 8
  for (int v = 0; v < (1 << B); ++v) {
    const double d = x - level[v];
    const double d2 = d * d;
    all = std::min(all, d2);
#pragma GCC unroll 8
    for (int b = 0; b < B; ++b) {
      double& best = ((v >> (B - 1 - b)) & 1) != 0 ? hi[b] : lo[b];
      best = std::min(best, d2);
    }
  }
  return all;
}

// Max-log soft demap of a Gray square constellation whose first BI label
// bits pick the I level and last BQ the Q level (BPSK: BQ = 0, Q level 0).
// A point's squared distance is fl(fl(dI^2) + fl(dQ^2)), and rounding is
// monotone, so its minimum over the points whose I bit b is 0 equals
// fl(min of dI^2 over those I levels + min of dQ^2 over all Q levels),
// capped at the 1e300 seed: bit-equal to scoring all 2^k points.
template <int BI, int BQ>
void soft_demap(std::span<const Cx> symbols,
                std::span<const double> noise_vars, const Constellation& c,
                double* llrs) {
  constexpr int kIs = 1 << BI;
  constexpr int kQs = 1 << BQ;
  double level_i[kIs];
  double level_q[kQs];
  for (int i = 0; i < kIs; ++i) level_i[i] = c.points[i * kQs].real();
  for (int q = 0; q < kQs; ++q) level_q[q] = c.points[q].imag();
  double lo_i[BI];
  double hi_i[BI];
  double lo_q[BQ > 0 ? BQ : 1];
  double hi_q[BQ > 0 ? BQ : 1];
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    const double inv_var = 1.0 / std::max(noise_vars[s], 1e-12);
    const double all_i =
        axis_minima<BI>(symbols[s].real(), level_i, lo_i, hi_i);
    const double all_q =
        axis_minima<BQ>(symbols[s].imag(), level_q, lo_q, hi_q);
    for (int b = 0; b < BI; ++b) {
      *llrs++ = (std::min(1e300, hi_i[b] + all_q) -
                 std::min(1e300, lo_i[b] + all_q)) *
                inv_var;
    }
    for (int b = 0; b < BQ; ++b) {
      *llrs++ = (std::min(1e300, all_i + hi_q[b]) -
                 std::min(1e300, all_i + lo_q[b])) *
                inv_var;
    }
  }
}

}  // namespace

Cx qam_map_symbol(std::span<const std::uint8_t> bits, phy::Modulation mod) {
  const int k = phy::bits_per_symbol(mod);
  if (static_cast<int>(bits.size()) != k) {
    throw std::invalid_argument("wrong bit count for symbol");
  }
  require_binary(bits);
  const double norm = normalization(mod);
  if (mod == phy::Modulation::kBpsk) {
    return Cx(bits[0] ? -1.0 : 1.0, 0.0);
  }
  const int half = k / 2;
  unsigned i_bits = 0;
  unsigned q_bits = 0;
  for (int b = 0; b < half; ++b) {
    i_bits = (i_bits << 1) | bits[static_cast<std::size_t>(b)];
    q_bits = (q_bits << 1) | bits[static_cast<std::size_t>(half + b)];
  }
  return norm * Cx(gray_to_level(i_bits, half), gray_to_level(q_bits, half));
}

void qam_demap_symbol(Cx symbol, phy::Modulation mod,
                      std::span<std::uint8_t> out) {
  if (static_cast<int>(out.size()) != phy::bits_per_symbol(mod)) {
    throw std::invalid_argument("wrong output size for symbol");
  }
  demap_symbols(std::span<const Cx>(&symbol, 1), mod, out.data());
}

void qam_modulate_into(std::span<const std::uint8_t> bits,
                       phy::Modulation mod, std::span<Cx> symbols) {
  const auto k = static_cast<std::size_t>(phy::bits_per_symbol(mod));
  const std::size_t n_symbols = (bits.size() + k - 1) / k;
  if (symbols.size() != n_symbols) {
    throw std::invalid_argument("symbol buffer size must be ceil(bits/k)");
  }
  require_binary(bits);
  const Cx* points = constellation(mod).points.data();
  const std::size_t whole = bits.size() / k;
  switch (mod) {
    case phy::Modulation::kBpsk:
      map_symbols<1>(bits.data(), whole, points, symbols.data());
      break;
    case phy::Modulation::kQpsk:
      map_symbols<2>(bits.data(), whole, points, symbols.data());
      break;
    case phy::Modulation::kQam16:
      map_symbols<4>(bits.data(), whole, points, symbols.data());
      break;
    case phy::Modulation::kQam64:
      map_symbols<6>(bits.data(), whole, points, symbols.data());
      break;
  }
  if (whole < n_symbols) {
    // The trailing partial symbol, zero-padded (k <= 6).
    unsigned v = 0;
    for (std::size_t b = whole * k; b < whole * k + k; ++b) {
      v = (v << 1) | (b < bits.size() ? bits[b] : 0u);
    }
    symbols[whole] = points[v];
  }
}

std::vector<Cx> qam_modulate(std::span<const std::uint8_t> bits,
                             phy::Modulation mod) {
  const auto k = static_cast<std::size_t>(phy::bits_per_symbol(mod));
  std::vector<Cx> out((bits.size() + k - 1) / k);
  qam_modulate_into(bits, mod, out);
  return out;
}

void qam_soft_demodulate_into(std::span<const Cx> symbols,
                              phy::Modulation mod,
                              std::span<const double> noise_vars,
                              std::span<double> llrs) {
  if (symbols.size() != noise_vars.size()) {
    throw std::invalid_argument("one noise variance per symbol required");
  }
  const auto k = static_cast<std::size_t>(phy::bits_per_symbol(mod));
  if (llrs.size() != symbols.size() * k) {
    throw std::invalid_argument("LLR buffer size must be symbols * k");
  }
  const Constellation& c = constellation(mod);
  switch (mod) {
    case phy::Modulation::kBpsk:
      return soft_demap<1, 0>(symbols, noise_vars, c, llrs.data());
    case phy::Modulation::kQpsk:
      return soft_demap<1, 1>(symbols, noise_vars, c, llrs.data());
    case phy::Modulation::kQam16:
      return soft_demap<2, 2>(symbols, noise_vars, c, llrs.data());
    case phy::Modulation::kQam64:
      return soft_demap<3, 3>(symbols, noise_vars, c, llrs.data());
  }
}

std::vector<double> qam_soft_demodulate(std::span<const Cx> symbols,
                                        phy::Modulation mod,
                                        std::span<const double> noise_vars) {
  const auto k = static_cast<std::size_t>(phy::bits_per_symbol(mod));
  std::vector<double> llrs(symbols.size() * k);
  qam_soft_demodulate_into(symbols, mod, noise_vars, llrs);
  return llrs;
}

void qam_demodulate_into(std::span<const Cx> symbols, phy::Modulation mod,
                         std::span<std::uint8_t> bits) {
  const auto k = static_cast<std::size_t>(phy::bits_per_symbol(mod));
  if (bits.size() != symbols.size() * k) {
    throw std::invalid_argument("bit buffer size must be symbols * k");
  }
  demap_symbols(symbols, mod, bits.data());
}

std::vector<std::uint8_t> qam_demodulate(std::span<const Cx> symbols,
                                         phy::Modulation mod) {
  const auto k = static_cast<std::size_t>(phy::bits_per_symbol(mod));
  std::vector<std::uint8_t> out(symbols.size() * k);
  qam_demodulate_into(symbols, mod, out);
  return out;
}

}  // namespace acorn::baseband
