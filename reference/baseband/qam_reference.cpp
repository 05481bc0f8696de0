#include "baseband/qam_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "baseband/qam.hpp"

namespace acorn::baseband::reference {

namespace {

// Full constellation enumeration (point + bit label per index), built
// once per modulation so the soft demapper does not rebuild it per call.
struct Constellation {
  std::vector<Cx> points;            // 2^k entries
  std::vector<std::uint8_t> labels;  // 2^k * k bit labels
  int k = 0;

  explicit Constellation(phy::Modulation mod)
      : k(phy::bits_per_symbol(mod)) {
    const int m = 1 << k;
    points.resize(static_cast<std::size_t>(m));
    labels.resize(static_cast<std::size_t>(m * k));
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
    for (int v = 0; v < m; ++v) {
      for (int b = 0; b < k; ++b) {
        bits[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>((v >> (k - 1 - b)) & 1);
        labels[static_cast<std::size_t>(v * k + b)] =
            bits[static_cast<std::size_t>(b)];
      }
      points[static_cast<std::size_t>(v)] = qam_map_symbol(bits, mod);
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

}  // namespace

void qam_soft_demodulate_into(std::span<const Cx> symbols,
                              phy::Modulation mod,
                              std::span<const double> noise_vars,
                              std::span<double> llrs) {
  if (symbols.size() != noise_vars.size()) {
    throw std::invalid_argument("one noise variance per symbol required");
  }
  const Constellation& c = constellation(mod);
  const int k = c.k;
  const int m = 1 << k;
  if (llrs.size() != symbols.size() * static_cast<std::size_t>(k)) {
    throw std::invalid_argument("LLR buffer size must be symbols * k");
  }
  // One distance pass per symbol: computing |y - p_v|^2 inside the bit
  // loop redoes the complex arithmetic k times (6x for 64-QAM).
  double best0[8];
  double best1[8];
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    const double inv_var = 1.0 / std::max(noise_vars[s], 1e-12);
    const Cx sym = symbols[s];
    for (int b = 0; b < k; ++b) {
      best0[b] = 1e300;
      best1[b] = 1e300;
    }
    for (int v = 0; v < m; ++v) {
      const double d2 = std::norm(sym - c.points[static_cast<std::size_t>(v)]);
      const std::uint8_t* lab = &c.labels[static_cast<std::size_t>(v * k)];
      for (int b = 0; b < k; ++b) {
        if (lab[b] == 0) {
          best0[b] = std::min(best0[b], d2);
        } else {
          best1[b] = std::min(best1[b], d2);
        }
      }
    }
    for (int b = 0; b < k; ++b) {
      llrs[s * static_cast<std::size_t>(k) + static_cast<std::size_t>(b)] =
          (best1[b] - best0[b]) * inv_var;
    }
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

}  // namespace acorn::baseband::reference
