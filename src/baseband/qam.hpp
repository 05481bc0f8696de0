// Gray-coded square QAM mapping for the coded PHY chain: BPSK, QPSK,
// 16-QAM and 64-QAM with the 802.11 normalization factors (unit average
// symbol energy).
//
// Bits are bytes holding 0 or 1; the mappers throw std::invalid_argument
// on any other byte. The hard demapper slices each axis to its nearest
// level and saturates: a coordinate past the outer level, +-inf
// included, slices to that level, and a NaN to the lowest level index.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "baseband/fft.hpp"
#include "phy/modulation.hpp"

namespace acorn::baseband {

/// Map a bitstream of 0/1 bytes to constellation symbols. The trailing
/// partial symbol (if any) is zero-padded.
std::vector<Cx> qam_modulate(std::span<const std::uint8_t> bits,
                             phy::Modulation mod);

/// Hard-decision demap; always returns a multiple of bits_per_symbol.
std::vector<std::uint8_t> qam_demodulate(std::span<const Cx> symbols,
                                         phy::Modulation mod);

/// Soft demap: per-bit log-likelihood ratios, positive when bit 0 is
/// more likely — the max-log approximation
///   LLR_b = (min_{s: b=1} |y-s|^2 - min_{s: b=0} |y-s|^2) / sigma^2.
/// `noise_vars` gives each symbol's post-equalization noise variance
/// (one entry per symbol; equalization divides by H so the variance
/// varies per subcarrier). Each minimum is taken per axis (a Gray square
/// point's I level depends only on its I bits), bit-equal to scoring
/// every point as |y-s|^2 = dI^2 + dQ^2 with NaN distances never winning;
/// reference/baseband/qam_reference.hpp keeps that enumeration.
std::vector<double> qam_soft_demodulate(std::span<const Cx> symbols,
                                        phy::Modulation mod,
                                        std::span<const double> noise_vars);

/// Allocation-free variants. Sizes: `symbols.size()` must be
/// ceil(bits.size() / k) for modulation (trailing partial symbol
/// zero-padded), `bits.size()`/`llrs.size()` must be
/// `symbols.size() * k` for the demappers, with k = bits_per_symbol(mod).
void qam_modulate_into(std::span<const std::uint8_t> bits,
                       phy::Modulation mod, std::span<Cx> symbols);
void qam_demodulate_into(std::span<const Cx> symbols, phy::Modulation mod,
                         std::span<std::uint8_t> bits);
void qam_soft_demodulate_into(std::span<const Cx> symbols,
                              phy::Modulation mod,
                              std::span<const double> noise_vars,
                              std::span<double> llrs);

/// Map one symbol from `bits_per_symbol(mod)` bits, each 0 or 1.
Cx qam_map_symbol(std::span<const std::uint8_t> bits, phy::Modulation mod);

/// Demap one symbol into `out` (`bits_per_symbol(mod)` entries).
void qam_demap_symbol(Cx symbol, phy::Modulation mod,
                      std::span<std::uint8_t> out);

}  // namespace acorn::baseband
