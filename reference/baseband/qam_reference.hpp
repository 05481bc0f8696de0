// The enumerating max-log soft demapper, kept verbatim as the oracle for
// the per-axis demapper in baseband/qam.cpp.
//
// For every symbol it scores all 2^k constellation points (built by the
// production mapper, qam_map_symbol) and, for each of the k label bits,
// keeps the smallest squared distance std::norm(y - p) among the points
// whose bit is 0 and among those whose bit is 1, each a std::min chain
// seeded at 1e300. The production demapper must return bit-equal LLRs for
// every input. Test/bench use only (acorn_reference, which nothing under
// src/ links).
#pragma once

#include <span>
#include <vector>

#include "baseband/fft.hpp"
#include "phy/modulation.hpp"

namespace acorn::baseband::reference {

/// Same contract as baseband::qam_soft_demodulate_into.
void qam_soft_demodulate_into(std::span<const Cx> symbols,
                              phy::Modulation mod,
                              std::span<const double> noise_vars,
                              std::span<double> llrs);

/// Same contract as baseband::qam_soft_demodulate.
std::vector<double> qam_soft_demodulate(std::span<const Cx> symbols,
                                        phy::Modulation mod,
                                        std::span<const double> noise_vars);

}  // namespace acorn::baseband::reference
