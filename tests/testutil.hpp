// Shared helpers for the test suite: the library's scripted-deployment
// builder plus a canned Topology-1 shape, and the hex form the byte-format
// golden tests pin encodings in.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace acorn::testutil {

/// Lowercase hex, two digits per byte, no separators.
inline std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

/// Inverse of to_hex; throws std::invalid_argument on a malformed string.
inline std::vector<std::uint8_t> from_hex(const std::string& hex) {
  const auto digit = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw std::invalid_argument("not a lowercase hex digit");
  };
  if (hex.size() % 2 != 0) throw std::invalid_argument("odd hex length");
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(16 * digit(hex[2 * i]) +
                                       digit(hex[2 * i + 1]));
  }
  return out;
}

using acorn::sim::CellSpec;
using acorn::sim::ScenarioBuilder;

inline constexpr double kGoodLinkLoss = sim::kGoodLinkLoss;
inline constexpr double kMediumLinkLoss = sim::kMediumLinkLoss;
inline constexpr double kMarginalLinkLoss = sim::kMarginalLinkLoss;
inline constexpr double kWeakLinkLoss = sim::kWeakLinkLoss;
inline constexpr double kPoorLinkLoss = sim::kPoorLinkLoss;
inline constexpr double kIsolatedLoss = sim::kIsolatedLoss;

/// Two isolated cells: AP0 with two poor clients, AP1 with two good ones
/// (the paper's Topology 1 shape).
inline ScenarioBuilder topology1_builder() {
  ScenarioBuilder b;
  b.cells = {CellSpec{{kPoorLinkLoss, kPoorLinkLoss + 0.2}},
             CellSpec{{kGoodLinkLoss, kGoodLinkLoss + 2.0}}};
  return b;
}

}  // namespace acorn::testutil
