// Shared helpers for the test suite: the library's scripted-deployment
// builder plus a canned Topology-1 shape, the random deployments the
// bit-identity suites draw, and the hex form the byte-format golden tests
// pin encodings in.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "util/rng.hpp"

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

/// A random deployment: 1-5 APs with 0-3 clients each, random link
/// qualities (saturated down to dead), random AP-AP and cross-cell losses
/// (spanning isolated, contending and hidden-interferer regimes).
inline ScenarioBuilder random_builder(util::Rng& rng, bool sinr,
                                      bool weighted) {
  ScenarioBuilder b;
  const int n_aps = static_cast<int>(rng.uniform_int(1, 5));
  for (int a = 0; a < n_aps; ++a) {
    CellSpec spec;
    const int n_clients = static_cast<int>(rng.uniform_int(0, 3));
    for (int c = 0; c < n_clients; ++c) {
      spec.client_losses_db.push_back(rng.uniform(78.0, 112.0));
    }
    b.cells.push_back(spec);
  }
  b.ap_ap_loss_db = rng.uniform(80.0, 140.0);
  b.cross_loss_db = rng.uniform(95.0, 140.0);
  b.config.sinr_interference = sinr;
  b.config.weighted_contention = weighted;
  return b;
}

/// Shuffle the intended association: some clients roam to a random AP,
/// some disconnect entirely.
inline net::Association random_association(const ScenarioBuilder& b,
                                           util::Rng& rng) {
  net::Association assoc = b.intended_association();
  const int n_aps = static_cast<int>(b.cells.size());
  for (int& owner : assoc) {
    const double roll = rng.uniform();
    if (roll < 0.15) {
      owner = net::kUnassociated;
    } else if (roll < 0.35) {
      owner = static_cast<int>(rng.uniform_int(0, n_aps - 1));
    }
  }
  return assoc;
}

}  // namespace acorn::testutil
