// Opportunistic channel-width fallback (paper §5.2, "Evaluating ACORN
// with mobility"): an AP holding a 40 MHz allocation may use either the
// full bond or one of its 20 MHz halves without changing the interference
// it projects on neighbors, so it can track its clients' link quality and
// switch widths on the fly. The width-only overload compares isolated
// cells (Wlan::isolated_cell_bps); the context overload scores the cell
// under the real assignment through the same sim::NetSnapshot that
// Algorithm 2's oracle scans with.
#pragma once

#include <optional>
#include <vector>

#include "sim/netkernel.hpp"

namespace acorn::core {

struct WidthDecision {
  phy::ChannelWidth width = phy::ChannelWidth::k40MHz;
  /// Best 20 MHz half (the halves only differ under the
  /// hidden-interference model; see the context overload below).
  double cell_bps_20 = 0.0;
  double cell_bps_40 = 0.0;
  /// Set by the context overload: the operating channel to use — the
  /// full bond, or the better 20 MHz half (primary on ties).
  std::optional<net::Channel> channel;
  /// Per-half breakdown from the context overload (equal when the
  /// halves are indistinguishable, e.g. hidden interference off).
  double cell_bps_20_primary = 0.0;
  double cell_bps_20_secondary = 0.0;
};

/// Compare the cell's throughput on the bond vs on a single 20 MHz half,
/// given the AP's current clients, and pick the better width. Only
/// meaningful when the AP holds a 40 MHz allocation; medium share is
/// unchanged by the choice (the occupied spectrum can only shrink).
/// Width-only comparison: it cannot see which basic channels the bond
/// occupies, so it cannot tell the halves apart — callers that know the
/// assignment should use the context overload below.
WidthDecision decide_width(const sim::Wlan& wlan, int ap,
                           const std::vector<int>& clients,
                           double medium_share = 1.0);

/// Context-aware variant: scores AP `ap`'s cell (its clients under the
/// snapshot's association) on the full bond AND on each 20 MHz half
/// under `assignment`, through sim::NetSnapshot::evaluate_cell, so
/// secondary-channel hidden interference distinguishes the halves
/// instead of silently falling back to the primary. `assignment[ap]`
/// must be the AP's 40 MHz allocation; ties between halves go to the
/// primary (the legacy behavior), a strictly better secondary half wins.
WidthDecision decide_width(const sim::NetSnapshot& snapshot, int ap,
                           const net::ChannelAssignment& assignment,
                           double medium_share = 1.0,
                           mac::TrafficType traffic =
                               mac::TrafficType::kUdp);

}  // namespace acorn::core
