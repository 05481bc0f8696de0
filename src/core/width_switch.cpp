#include "core/width_switch.hpp"

#include <algorithm>
#include <stdexcept>

namespace acorn::core {

WidthDecision decide_width(const sim::Wlan& wlan, int ap,
                           const std::vector<int>& clients,
                           double medium_share) {
  WidthDecision d;
  // isolated_cell_bps evaluates at share 1; throughput scales linearly
  // with the share, so the comparison is share-independent — we scale
  // anyway so callers can log absolute numbers.
  d.cell_bps_20 =
      medium_share *
      wlan.isolated_cell_bps(ap, clients, phy::ChannelWidth::k20MHz);
  d.cell_bps_40 =
      medium_share *
      wlan.isolated_cell_bps(ap, clients, phy::ChannelWidth::k40MHz);
  d.width = d.cell_bps_40 >= d.cell_bps_20 ? phy::ChannelWidth::k40MHz
                                           : phy::ChannelWidth::k20MHz;
  d.cell_bps_20_primary = d.cell_bps_20;
  d.cell_bps_20_secondary = d.cell_bps_20;
  return d;
}

WidthDecision decide_width(const sim::NetSnapshot& snapshot, int ap,
                           const net::ChannelAssignment& assignment,
                           double medium_share, mac::TrafficType traffic) {
  const net::Channel bond = assignment[static_cast<std::size_t>(ap)];
  if (!bond.is_bonded()) {
    throw std::invalid_argument("decide_width: AP holds no 40 MHz bond");
  }
  WidthDecision d;
  // Only the activity of APs outside `ap`'s carrier-sense range enters
  // the cell, and the graph is symmetric, so their shares do not depend
  // on `ap`'s channel: one vector serves the bond and both halves.
  std::vector<double> activity;
  snapshot.unweighted_shares(assignment, activity);
  net::ChannelAssignment variant = assignment;
  const auto cell_bps = [&](const net::Channel& ch) {
    variant[static_cast<std::size_t>(ap)] = ch;
    return snapshot
        .evaluate_cell(ap, medium_share, variant, activity, traffic)
        .goodput_bps;
  };
  d.cell_bps_40 = cell_bps(bond);
  d.cell_bps_20_primary = cell_bps(net::Channel::basic(bond.primary()));
  d.cell_bps_20_secondary =
      cell_bps(net::Channel::basic(bond.primary() + 1));
  // Ties go to the primary half so the decision is stable when the
  // halves are indistinguishable.
  const net::Channel half =
      d.cell_bps_20_secondary > d.cell_bps_20_primary
          ? net::Channel::basic(bond.primary() + 1)
          : net::Channel::basic(bond.primary());
  d.cell_bps_20 =
      std::max(d.cell_bps_20_primary, d.cell_bps_20_secondary);
  if (d.cell_bps_40 >= d.cell_bps_20) {
    d.width = phy::ChannelWidth::k40MHz;
    d.channel = bond;
  } else {
    d.width = phy::ChannelWidth::k20MHz;
    d.channel = half;
  }
  return d;
}

}  // namespace acorn::core
