#include "sim/wlan.hpp"

#include <algorithm>

#include "sim/netkernel.hpp"

namespace acorn::sim {

namespace {
phy::LinkConfig patched_link(const WlanConfig& cfg) {
  phy::LinkConfig lc = cfg.link;
  lc.payload_bytes = cfg.payload_bytes;
  return lc;
}
}  // namespace

Wlan::Wlan(net::Topology topology, net::LinkBudget budget, WlanConfig config)
    : topology_(std::move(topology)),
      budget_(std::move(budget)),
      config_(config),
      link_model_(patched_link(config)),
      table20_(phy::RateTable::shared(link_model_, phy::ChannelWidth::k20MHz,
                                      config.gi)),
      table40_(phy::RateTable::shared(link_model_, phy::ChannelWidth::k40MHz,
                                      config.gi)) {}

double Wlan::client_snr_db(int ap, int client, phy::ChannelWidth width) const {
  return link_model_.snr_db(topology_.ap(ap).tx_dbm,
                            budget_.ap_client_loss_db(ap, client), width);
}

Wlan::ClientLink Wlan::client_link(phy::ChannelWidth width,
                                   double snr_db) const {
  const phy::RateTable::Segment& seg =
      rate_table(width).segment_for_snr(snr_db);
  return ClientLink{seg.rate_bps,
                    link_model_.per(phy::mcs(seg.mcs_index), snr_db)};
}

double Wlan::client_delay_s_per_bit(int ap, int client,
                                    phy::ChannelWidth width) const {
  const ClientLink link =
      client_link(width, client_snr_db(ap, client, width));
  return mac::per_bit_delay_s(config_.timing, link.rate_bps,
                              config_.payload_bytes * 8, link.per);
}

std::vector<int> Wlan::clients_of(const net::Association& assoc, int ap) const {
  std::vector<int> out;
  for (int c = 0; c < topology_.num_clients(); ++c) {
    if (assoc[static_cast<std::size_t>(c)] == ap) out.push_back(c);
  }
  return out;
}

std::vector<std::vector<int>> Wlan::clients_by_ap(
    const net::Association& assoc) const {
  std::vector<std::vector<int>> out(
      static_cast<std::size_t>(topology_.num_aps()));
  for (int c = 0; c < topology_.num_clients(); ++c) {
    const int ap = assoc[static_cast<std::size_t>(c)];
    if (ap >= 0 && ap < topology_.num_aps()) {
      out[static_cast<std::size_t>(ap)].push_back(c);
    }
  }
  return out;
}

double Wlan::isolated_cell_bps(int ap, const std::vector<int>& clients,
                               phy::ChannelWidth width,
                               mac::TrafficType traffic) const {
  if (clients.empty()) return 0.0;
  std::vector<mac::CellClient> cell;
  cell.reserve(clients.size());
  for (int c : clients) {
    const ClientLink link = client_link(width, client_snr_db(ap, c, width));
    cell.push_back(mac::CellClient{c, link.rate_bps, link.per});
  }
  const mac::CellThroughput mac_result = mac::anomaly_throughput(
      config_.timing, cell, 1.0, config_.payload_bytes * 8);
  double total = 0.0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    total += mac::transport_goodput_bps(config_.traffic, traffic,
                                        mac_result.per_client_bps,
                                        cell[i].per);
  }
  return total;
}

double Wlan::isolated_best_bps(int ap, const std::vector<int>& clients,
                               mac::TrafficType traffic) const {
  return std::max(
      isolated_cell_bps(ap, clients, phy::ChannelWidth::k20MHz, traffic),
      isolated_cell_bps(ap, clients, phy::ChannelWidth::k40MHz, traffic));
}

Evaluation Wlan::evaluate(const net::Association& assoc,
                          const net::ChannelAssignment& assignment,
                          mac::TrafficType traffic) const {
  // One-shot snapshot build + flat evaluation; the snapshot constructor
  // and NetSnapshot::evaluate reject malformed sizes.
  return NetSnapshot(*this, assoc).evaluate(assignment, traffic);
}

}  // namespace acorn::sim
