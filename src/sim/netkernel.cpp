#include "sim/netkernel.hpp"

#include <stdexcept>
#include <utility>

#include "phy/mcs.hpp"
#include "phy/noise.hpp"
#include "util/units.hpp"

namespace acorn::sim {

NetSnapshot::NetSnapshot(const Wlan& wlan, net::Association assoc)
    : wlan_(&wlan),
      assoc_(std::move(assoc)),
      // The graph constructor validates assoc.size() == client count with
      // the same message sim::reference::evaluate throws.
      graph_(wlan.topology(), wlan.budget(), assoc_,
             wlan.config().interference) {
  const net::Topology& topo = wlan.topology();
  const WlanConfig& config = wlan.config();
  n_aps_ = topo.num_aps();
  n_clients_ = topo.num_clients();
  noise_mw_ = util::dbm_to_mw(
      phy::noise_per_subcarrier_dbm(config.link.noise_figure_db));
  payload_bits_ = config.payload_bytes * 8;

  // CSR layout of clients_by_ap: count, prefix-sum, fill. Clients land
  // ascending within each cell because the fill pass walks them in order.
  cell_begin_.assign(static_cast<std::size_t>(n_aps_) + 1, 0);
  for (int c = 0; c < n_clients_; ++c) {
    const int ap = assoc_[static_cast<std::size_t>(c)];
    if (ap >= 0 && ap < n_aps_) ++cell_begin_[static_cast<std::size_t>(ap) + 1];
  }
  for (int ap = 0; ap < n_aps_; ++ap) {
    cell_begin_[static_cast<std::size_t>(ap) + 1] +=
        cell_begin_[static_cast<std::size_t>(ap)];
  }
  const std::size_t n_assoc =
      static_cast<std::size_t>(cell_begin_[static_cast<std::size_t>(n_aps_)]);
  cell_clients_.resize(n_assoc);
  cell_snr20_db_.resize(n_assoc);
  cell_snr40_db_.resize(n_assoc);
  std::vector<int> cursor(cell_begin_.begin(), cell_begin_.end() - 1);
  for (int c = 0; c < n_clients_; ++c) {
    const int ap = assoc_[static_cast<std::size_t>(c)];
    if (ap < 0 || ap >= n_aps_) continue;
    const auto slot =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(ap)]++);
    cell_clients_[slot] = c;
    cell_snr20_db_[slot] =
        wlan.client_snr_db(ap, c, phy::ChannelWidth::k20MHz);
    cell_snr40_db_[slot] =
        wlan.client_snr_db(ap, c, phy::ChannelWidth::k40MHz);
  }

  // Full AP -> client received-power matrix in mW: the hidden-interference
  // kernel reads arbitrary (interferer, client) pairs.
  rx_mw_.resize(static_cast<std::size_t>(n_aps_) *
                static_cast<std::size_t>(n_clients_));
  const net::LinkBudget& budget = wlan.budget();
  for (int ap = 0; ap < n_aps_; ++ap) {
    for (int c = 0; c < n_clients_; ++c) {
      rx_mw_[static_cast<std::size_t>(ap) *
                 static_cast<std::size_t>(n_clients_) +
             static_cast<std::size_t>(c)] =
          util::dbm_to_mw(budget.rx_at_client_dbm(topo, ap, c));
    }
  }
}

void NetSnapshot::unweighted_shares(const net::ChannelAssignment& assignment,
                                    std::vector<double>& out) const {
  out.resize(static_cast<std::size_t>(n_aps_));
  for (int ap = 0; ap < n_aps_; ++ap) {
    const net::Channel& own = assignment[static_cast<std::size_t>(ap)];
    int count = 0;
    for (int b = 0; b < n_aps_; ++b) {
      if (b != ap && graph_.adjacent(ap, b) &&
          own.conflicts(assignment[static_cast<std::size_t>(b)])) {
        ++count;
      }
    }
    out[static_cast<std::size_t>(ap)] =
        1.0 / (static_cast<double>(count) + 1.0);
  }
}

double NetSnapshot::weighted_share(const net::ChannelAssignment& assignment,
                                   int ap) const {
  double load = 1.0;  // this AP's own demand
  const net::Channel& own = assignment[static_cast<std::size_t>(ap)];
  for (int b = 0; b < n_aps_; ++b) {
    if (b == ap || !graph_.adjacent(ap, b)) continue;
    load += own.overlap_fraction(assignment[static_cast<std::size_t>(b)]);
  }
  return 1.0 / load;
}

double NetSnapshot::hidden_mw(int serving_ap, int client,
                              const net::Channel& channel,
                              const net::ChannelAssignment& assignment,
                              std::span<const double> activity) const {
  double total_mw = 0.0;
  for (int other = 0; other < n_aps_; ++other) {
    if (other == serving_ap) continue;
    // Contending APs defer to each other (already charged via M_a);
    // only hidden co-channel APs add concurrent interference.
    if (graph_.adjacent(serving_ap, other)) continue;
    const net::Channel& other_ch =
        assignment[static_cast<std::size_t>(other)];
    const double captured = other_ch.overlap_fraction(channel);
    if (captured <= 0.0) continue;
    const double rx_mw =
        rx_mw_[static_cast<std::size_t>(other) *
                   static_cast<std::size_t>(n_clients_) +
               static_cast<std::size_t>(client)];
    // Activity factor: the interferer transmits for its medium share.
    // Spread over the interferer's data subcarriers; captured fraction
    // falls inside this channel.
    total_mw += captured * activity[static_cast<std::size_t>(other)] *
                rx_mw / phy::data_subcarriers(other_ch.width());
  }
  return total_mw;
}

ApStats NetSnapshot::evaluate_cell(int ap, double medium_share,
                                   const net::ChannelAssignment& assignment,
                                   std::span<const double> activity,
                                   mac::TrafficType traffic) const {
  const WlanConfig& config = wlan_->config();
  const net::Channel& own = assignment[static_cast<std::size_t>(ap)];
  const phy::ChannelWidth width = own.width();
  const std::vector<double>& snrs =
      width == phy::ChannelWidth::k40MHz ? cell_snr40_db_ : cell_snr20_db_;

  const std::span<const int> clients = cell_clients(ap);
  ApStats stats;
  stats.ap_id = ap;
  stats.num_clients = static_cast<int>(clients.size());
  stats.medium_share = medium_share;
  if (clients.empty()) return stats;

  const std::size_t lo =
      static_cast<std::size_t>(cell_begin_[static_cast<std::size_t>(ap)]);
  std::vector<mac::CellClient> cell;
  cell.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const int c = clients[i];
    double snr_db = snrs[lo + i];
    if (config.sinr_interference) {
      // Raise the per-subcarrier noise floor by the hidden interference.
      const double interference_mw =
          hidden_mw(ap, c, own, assignment, activity);
      snr_db -= util::lin_to_db((noise_mw_ + interference_mw) / noise_mw_);
    }
    const Wlan::ClientLink link = wlan_->client_link(width, snr_db);
    cell.push_back(mac::CellClient{c, link.rate_bps, link.per});
  }
  const mac::CellThroughput mac_result = mac::anomaly_throughput(
      config.timing, cell, medium_share, payload_bits_);

  stats.atd_s_per_bit = mac_result.atd_s_per_bit;
  stats.mac_throughput_bps = mac_result.cell_bps;
  stats.client_ids.assign(clients.begin(), clients.end());
  stats.client_delay_s_per_bit = mac_result.client_delay_s_per_bit;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const double goodput = mac::transport_goodput_bps(
        config.traffic, traffic, mac_result.per_client_bps, cell[i].per);
    stats.client_goodput_bps.push_back(goodput);
    stats.goodput_bps += goodput;
  }
  return stats;
}

Evaluation NetSnapshot::evaluate(const net::ChannelAssignment& assignment,
                                 mac::TrafficType traffic) const {
  if (static_cast<int>(assignment.size()) != n_aps_) {
    throw std::invalid_argument("assignment size != AP count");
  }
  std::vector<double> activity;
  unweighted_shares(assignment, activity);
  Evaluation eval;
  eval.per_ap.reserve(static_cast<std::size_t>(n_aps_));
  for (int ap = 0; ap < n_aps_; ++ap) {
    const double share = wlan_->config().weighted_contention
                             ? weighted_share(assignment, ap)
                             : activity[static_cast<std::size_t>(ap)];
    ApStats stats = evaluate_cell(ap, share, assignment, activity, traffic);
    eval.total_goodput_bps += stats.goodput_bps;
    eval.per_ap.push_back(std::move(stats));
  }
  return eval;
}

}  // namespace acorn::sim
