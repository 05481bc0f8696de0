#include "sim/wlan_reference.hpp"

#include <stdexcept>

#include "phy/noise.hpp"
#include "util/units.hpp"

namespace acorn::sim::reference {

namespace {

struct CellContext {
  const net::InterferenceGraph* graph = nullptr;
  const net::ChannelAssignment* assignment = nullptr;
  net::Channel channel = net::Channel::basic(0);
};

ApStats evaluate_cell(const Wlan& wlan, int ap,
                      const std::vector<int>& clients,
                      phy::ChannelWidth width, double medium_share,
                      mac::TrafficType traffic,
                      const CellContext* context = nullptr) {
  const WlanConfig& config = wlan.config();
  ApStats stats;
  stats.ap_id = ap;
  stats.num_clients = static_cast<int>(clients.size());
  stats.medium_share = medium_share;
  if (clients.empty()) return stats;

  std::vector<mac::CellClient> cell;
  cell.reserve(clients.size());
  for (int c : clients) {
    double snr_db = wlan.client_snr_db(ap, c, width);
    if (config.sinr_interference && context != nullptr) {
      // Raise the per-subcarrier noise floor by the hidden interference.
      const double noise_mw = util::dbm_to_mw(
          phy::noise_per_subcarrier_dbm(config.link.noise_figure_db));
      const double interference_mw =
          hidden_interference_mw(wlan, ap, c, context->channel,
                                 *context->graph, *context->assignment);
      snr_db -= util::lin_to_db((noise_mw + interference_mw) / noise_mw);
    }
    // The full 16-row auto-rate sweep, expanded to what the MAC model
    // consumes: the PHY rate at the configured GI and the PER.
    const phy::RateDecision rate =
        phy::best_rate(wlan.link_model(), width, snr_db, config.gi);
    cell.push_back(mac::CellClient{
        c, phy::mcs(rate.mcs_index).rate_bps(width, config.gi), rate.per});
  }
  const mac::CellThroughput mac_result = mac::anomaly_throughput(
      config.timing, cell, medium_share, config.payload_bytes * 8);

  stats.atd_s_per_bit = mac_result.atd_s_per_bit;
  stats.mac_throughput_bps = mac_result.cell_bps;
  stats.client_ids = clients;
  stats.client_delay_s_per_bit = mac_result.client_delay_s_per_bit;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const double goodput = mac::transport_goodput_bps(
        config.traffic, traffic, mac_result.per_client_bps, cell[i].per);
    stats.client_goodput_bps.push_back(goodput);
    stats.goodput_bps += goodput;
  }
  return stats;
}

}  // namespace

double hidden_interference_mw(const Wlan& wlan, int serving_ap, int client,
                              const net::Channel& channel,
                              const net::InterferenceGraph& graph,
                              const net::ChannelAssignment& assignment) {
  const net::Topology& topology = wlan.topology();
  double total_mw = 0.0;
  for (int other = 0; other < topology.num_aps(); ++other) {
    if (other == serving_ap) continue;
    // Contending APs defer to each other (already charged via M_a);
    // only hidden co-channel APs add concurrent interference.
    if (graph.adjacent(serving_ap, other)) continue;
    const net::Channel& other_ch =
        assignment[static_cast<std::size_t>(other)];
    const double captured = other_ch.overlap_fraction(channel);
    if (captured <= 0.0) continue;
    const double rx_mw = util::dbm_to_mw(
        wlan.budget().rx_at_client_dbm(topology, other, client));
    // Activity factor: the interferer transmits for its medium share.
    const double activity =
        net::medium_access_share(graph, assignment, other);
    // Spread over the interferer's data subcarriers; captured fraction
    // falls inside this channel.
    total_mw += captured * activity * rx_mw /
                phy::data_subcarriers(other_ch.width());
  }
  return total_mw;
}

double isolated_cell_bps(const Wlan& wlan, int ap,
                         const std::vector<int>& clients,
                         phy::ChannelWidth width, mac::TrafficType traffic) {
  return evaluate_cell(wlan, ap, clients, width, 1.0, traffic).goodput_bps;
}

ApStats evaluate_cell_in(const Wlan& wlan, int ap,
                         const std::vector<int>& clients,
                         double medium_share,
                         const net::InterferenceGraph& graph,
                         const net::ChannelAssignment& assignment,
                         mac::TrafficType traffic) {
  CellContext context;
  context.graph = &graph;
  context.assignment = &assignment;
  context.channel = assignment[static_cast<std::size_t>(ap)];
  return evaluate_cell(wlan, ap, clients, context.channel.width(),
                       medium_share, traffic, &context);
}

Evaluation evaluate(const Wlan& wlan, const net::Association& assoc,
                    const net::ChannelAssignment& assignment,
                    mac::TrafficType traffic) {
  const net::Topology& topology = wlan.topology();
  if (static_cast<int>(assoc.size()) != topology.num_clients()) {
    throw std::invalid_argument("association size != client count");
  }
  if (static_cast<int>(assignment.size()) != topology.num_aps()) {
    throw std::invalid_argument("assignment size != AP count");
  }
  const net::InterferenceGraph graph(topology, wlan.budget(), assoc,
                                     wlan.config().interference);
  const std::vector<std::vector<int>> clients = wlan.clients_by_ap(assoc);
  Evaluation eval;
  eval.per_ap.reserve(static_cast<std::size_t>(topology.num_aps()));
  for (int ap = 0; ap < topology.num_aps(); ++ap) {
    const double share =
        wlan.config().weighted_contention
            ? net::medium_access_share_weighted(graph, assignment, ap)
            : net::medium_access_share(graph, assignment, ap);
    const ApStats stats = evaluate_cell_in(
        wlan, ap, clients[static_cast<std::size_t>(ap)], share, graph,
        assignment, traffic);
    eval.total_goodput_bps += stats.goodput_bps;
    eval.per_ap.push_back(stats);
  }
  return eval;
}

}  // namespace acorn::sim::reference
