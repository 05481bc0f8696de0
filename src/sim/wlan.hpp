// Flow-level WLAN evaluator: given a deployment (topology + link budget),
// a user association and a channel assignment, compute what every cell
// and the whole network achieve under saturated downlink traffic.
//
// The pipeline per AP is the paper's measurement chain in reverse:
// client SNR at the assigned width -> auto-rate (MCS + SDM/STBC mode and
// its PER) -> per-client transmission delay -> performance-anomaly cell
// throughput scaled by the contention share M_a -> transport goodput.
#pragma once

#include <memory>
#include <vector>

#include "mac/anomaly.hpp"
#include "mac/traffic.hpp"
#include "net/interference.hpp"
#include "phy/rate_table.hpp"

namespace acorn::sim {

struct WlanConfig {
  phy::LinkConfig link;
  mac::MacTiming timing;
  mac::TrafficModel traffic;
  net::InterferenceConfig interference;
  int payload_bytes = 1500;
  phy::GuardInterval gi = phy::GuardInterval::kLong800ns;
  /// Contention model: false = the paper's M = 1/(|con|+1); true = the
  /// overlap-weighted variant (partial spectral overlap costs a partial
  /// contention slot). See the contention-model ablation bench.
  bool weighted_contention = false;
  /// Hidden-interference model: when true, co-channel APs *outside*
  /// carrier-sense range raise the effective noise floor at each client
  /// (SINR instead of SNR), weighted by the interferer's busy fraction.
  /// Captures the paper's §1 point that wider bands both project and
  /// suffer more interference. Off by default (the paper's evaluation
  /// topologies are contention- or isolation-dominated).
  bool sinr_interference = false;
};

/// Everything measured about one AP's cell in one evaluation.
struct ApStats {
  int ap_id = 0;
  int num_clients = 0;            // K_i
  double medium_share = 0.0;      // M_i
  double atd_s_per_bit = 0.0;     // ATD_i
  double mac_throughput_bps = 0.0;
  double goodput_bps = 0.0;       // transport-level cell goodput
  std::vector<int> client_ids;
  std::vector<double> client_delay_s_per_bit;  // d_cl, same order
  std::vector<double> client_goodput_bps;
};

struct Evaluation {
  std::vector<ApStats> per_ap;
  double total_goodput_bps = 0.0;
};

class Wlan {
 public:
  Wlan(net::Topology topology, net::LinkBudget budget, WlanConfig config);

  const net::Topology& topology() const { return topology_; }
  const net::LinkBudget& budget() const { return budget_; }
  net::LinkBudget& budget() { return budget_; }
  const WlanConfig& config() const { return config_; }
  const phy::LinkModel& link_model() const { return link_model_; }

  /// The auto-rate thresholds at a width for this WLAN's link config and
  /// GI, resolved once at construction from the process-wide cache.
  /// Every rate decision in the WLAN model goes through them.
  const phy::RateTable& rate_table(phy::ChannelWidth width) const {
    return width == phy::ChannelWidth::k40MHz ? *table40_ : *table20_;
  }

  /// Per-subcarrier SNR of the AP->client link at a width.
  double client_snr_db(int ap, int client, phy::ChannelWidth width) const;

  /// One client's auto-rate outcome, expanded to what the MAC model
  /// consumes: the PHY rate at the configured GI and the packet error
  /// rate.
  struct ClientLink {
    double rate_bps = 0.0;
    double per = 0.0;
  };
  /// The rate decision every cell evaluation and beacon makes: the
  /// threshold scan of `rate_table(width)` picks the row, then ONE PER
  /// evaluation at `snr_db`.
  ClientLink client_link(phy::ChannelWidth width, double snr_db) const;

  /// Per-client transmission delay d_u (s/bit) at a width: the beacon
  /// term of Algorithm 1's utility.
  double client_delay_s_per_bit(int ap, int client,
                                phy::ChannelWidth width) const;

  /// Evaluate one cell in isolation (medium share 1) at a given width;
  /// used for the isolated-throughput bound Y* (paper §4.2, Fig. 14).
  double isolated_cell_bps(int ap, const std::vector<int>& clients,
                           phy::ChannelWidth width,
                           mac::TrafficType traffic =
                               mac::TrafficType::kUdp) const;

  /// max over widths of the isolated cell throughput, X_i^isol.
  double isolated_best_bps(int ap, const std::vector<int>& clients,
                           mac::TrafficType traffic =
                               mac::TrafficType::kUdp) const;

  /// Full-network evaluation under an association + channel assignment.
  /// Delegates to a one-shot sim::NetSnapshot (flat-array kernel).
  /// Callers scoring many assignments under one association should
  /// build the snapshot once themselves instead.
  Evaluation evaluate(const net::Association& assoc,
                      const net::ChannelAssignment& assignment,
                      mac::TrafficType traffic =
                          mac::TrafficType::kUdp) const;

  /// Clients of an AP under an association.
  std::vector<int> clients_of(const net::Association& assoc, int ap) const;

  /// All per-AP client lists in one O(num_clients) pass (ascending client
  /// ids, exactly what `clients_of` returns per AP). Delta hook for
  /// incremental oracles that group clients once per association instead
  /// of rescanning every client for every cell.
  std::vector<std::vector<int>> clients_by_ap(
      const net::Association& assoc) const;

 private:
  net::Topology topology_;
  net::LinkBudget budget_;
  WlanConfig config_;
  phy::LinkModel link_model_;
  std::shared_ptr<const phy::RateTable> table20_;
  std::shared_ptr<const phy::RateTable> table40_;
};

}  // namespace acorn::sim
