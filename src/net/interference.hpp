// The interference graph of the paper's §4.2 (and footnote 5): vertices
// are APs; an edge joins APs i and j when they directly compete for the
// medium, or when either competes with at least one of the other AP's
// clients. "Competes" means received power above the carrier-sense
// threshold. Channel assignment then restricts contention to spectrally
// overlapping colors.
#pragma once

#include <vector>

#include "net/channels.hpp"
#include "net/pathloss.hpp"
#include "net/topology.hpp"

namespace acorn::net {

/// client id -> AP id, or kUnassociated.
using Association = std::vector<int>;
inline constexpr int kUnassociated = -1;

struct InterferenceConfig {
  /// Carrier-sense threshold: a transmitter heard above this power level
  /// forces deferral (typical 802.11 value around -82 dBm).
  double carrier_sense_dbm = -82.0;
};

class InterferenceGraph {
 public:
  InterferenceGraph(const Topology& topo, const LinkBudget& budget,
                    const Association& assoc,
                    const InterferenceConfig& config = {});

  int num_aps() const { return n_aps_; }
  /// Whether the two APs share an edge; throws std::out_of_range unless
  /// both ids are in [0, num_aps()). Inline: the oracle and the cell
  /// kernels call it in their inner loops.
  bool adjacent(int ap_a, int ap_b) const {
    if (ap_a < 0 || ap_a >= n_aps_ || ap_b < 0 || ap_b >= n_aps_) {
      throw_bad_ap_id();
    }
    return adj_[static_cast<std::size_t>(ap_a * n_aps_ + ap_b)] != 0;
  }
  std::vector<int> neighbors(int ap) const;
  int degree(int ap) const;
  /// The maximum node degree Delta used in the paper's O(1/(Delta+1))
  /// approximation bound.
  int max_degree() const;

 private:
  [[noreturn]] static void throw_bad_ap_id();

  int n_aps_;
  std::vector<char> adj_;  // row-major adjacency
};

/// Per-AP channel assignment: index = AP id.
using ChannelAssignment = std::vector<Channel>;

/// The set con_a of APs that contend with `ap` under assignment F:
/// interference-graph neighbors whose channel spectrally overlaps.
std::vector<int> contenders(const InterferenceGraph& graph,
                            const ChannelAssignment& assignment, int ap);

/// The paper's channel-access share estimate M_a = 1 / (|con_a| + 1).
double medium_access_share(const InterferenceGraph& graph,
                           const ChannelAssignment& assignment, int ap);

/// Overlap-weighted variant: a contender that overlaps only half of this
/// AP's band (a 20 MHz neighbor inside a 40 MHz bond) costs half a
/// contention slot: M_a = 1 / (1 + sum_b overlap_fraction). Reduces to
/// `medium_access_share` when every overlap is total. Used by the
/// contention-model ablation.
double medium_access_share_weighted(const InterferenceGraph& graph,
                                    const ChannelAssignment& assignment,
                                    int ap);

}  // namespace acorn::net
