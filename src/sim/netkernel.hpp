// Flat-array network evaluation kernel: the one cell evaluator on every
// production path (Algorithm 2's scan through core::CachedOracle, the
// epoch's width fallback, Wlan::evaluate, the sweeps).
//
// An object-at-a-time evaluation of a cell re-derives each client's SNR
// from Topology/LinkBudget lookups, re-runs the full 16-row `best_rate`
// erfc/pow sweep, and re-converts every hidden-interference term from
// dBm and re-counts its contenders with allocating `neighbors()` calls.
// All of that depends only on (topology, budget, association) —
// invariant across the thousands of candidate assignments an allocator
// run or a scenario sweep scores.
//
// NetSnapshot hoists it: built once per (wlan, association), it stores
//   * the interference graph and flat per-AP client lists,
//   * a row-major AP -> client received-power matrix in mW,
//   * each associated client's per-subcarrier base SNR at both widths,
// and reads the Wlan's per-(width, GI) MCS threshold tables
// (phy::RateTable), so `evaluate` / `evaluate_cell` become contiguous
// array walks whose per-client inner loop is a threshold scan plus ONE
// coded-PER evaluation. Results are bit-identical to the object-at-a-time
// walk kept as the test-only spec `sim::reference::evaluate`
// (reference/sim/wlan_reference.hpp; randomized property test in
// tests/test_sim_netkernel.cpp): every floating-point expression is
// evaluated with the same operands in the same order, only hoisted out of
// the loops.
#pragma once

#include <span>
#include <vector>

#include "phy/rate_table.hpp"
#include "sim/wlan.hpp"

namespace acorn::sim {

/// One lane of a batched cell evaluation: the cell is scored under the
/// base assignment with AP `flip_ap` moved to `flip_channel` (flip_ap <
/// 0 scores the base assignment itself). `medium_share` is the cell's
/// contention share under that flip and `activity` the unweighted
/// shares of all APs under that flip — both supplied by the caller,
/// which computes them incrementally from the base.
struct CellLane {
  double medium_share = 0.0;
  const double* activity = nullptr;  // n_aps unweighted shares
  int flip_ap = -1;
  net::Channel flip_channel = net::Channel::basic(0);
};

/// Share-independent per-client products of one cell evaluation. A
/// single-AP flip that only perturbs a neighbor cell's medium share
/// leaves that cell's per-client rates, PERs and delays bit-identical,
/// so the batched oracle caches these once per base assignment and
/// rescales: per-client throughput = share / atd, then the transport
/// factors below reproduce transport_goodput_bps exactly.
struct CellScanCache {
  double atd_s_per_bit = 0.0;
  /// tcp_efficiency * (1-per)^sensitivity per client — the exact first
  /// product transport_goodput_bps forms on the TCP path.
  std::vector<double> tcp_c1;
  /// Mathis cap per client (+inf when the residual loss is exactly 0).
  std::vector<double> tcp_cap;
};

/// Immutable link-state snapshot for one (wlan, association) pair. The
/// wlan must outlive the snapshot. Thread-safe: all methods are const and
/// touch no shared mutable state (the batched evaluators' scratch is per
/// thread), so one snapshot may serve many threads, such as the sweep
/// driver's scenario workers.
class NetSnapshot {
 public:
  NetSnapshot(const Wlan& wlan, net::Association assoc);

  const Wlan& wlan() const { return *wlan_; }
  const net::Association& association() const { return assoc_; }
  const net::InterferenceGraph& graph() const { return graph_; }
  int num_aps() const { return n_aps_; }
  /// Clients associated to `ap` (ascending ids, same as clients_by_ap).
  std::span<const int> cell_clients(int ap) const {
    const auto lo = static_cast<std::size_t>(cell_begin_[
        static_cast<std::size_t>(ap)]);
    const auto hi = static_cast<std::size_t>(cell_begin_[
        static_cast<std::size_t>(ap) + 1]);
    return std::span<const int>(cell_clients_).subspan(lo, hi - lo);
  }

  /// The paper's unweighted medium-access share M_a = 1/(|con_a|+1) for
  /// every AP under `assignment`, written into `out` (resized to the AP
  /// count). Bit-identical to net::medium_access_share per AP, without
  /// the allocating neighbors() walk. These are also the activity factors
  /// of the hidden-interference model.
  void unweighted_shares(const net::ChannelAssignment& assignment,
                         std::vector<double>& out) const;

  /// Overlap-weighted share of one AP; bit-identical to
  /// net::medium_access_share_weighted.
  double weighted_share(const net::ChannelAssignment& assignment,
                        int ap) const;

  /// Evaluate one cell exactly as `evaluate` would under (assignment,
  /// graph): `medium_share` is the cell's own share,
  /// `activity` the unweighted shares of all APs (used by the
  /// hidden-interference term when `sinr_interference` is on).
  ApStats evaluate_cell(int ap, double medium_share,
                        const net::ChannelAssignment& assignment,
                        std::span<const double> activity,
                        mac::TrafficType traffic =
                            mac::TrafficType::kUdp) const;

  /// Full-network evaluation; bit-identical to
  /// sim::reference::evaluate(wlan, association, assignment, traffic).
  Evaluation evaluate(const net::ChannelAssignment& assignment,
                      mac::TrafficType traffic =
                          mac::TrafficType::kUdp) const;

  /// Batched cell evaluation across candidate lanes. For every lane l,
  /// out_value[l] is the oracle-level value of cell `ap` under (base
  /// with lane l's flip applied): the cell's transport goodput summed in
  /// client order, or the client_weights-weighted sum when weights are
  /// supplied — bit-identical to evaluate_cell(...) followed by the
  /// CachedOracle weighting loop. Vectorized across lanes (hidden-
  /// interference accumulation, delay/ATD and UDP transport arithmetic,
  /// four lanes to a vector, each lane in evaluate_cell's operation
  /// order); the per-lane MCS threshold scan and transcendental calls
  /// (log10, the coded-PER chain, TCP's pow) run through the exact
  /// scalar routines the one-at-a-time path uses, with identical inputs.
  /// When `capture` is non-null (single-lane base evaluations) the
  /// share-independent per-client products are stored for later
  /// rescale_cell_shares calls.
  void evaluate_cells_batch(int ap, const net::ChannelAssignment& base,
                            std::span<const CellLane> lanes,
                            mac::TrafficType traffic,
                            std::span<const double> client_weights,
                            std::span<double> out_value,
                            CellScanCache* capture = nullptr) const;

  /// Share-only batched re-evaluation of cell `ap`: for every lane l,
  /// out_value[l] is the oracle-level cell value at medium share
  /// shares[l] with the per-client rate/PER pipeline replayed from
  /// `cache` (valid whenever the flip leaves the cell's channel, SNRs
  /// and hidden-interference inputs untouched). Bit-identical to a full
  /// evaluation at that share.
  void rescale_cell_shares(int ap, std::span<const double> shares,
                           const CellScanCache& cache,
                           mac::TrafficType traffic,
                           std::span<const double> client_weights,
                           std::span<double> out_value) const;

 private:
  /// Per-subcarrier hidden-interference power (mW) at `client` on
  /// `channel`; bit-identical to the reference evaluator's term with the
  /// per-interferer activity shares supplied instead of recomputed.
  double hidden_mw(int serving_ap, int client, const net::Channel& channel,
                   const net::ChannelAssignment& assignment,
                   std::span<const double> activity) const;

  const Wlan* wlan_;
  net::Association assoc_;
  net::InterferenceGraph graph_;
  int n_aps_ = 0;
  int n_clients_ = 0;
  double noise_mw_ = 0.0;  // per-subcarrier noise floor, mW
  int payload_bits_ = 0;

  // Flat per-AP client lists: cell_clients_[cell_begin_[ap] ..
  // cell_begin_[ap+1]) are AP `ap`'s clients, ascending.
  std::vector<int> cell_begin_;
  std::vector<int> cell_clients_;
  // Parallel to cell_clients_: the client's base per-subcarrier SNR at
  // each width (dB), precomputed from Tx power and the link budget.
  std::vector<double> cell_snr20_db_;
  std::vector<double> cell_snr40_db_;
  // Row-major AP -> client received power in mW (hidden interference).
  std::vector<double> rx_mw_;
};

}  // namespace acorn::sim
