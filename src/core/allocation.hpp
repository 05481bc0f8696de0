// ACORN's channel bonding selection — Algorithm 2 of the paper.
//
// Colors are 20 MHz basic channels plus composite 40 MHz bonds. Starting
// from an arbitrary assignment, the algorithm is an iterated greedy
// ("gradient descent" in the paper's words): in every step, each AP that
// has not yet switched this round estimates the aggregate network
// throughput for every candidate color with all other APs fixed; the AP
// with the largest improvement (rank) commits. A round ends when every AP
// has had its chance; rounds repeat until the aggregate gain falls below
// epsilon (the paper uses 1.05 — stop at <= 5% improvement).
//
// The channel allocation decision problem is NP-complete (reduction from
// graph k-coloring, §4.2); this greedy carries a worst-case
// O(1/(Delta+1)) approximation bound but is near-optimal in practice
// (Fig. 14).
//
// One run is serial: every candidate of a step is scored against the
// same base and the first best in scan order commits. Independent runs
// go parallel one level up, across scenarios (sim::sweep_scenarios) and
// across WLANs (acornd's shard executor).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/channels.hpp"
#include "sim/wlan.hpp"

namespace acorn::core {

class CachedOracle;

struct AllocationConfig {
  /// Stop when the round's aggregate throughput is < epsilon * previous.
  double epsilon = 1.05;
  /// Safety bound on rounds (the paper's loop always terminated quickly).
  int max_rounds = 16;
  /// Must be 1: a run is serial (see above).
  int num_threads = 1;
};

/// What an AP can observe when estimating "aggregate throughput with me
/// on channel c, everyone else fixed". Defaults to the exact flow-level
/// evaluator; tests and ablations can plug in noisy estimators.
using ThroughputOracle = std::function<double(
    const net::Association&, const net::ChannelAssignment&)>;

struct AllocationResult {
  net::ChannelAssignment assignment;
  /// Total oracle evaluations (the paper's k counter): the initial
  /// y(F_0) call plus one per candidate (AP, color) trial. 64-bit: a
  /// large sweep overflows 32 bits long before it overflows anyone's
  /// patience now that the scan is batched.
  std::int64_t evaluations = 0;
  /// Number of committed channel switches.
  int switches = 0;
  /// Aggregate throughput after each committed switch (bps).
  std::vector<double> trajectory_bps;
  /// Final aggregate throughput (bps).
  double final_bps = 0.0;
};

class ChannelAllocator {
 public:
  ChannelAllocator(net::ChannelPlan plan, AllocationConfig config = {});

  const net::ChannelPlan& plan() const { return plan_; }
  const AllocationConfig& config() const { return config_; }

  /// Run Algorithm 2 from `initial`. Without an oracle this builds a
  /// CachedOracle and takes the overload below (bit-identical to, and
  /// much faster than, a full wlan.evaluate(...).total_goodput_bps per
  /// candidate); a custom oracle is called once per candidate.
  AllocationResult allocate(const sim::Wlan& wlan,
                            const net::Association& assoc,
                            net::ChannelAssignment initial,
                            ThroughputOracle oracle = {}) const;

  /// Run Algorithm 2 against an existing CachedOracle (which must be
  /// bound to `assoc`), scoring candidates through the oracle's batched
  /// multi-candidate evaluator, 64 per call. Bit-identical to the
  /// ThroughputOracle overload wrapping `oracle.total_bps`.
  AllocationResult allocate(const sim::Wlan& wlan,
                            const net::Association& assoc,
                            net::ChannelAssignment initial,
                            const CachedOracle& oracle) const;

  /// Uniform-random initial assignment over all colors (the paper starts
  /// "by randomly assigning initial channels").
  net::ChannelAssignment random_assignment(int num_aps,
                                           util::Rng& rng) const;

 private:
  net::ChannelPlan plan_;
  AllocationConfig config_;
};

/// The paper's upper bound Y* = sum_i X_i^isol: every AP isolated on its
/// best width (used by the Fig. 14 approximation-ratio study).
double isolated_upper_bound_bps(const sim::Wlan& wlan,
                                const net::Association& assoc,
                                mac::TrafficType traffic =
                                    mac::TrafficType::kUdp);

}  // namespace acorn::core
