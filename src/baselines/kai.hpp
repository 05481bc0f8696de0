// Kai et al., "To Bond or not to Bond" — optimal joint channel/width
// allocation as a yardstick baseline, and the repository's one
// exhaustive search. For small deployments the optimum is exact: every
// assignment of the plan's colors, each scored as a sum of per-cell
// values that the memoizing CachedOracle computes once per distinct cell
// context (CachedOracle::cell_value). Above the exact budget it falls
// back to a bounded multi-restart steepest-ascent search over single-AP
// color flips on the oracle's batched scan, which is not guaranteed
// optimal and says so in the result. The gap-to-optimal report
// (dcb::run_gap_report) uses the exact branch only.
#pragma once

#include "core/oracle_cache.hpp"
#include "net/channels.hpp"
#include "sim/wlan.hpp"
#include "util/rng.hpp"

namespace acorn::baselines {

struct KaiConfig {
  /// Use the exhaustive branch when |colors|^n_aps fits this budget.
  long long max_exact_evaluations = 1'000'000;
  /// Bounded-search branch: independent restarts from random initial
  /// assignments, each run to a local optimum by steepest ascent.
  int restarts = 4;
  /// Total oracle-evaluation budget for the bounded-search branch; the
  /// search never exceeds it.
  long long max_search_evaluations = 200'000;
};

struct KaiResult {
  net::ChannelAssignment assignment;
  double total_bps = 0.0;
  /// True when the exhaustive branch ran: `assignment` is the global
  /// optimum for this (association, plan), not a local one.
  bool exact = false;
  long long evaluations = 0;
};

/// The exact branch on its own: scores all |colors|^n_aps assignments
/// in lexicographic order (AP 0's color varies fastest) and returns the
/// first one reaching the maximum, with `evaluations` = |colors|^n_aps.
/// Each total is bit-identical to oracle.total_bps: the cells' values
/// summed in ascending AP order, where a cell's value is read from a
/// per-call table keyed by what it depends on (its width and contention
/// units, plus with SINR on the channel and activity of every hidden
/// interferer) and filled through oracle.cell_value on first use. The
/// search runs one row per assignment of APs 1..n_aps-1 and scores AP
/// 0's colors in it at once, from per-AP contention it keeps by integer
/// deltas; it calls oracle.cell_value where and in the order a plain
/// odometer would, so the oracle's counters read the same. Throws
/// std::invalid_argument when the assignment count exceeds
/// `max_evaluations`.
KaiResult kai_exact_allocation(const core::CachedOracle& oracle,
                               const net::ChannelPlan& plan,
                               long long max_evaluations = 1'000'000);

/// Compute Kai et al.'s allocation against an existing oracle (bound to
/// the wlan/association under study). `rng` feeds only the bounded
/// branch's random restarts; the exact branch never draws from it, so
/// exact results are rng-independent. The bounded branch throws
/// std::invalid_argument unless restarts and max_search_evaluations are
/// both at least 1.
KaiResult kai_optimal_allocation(const core::CachedOracle& oracle,
                                 const net::ChannelPlan& plan,
                                 util::Rng& rng,
                                 const KaiConfig& config = {});

/// Convenience overload building its own CachedOracle.
KaiResult kai_optimal_allocation(const sim::Wlan& wlan,
                                 const net::Association& assoc,
                                 const net::ChannelPlan& plan,
                                 util::Rng& rng,
                                 mac::TrafficType traffic =
                                     mac::TrafficType::kUdp,
                                 const KaiConfig& config = {});

}  // namespace acorn::baselines
