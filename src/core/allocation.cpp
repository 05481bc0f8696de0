#include "core/allocation.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/oracle_cache.hpp"

namespace acorn::core {

ChannelAllocator::ChannelAllocator(net::ChannelPlan plan,
                                   AllocationConfig config)
    : plan_(plan), config_(config) {
  if (config_.epsilon < 1.0) {
    throw std::invalid_argument("epsilon must be >= 1");
  }
  if (config_.max_rounds < 1) {
    throw std::invalid_argument("max_rounds must be >= 1");
  }
  if (config_.num_threads != 1) {
    throw std::invalid_argument("num_threads must be 1");
  }
}

net::ChannelAssignment ChannelAllocator::random_assignment(
    int num_aps, util::Rng& rng) const {
  const std::vector<net::Channel> colors = plan_.all_channels();
  net::ChannelAssignment out;
  out.reserve(static_cast<std::size_t>(num_aps));
  for (int i = 0; i < num_aps; ++i) {
    out.push_back(colors[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(colors.size()) - 1))]);
  }
  return out;
}

namespace {

// Candidates per total_bps_batch call in the batched scan.
constexpr std::size_t kScanSlice = 64;

// The shared Algorithm 2 loop. `batch` non-null scores through the
// CachedOracle — the candidate scan through total_bps_batch, in
// consecutive slices of kScanSlice — and `oracle` is unused; otherwise
// (a custom oracle) every candidate is one `oracle` call. Both paths
// score candidates into the same trial_y slots and run the same
// first-strict-improvement winner rule, so the committed switch
// sequence — and with it every downstream double — is identical on
// either path.
AllocationResult run_algorithm2(const net::ChannelPlan& plan,
                                const AllocationConfig& config,
                                const net::Association& assoc,
                                net::ChannelAssignment initial,
                                const ThroughputOracle& oracle,
                                const CachedOracle* batch) {
  const std::vector<net::Channel> colors = plan.all_channels();
  const int n_aps = static_cast<int>(initial.size());

  AllocationResult result;
  result.assignment = std::move(initial);
  ++result.evaluations;  // k counts the initial y(F_0) measurement too
  double y = batch != nullptr ? batch->total_bps(result.assignment)
                              : oracle(assoc, result.assignment);
  result.trajectory_bps.push_back(y);

  struct Candidate {
    int ap;
    std::size_t color_idx;
  };
  std::vector<Candidate> candidates;
  std::vector<FlipCandidate> flips;
  std::vector<double> trial_y;
  net::ChannelAssignment trial;

  for (int round = 0; round < config.max_rounds; ++round) {
    const double y_round_start = y;
    // Every AP gets at most one switch per round (the paper's AP / AP'
    // bookkeeping).
    std::vector<char> switched(static_cast<std::size_t>(n_aps), 0);
    int round_switches = 0;
    while (true) {
      candidates.clear();
      for (int i = 0; i < n_aps; ++i) {
        if (switched[static_cast<std::size_t>(i)]) continue;
        const net::Channel current =
            result.assignment[static_cast<std::size_t>(i)];
        for (std::size_t k = 0; k < colors.size(); ++k) {
          if (colors[k] == current) continue;
          candidates.push_back(Candidate{i, k});
        }
      }
      if (candidates.empty()) break;
      result.evaluations += static_cast<std::int64_t>(candidates.size());
      trial_y.assign(candidates.size(), 0.0);
      if (batch != nullptr) {
        flips.resize(candidates.size());
        for (std::size_t j = 0; j < candidates.size(); ++j) {
          flips[j] = FlipCandidate{candidates[j].ap,
                                   colors[candidates[j].color_idx]};
        }
        for (std::size_t begin = 0; begin < candidates.size();
             begin += kScanSlice) {
          const std::size_t count =
              std::min(kScanSlice, candidates.size() - begin);
          batch->total_bps_batch(
              result.assignment,
              std::span<const FlipCandidate>(flips).subspan(begin, count),
              std::span<double>(trial_y).subspan(begin, count));
        }
      } else {
        // One oracle call per candidate on one flip/evaluate/restore
        // trial vector.
        trial = result.assignment;
        for (std::size_t j = 0; j < candidates.size(); ++j) {
          const std::size_t ap = static_cast<std::size_t>(candidates[j].ap);
          trial[ap] = colors[candidates[j].color_idx];
          trial_y[j] = oracle(assoc, trial);
          trial[ap] = result.assignment[ap];
        }
      }
      // Winner: the first candidate in scan order whose throughput
      // strictly beats everything before it.
      int winner = -1;
      double winner_y = y;
      for (std::size_t j = 0; j < candidates.size(); ++j) {
        if (trial_y[j] > winner_y) {
          winner_y = trial_y[j];
          winner = static_cast<int>(j);
        }
      }
      if (winner < 0) break;  // max rank over remaining APs is <= 0
      const Candidate& best = candidates[static_cast<std::size_t>(winner)];
      result.assignment[static_cast<std::size_t>(best.ap)] =
          colors[best.color_idx];
      switched[static_cast<std::size_t>(best.ap)] = 1;
      ++result.switches;
      ++round_switches;
      y = winner_y;
      result.trajectory_bps.push_back(y);
    }
    // A round that committed nothing found no improving move anywhere:
    // the assignment is a fixed point and further rounds would rescan the
    // identical landscape (this also covers degenerate networks whose
    // goodput is stuck at zero, where the epsilon test below can never
    // fire). Otherwise stop when the round improved aggregate throughput
    // by <= (eps - 1).
    if (round_switches == 0) break;
    if (y < config.epsilon * y_round_start) break;
  }
  result.final_bps = y;
  return result;
}

}  // namespace

AllocationResult ChannelAllocator::allocate(const sim::Wlan& wlan,
                                            const net::Association& assoc,
                                            net::ChannelAssignment initial,
                                            ThroughputOracle oracle) const {
  if (static_cast<int>(initial.size()) != wlan.topology().num_aps()) {
    throw std::invalid_argument("initial assignment size != AP count");
  }
  if (!oracle) {
    const CachedOracle cache(wlan, assoc);
    return allocate(wlan, assoc, std::move(initial), cache);
  }
  return run_algorithm2(plan_, config_, assoc, std::move(initial), oracle,
                        nullptr);
}

AllocationResult ChannelAllocator::allocate(const sim::Wlan& wlan,
                                            const net::Association& assoc,
                                            net::ChannelAssignment initial,
                                            const CachedOracle& oracle) const {
  if (static_cast<int>(initial.size()) != wlan.topology().num_aps()) {
    throw std::invalid_argument("initial assignment size != AP count");
  }
  if (oracle.association() != assoc) {
    throw std::invalid_argument("oracle bound to a different association");
  }
  return run_algorithm2(plan_, config_, assoc, std::move(initial), {},
                        &oracle);
}

double isolated_upper_bound_bps(const sim::Wlan& wlan,
                                const net::Association& assoc,
                                mac::TrafficType traffic) {
  double total = 0.0;
  for (int ap = 0; ap < wlan.topology().num_aps(); ++ap) {
    total += wlan.isolated_best_bps(ap, wlan.clients_of(assoc, ap), traffic);
  }
  return total;
}

}  // namespace acorn::core
