#include "baselines/kai.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace acorn::baselines {

namespace {

double search_space(const std::vector<net::Channel>& colors, int n_aps) {
  return std::pow(static_cast<double>(colors.size()), n_aps);
}

KaiResult bounded_search(const core::CachedOracle& oracle,
                         const std::vector<net::Channel>& colors,
                         int n_aps, util::Rng& rng,
                         const KaiConfig& config) {
  if (config.restarts < 1 || config.max_search_evaluations < 1) {
    throw std::invalid_argument(
        "kai: bounded search needs restarts and an evaluation budget");
  }
  const long long budget = config.max_search_evaluations;
  KaiResult best;
  best.total_bps = -1.0;
  std::vector<core::FlipCandidate> candidates;
  std::vector<double> scores;
  for (int restart = 0; restart < config.restarts; ++restart) {
    if (best.evaluations >= budget) break;
    net::ChannelAssignment current(static_cast<std::size_t>(n_aps),
                                   colors.front());
    for (int i = 0; i < n_aps; ++i) {
      current[static_cast<std::size_t>(i)] = colors[static_cast<
          std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(colors.size()) - 1))];
    }
    ++best.evaluations;
    double current_bps = oracle.total_bps(current);
    // Steepest ascent: score every single-AP flip in one batched scan,
    // commit the best strict improvement, repeat until a local optimum
    // or the evaluation budget runs out. The last scan is cut to the
    // budget's remainder, so the budget is never exceeded.
    bool improved = true;
    while (improved && best.evaluations < budget) {
      improved = false;
      candidates.clear();
      for (int ap = 0; ap < n_aps; ++ap) {
        for (const net::Channel& color : colors) {
          if (color == current[static_cast<std::size_t>(ap)]) continue;
          candidates.push_back({ap, color});
        }
      }
      const auto remaining =
          static_cast<std::size_t>(budget - best.evaluations);
      if (candidates.size() > remaining) candidates.resize(remaining);
      scores.assign(candidates.size(), 0.0);
      oracle.total_bps_batch(current, candidates, scores);
      best.evaluations += static_cast<long long>(candidates.size());
      std::size_t winner = candidates.size();
      double winner_bps = current_bps;
      for (std::size_t j = 0; j < candidates.size(); ++j) {
        if (scores[j] > winner_bps) {
          winner_bps = scores[j];
          winner = j;
        }
      }
      if (winner < candidates.size()) {
        current[static_cast<std::size_t>(candidates[winner].ap)] =
            candidates[winner].channel;
        current_bps = winner_bps;
        improved = true;
      }
    }
    if (current_bps > best.total_bps) {
      best.total_bps = current_bps;
      best.assignment = current;
    }
  }
  return best;
}

}  // namespace

KaiResult kai_exact_allocation(const core::CachedOracle& oracle,
                               const net::ChannelPlan& plan,
                               long long max_evaluations) {
  const int n_aps = oracle.snapshot().num_aps();
  if (n_aps < 1) throw std::invalid_argument("kai: empty network");
  const std::vector<net::Channel> colors = plan.all_channels();
  if (search_space(colors, n_aps) > static_cast<double>(max_evaluations)) {
    throw std::invalid_argument("kai: search space too large for brute force");
  }
  // An odometer over APs 1..n-1 (AP 1 fastest). Each of its settings is
  // one batched scan whose flips move AP 0 through every color against
  // a base holding AP 0 at colors[0] (that flip is the no-op one and
  // scores the base itself), so the assignments are scored, and ties go
  // to the first, in the order of a full odometer with AP 0 fastest.
  std::vector<core::FlipCandidate> flips;
  for (const net::Channel& color : colors) flips.push_back({0, color});
  std::vector<double> scores(colors.size());
  net::ChannelAssignment base(static_cast<std::size_t>(n_aps),
                              colors.front());
  std::vector<std::size_t> idx(static_cast<std::size_t>(n_aps), 0);
  KaiResult best;
  best.exact = true;
  best.total_bps = -1.0;
  while (true) {
    for (int i = 1; i < n_aps; ++i) {
      base[static_cast<std::size_t>(i)] =
          colors[idx[static_cast<std::size_t>(i)]];
    }
    oracle.total_bps_batch(base, flips, scores);
    best.evaluations += static_cast<long long>(flips.size());
    for (std::size_t c = 0; c < colors.size(); ++c) {
      if (scores[c] > best.total_bps) {
        best.total_bps = scores[c];
        best.assignment = base;
        best.assignment[0] = colors[c];
      }
    }
    int pos = 1;
    while (pos < n_aps) {
      if (++idx[static_cast<std::size_t>(pos)] < colors.size()) break;
      idx[static_cast<std::size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == n_aps) break;
  }
  return best;
}

KaiResult kai_optimal_allocation(const core::CachedOracle& oracle,
                                 const net::ChannelPlan& plan,
                                 util::Rng& rng, const KaiConfig& config) {
  const int n_aps = oracle.snapshot().num_aps();
  if (n_aps < 1) throw std::invalid_argument("kai: empty network");
  const std::vector<net::Channel> colors = plan.all_channels();
  if (search_space(colors, n_aps) <=
      static_cast<double>(config.max_exact_evaluations)) {
    return kai_exact_allocation(oracle, plan, config.max_exact_evaluations);
  }
  return bounded_search(oracle, colors, n_aps, rng, config);
}

KaiResult kai_optimal_allocation(const sim::Wlan& wlan,
                                 const net::Association& assoc,
                                 const net::ChannelPlan& plan,
                                 util::Rng& rng, mac::TrafficType traffic,
                                 const KaiConfig& config) {
  const core::CachedOracle oracle(wlan, assoc, traffic);
  return kai_optimal_allocation(oracle, plan, rng, config);
}

}  // namespace acorn::baselines
