#include "baselines/kai.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>
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
  const sim::NetSnapshot& snap = oracle.snapshot();
  const int n_aps = snap.num_aps();
  if (n_aps < 1) throw std::invalid_argument("kai: empty network");
  const std::vector<net::Channel> colors = plan.all_channels();
  if (search_space(colors, n_aps) > static_cast<double>(max_evaluations)) {
    throw std::invalid_argument("kai: search space too large for brute force");
  }
  const net::InterferenceGraph& graph = snap.graph();
  const bool sinr = snap.wlan().config().sinr_interference;
  const bool weighted = snap.wlan().config().weighted_contention;
  const std::size_t n = static_cast<std::size_t>(n_aps);
  const std::size_t k = colors.size();
  // For colors c and d at [c * k + d]: whether they overlap, and the
  // contention units a cell on c takes from a neighbour on d — the
  // conflict, or under weighted contention twice the overlap fraction
  // (0, 1 or 2). A cell's summed units fix its medium share exactly:
  // 1/(units + 1), or 1/(1 + units/2) weighted, whose ascending-b
  // partial sums of 0, 0.5 and 1 are all exact in a double.
  std::vector<int> conflict(k * k);
  std::vector<int> units(k * k);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t d = 0; d < k; ++d) {
      conflict[c * k + d] = colors[c].conflicts(colors[d]) ? 1 : 0;
      units[c * k + d] =
          weighted ? static_cast<int>(2.0 * colors[c].overlap_fraction(
                                                colors[d]))
                   : conflict[c * k + d];
    }
  }
  std::vector<std::vector<int>> neighbors(n);
  for (int ap = 0; ap < n_aps; ++ap) {
    neighbors[static_cast<std::size_t>(ap)] = graph.neighbors(ap);
  }

  // The cells with clients, ascending: total_bps's summation order. A
  // cell that cannot see a hidden interferer (SINR off, or every other
  // AP in carrier-sense range) is worth the same under every assignment
  // giving it the same width and contention units, so it reads a table
  // filled on first use. Any other cell is worth the same wherever its
  // memo key is: its color and units, and the color and contender count
  // of every AP out of its range that overlaps it. It keeps its values
  // by that key, packed into one integer (mixed radix, one digit per
  // input), unless the key does not fit in 64 bits.
  struct Cell {
    int ap = 0;
    bool hidden = false;
    std::vector<double> table;      // [wide][units], NaN until filled
    std::vector<int> out_of_range;  // hidden cells: the APs it can hear
    bool packed = false;            // hidden cells: the key fits
    std::unordered_map<std::uint64_t, double> seen;
  };
  const std::size_t unit_max = weighted ? 2 : 1;
  std::vector<Cell> cells;
  for (int ap = 0; ap < n_aps; ++ap) {
    if (snap.cell_clients(ap).empty()) continue;
    const std::size_t degree = neighbors[static_cast<std::size_t>(ap)].size();
    Cell cell;
    cell.ap = ap;
    cell.hidden = sinr && degree + 1 < n;
    if (cell.hidden) {
      // Digits: color, units, then per AP b out of range 0 (no overlap)
      // or 1 + color * (deg_b + 1) + contender count.
      std::uint64_t radix = k * (unit_max * degree + 1);
      cell.packed = true;
      for (int b = 0; b < n_aps; ++b) {
        if (b == ap || graph.adjacent(ap, b)) continue;
        cell.out_of_range.push_back(b);
        const std::uint64_t digit =
            1 + k * (neighbors[static_cast<std::size_t>(b)].size() + 1);
        cell.packed = cell.packed && radix <= UINT64_MAX / digit;
        radix *= digit;
      }
    } else {
      cell.table.assign(2 * (unit_max * degree + 1),
                        std::numeric_limits<double>::quiet_NaN());
    }
    cells.push_back(std::move(cell));
  }

  // The odometer, AP 0 fastest: assignments are scored, and ties go to
  // the first, in lexicographic order. Per AP it counts, under the
  // current assignment, its contenders (the activity 1/(count + 1) it
  // interferes with) and the units of its share.
  std::vector<std::size_t> idx(n, 0);
  net::ChannelAssignment current(n, colors.front());
  std::vector<int> count(n, 0);
  std::vector<int> share_units(n, 0);
  KaiResult best;
  best.exact = true;
  best.total_bps = -1.0;
  while (true) {
    for (std::size_t x = 0; x < n; ++x) {
      const std::size_t own = idx[x] * k;
      count[x] = 0;
      share_units[x] = 0;
      for (const int b : neighbors[x]) {
        count[x] += conflict[own + idx[static_cast<std::size_t>(b)]];
        share_units[x] += units[own + idx[static_cast<std::size_t>(b)]];
      }
    }
    double total = 0.0;
    for (Cell& cell : cells) {
      const std::size_t ap = static_cast<std::size_t>(cell.ap);
      if (cell.hidden) {
        if (!cell.packed) {
          total += oracle.cell_value(current, cell.ap);
          continue;
        }
        const std::size_t own = idx[ap];
        std::uint64_t key = own * (unit_max * neighbors[ap].size() + 1) +
                            static_cast<std::uint64_t>(share_units[ap]);
        for (const int b : cell.out_of_range) {
          const std::size_t nb = static_cast<std::size_t>(b);
          const std::uint64_t span = neighbors[nb].size() + 1;
          key = key * (1 + k * span) +
                (conflict[own * k + idx[nb]] == 0
                     ? 0
                     : 1 + idx[nb] * span +
                           static_cast<std::uint64_t>(count[nb]));
        }
        auto seen = cell.seen.find(key);
        if (seen == cell.seen.end()) {
          seen = cell.seen.emplace(key, oracle.cell_value(current, cell.ap))
                     .first;
        }
        total += seen->second;
        continue;
      }
      const std::size_t wide = current[ap].is_bonded() ? 1 : 0;
      double& entry = cell.table[wide * cell.table.size() / 2 +
                                 static_cast<std::size_t>(share_units[ap])];
      if (std::isnan(entry)) entry = oracle.cell_value(current, cell.ap);
      total += entry;
    }
    ++best.evaluations;
    if (total > best.total_bps) {
      best.total_bps = total;
      best.assignment = current;
    }
    int pos = 0;
    while (pos < n_aps) {
      if (++idx[static_cast<std::size_t>(pos)] < k) break;
      idx[static_cast<std::size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == n_aps) break;
    for (int a = 0; a <= pos; ++a) {
      current[static_cast<std::size_t>(a)] =
          colors[idx[static_cast<std::size_t>(a)]];
    }
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
