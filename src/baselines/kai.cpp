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
  std::vector<std::size_t> wide(k);
  for (std::size_t c = 0; c < k; ++c) {
    wide[c] = colors[c].is_bonded() ? 1 : 0;
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

  // The search walks the assignments of APs 1..n-1 as an odometer, AP 1
  // fastest, and scores AP 0's k colors c0 under each as one row of k
  // totals. Per AP it keeps its color index and, as `count` and
  // `units`, its contenders and share units among its neighbours other
  // than AP 0, moved by exact integer deltas. At c0 an AP's full count
  // and units are those plus count_row[c0] and units_row[c0]: rows c of
  // the conflict and units tables for a neighbour of AP 0 on color c,
  // zeros for any other AP, and for AP 0 itself (count and units 0) its
  // sums over its own neighbours, one per c0.
  struct ApState {
    std::size_t color = 0;
    int count = 0;
    int units = 0;
    bool hears_ap0 = false;
    const int* count_row = nullptr;
    const int* units_row = nullptr;
  };
  const std::vector<int> zeros(k, 0);
  std::vector<int> count0(k, 0);
  std::vector<int> units0(k, 0);
  std::vector<ApState> aps(n);
  for (std::size_t x = 0; x < n; ++x) {
    ApState& s = aps[x];
    for (const int b : neighbors[x]) {
      if (x == 0) {
        for (std::size_t c0 = 0; c0 < k; ++c0) {
          count0[c0] += conflict[c0 * k];
          units0[c0] += units[c0 * k];
        }
      } else if (b == 0) {
        s.hears_ap0 = true;
      } else {
        s.count += conflict[0];
        s.units += units[0];
      }
    }
    s.count_row = x == 0 ? count0.data()
                  : s.hears_ap0 ? conflict.data()
                                : zeros.data();
    s.units_row = x == 0 ? units0.data()
                  : s.hears_ap0 ? units.data()
                                : zeros.data();
  }
  net::ChannelAssignment current(n, colors.front());
  // AP b >= 1 moves to color `to`.
  const auto move = [&](std::size_t b, std::size_t to) {
    ApState& moved = aps[b];
    const std::size_t from = moved.color;
    moved.color = to;
    current[b] = colors[to];
    for (const int y : neighbors[b]) {
      if (y == 0) {
        for (std::size_t c0 = 0; c0 < k; ++c0) {
          count0[c0] += conflict[c0 * k + to] - conflict[c0 * k + from];
          units0[c0] += units[c0 * k + to] - units[c0 * k + from];
        }
        continue;
      }
      ApState& s = aps[static_cast<std::size_t>(y)];
      s.count += conflict[s.color * k + to] - conflict[s.color * k + from];
      s.units += units[s.color * k + to] - units[s.color * k + from];
      moved.count += conflict[to * k + s.color] - conflict[from * k + s.color];
      moved.units += units[to * k + s.color] - units[from * k + s.color];
    }
    if (moved.hears_ap0) {
      moved.count_row = conflict.data() + to * k;
      moved.units_row = units.data() + to * k;
    }
  };

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
    std::size_t half = 0;           // table cells: entries per width
    std::vector<double> table;      // [wide][units], NaN until filled
    std::vector<int> out_of_range;  // hidden cells: the APs it can hear
    bool packed = false;            // hidden cells: the key fits
    std::unordered_map<std::uint64_t, double> seen;
    // Where the row's value at c0 lives: t[off[c0]] in a table, else
    // *slot[c0], in `seen` or, for a key that does not fit, `unkeyed`.
    double* t = nullptr;
    const int* off = nullptr;
    std::vector<double*> slot;
    std::vector<double> unkeyed;
    double& at(std::size_t c0) { return hidden ? *slot[c0] : t[off[c0]]; }
  };
  const double unfilled = std::numeric_limits<double>::quiet_NaN();
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
      cell.slot.resize(k);
      cell.unkeyed.resize(k);
    } else {
      cell.half = unit_max * degree + 1;
      cell.table.assign(2 * cell.half, unfilled);
    }
    cells.push_back(std::move(cell));
  }
  // A hidden cell's packed key at c0.
  const auto key = [&](const Cell& cell, std::size_t c0) {
    const auto color = [&](std::size_t x) {
      return x == 0 ? c0 : aps[x].color;
    };
    const std::size_t h = static_cast<std::size_t>(cell.ap);
    const std::size_t own = color(h);
    std::uint64_t packed =
        own * (unit_max * neighbors[h].size() + 1) +
        static_cast<std::uint64_t>(aps[h].units + aps[h].units_row[c0]);
    for (const int b : cell.out_of_range) {
      const std::size_t nb = static_cast<std::size_t>(b);
      const std::size_t cb = color(nb);
      const std::uint64_t span = neighbors[nb].size() + 1;
      packed = packed * (1 + k * span) +
               (conflict[own * k + cb] == 0
                    ? 0
                    : 1 + cb * span +
                          static_cast<std::uint64_t>(
                              aps[nb].count + aps[nb].count_row[c0]));
    }
    return packed;
  };

  // Each row sums its cells in ascending AP order from 0.0, c0 by c0,
  // so every total is a plain odometer's, and a strict `>` scan in c0
  // order keeps its first argmax. A value not filled yet reads NaN; a
  // row that sums to NaN is scored again, c0 by c0, filling each cell
  // through oracle.cell_value where it is still NaN: the calls a plain
  // odometer makes, in its order.
  std::vector<int> off0(k);
  std::vector<double> row(k);
  std::vector<std::size_t> best_colors;
  KaiResult best;
  best.exact = true;
  best.total_bps = -1.0;
  while (true) {
    std::fill(row.begin(), row.end(), 0.0);
    for (Cell& cell : cells) {
      const ApState& s = aps[static_cast<std::size_t>(cell.ap)];
      if (cell.hidden) {
        for (std::size_t c0 = 0; c0 < k; ++c0) {
          cell.slot[c0] =
              cell.packed
                  ? &cell.seen.try_emplace(key(cell, c0), unfilled)
                         .first->second
                  : &(cell.unkeyed[c0] = unfilled);
          row[c0] += *cell.slot[c0];
        }
        continue;
      }
      if (cell.ap == 0) {
        for (std::size_t c0 = 0; c0 < k; ++c0) {
          off0[c0] = static_cast<int>(wide[c0] * cell.half) + units0[c0];
        }
        cell.t = cell.table.data();
        cell.off = off0.data();
      } else {
        cell.t = cell.table.data() + wide[s.color] * cell.half +
                 static_cast<std::size_t>(s.units);
        cell.off = s.units_row;
      }
      for (std::size_t c0 = 0; c0 < k; ++c0) row[c0] += cell.t[cell.off[c0]];
    }
    bool missing = false;
    for (std::size_t c0 = 0; c0 < k; ++c0) missing |= std::isnan(row[c0]);
    if (missing) {
      for (std::size_t c0 = 0; c0 < k; ++c0) {
        current[0] = colors[c0];
        double total = 0.0;
        for (Cell& cell : cells) {
          double& value = cell.at(c0);
          if (std::isnan(value)) value = oracle.cell_value(current, cell.ap);
          total += value;
        }
        row[c0] = total;
      }
    }
    for (std::size_t c0 = 0; c0 < k; ++c0) {
      if (row[c0] > best.total_bps) {
        best.total_bps = row[c0];
        best_colors.resize(n);
        for (std::size_t x = 1; x < n; ++x) best_colors[x] = aps[x].color;
        best_colors[0] = c0;
      }
    }
    best.evaluations += static_cast<long long>(k);
    std::size_t pos = 1;
    for (; pos < n; ++pos) {
      const std::size_t next = (aps[pos].color + 1) % k;
      move(pos, next);
      if (next != 0) break;
    }
    if (pos == n) break;
  }
  for (const std::size_t c : best_colors) best.assignment.push_back(colors[c]);
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
