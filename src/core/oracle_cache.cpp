#include "core/oracle_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace acorn::core {

namespace {

// A Channel packed into one word: width tag in the high half, primary
// (lowest occupied basic index) in the low half.
std::uint64_t channel_code(const net::Channel& c) {
  return (static_cast<std::uint64_t>(c.width()) << 32) |
         static_cast<std::uint32_t>(c.primary());
}

std::uint64_t double_bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// AP `ap`'s contender count under `assignment`: its graph neighbours
// whose channel overlaps its own.
int contender_count(const net::InterferenceGraph& graph,
                    const net::ChannelAssignment& assignment, int ap) {
  const net::Channel& own = assignment[static_cast<std::size_t>(ap)];
  int count = 0;
  for (int b = 0; b < graph.num_aps(); ++b) {
    if (b != ap && graph.adjacent(ap, b) &&
        own.conflicts(assignment[static_cast<std::size_t>(b)])) {
      ++count;
    }
  }
  return count;
}

// The exact expression NetSnapshot::unweighted_shares evaluates.
double unweighted_share(int count) {
  return 1.0 / (static_cast<double>(count) + 1.0);
}

// The channel AP `b` holds under `base` with AP `flip_ap` moved to
// `flip` (flip_ap < 0 leaves the base as is).
const net::Channel& flipped(const net::ChannelAssignment& base, int b,
                            int flip_ap, const net::Channel& flip) {
  return b == flip_ap ? flip : base[static_cast<std::size_t>(b)];
}

// Weighted share of cell `x` under the flipped base — the exact ordered
// sum NetSnapshot::weighted_share runs on the flipped assignment
// (overlap terms must NOT be delta-patched: only the full ascending-b
// accumulation reproduces its rounding).
double weighted_share_flip(const net::InterferenceGraph& graph,
                           const net::ChannelAssignment& base, int x,
                           int flip_ap, const net::Channel& flip) {
  const net::Channel& own = flipped(base, x, flip_ap, flip);
  double load = 1.0;
  for (int b = 0; b < graph.num_aps(); ++b) {
    if (b == x || !graph.adjacent(x, b)) continue;
    load += own.overlap_fraction(flipped(base, b, flip_ap, flip));
  }
  return 1.0 / load;
}

// Cell `x`'s memo key under the flipped base, written into `out`: the
// one place a key is built, for base cells (flip_ap < 0) and candidate
// lanes alike. Words: channel code, bit pattern of the medium share,
// then with SINR on, per hidden interferer (every AP overlapping x's
// channel outside its carrier-sense range, mirroring
// NetSnapshot::hidden_mw's contribution terms; APs with zero overlap
// contribute exactly nothing and are omitted): id, channel code,
// activity bits. With SINR off the kernel reads x's channel only
// through its width (the SNR column and the rate table), so the first
// word is the width tag alone and every channel of one width shares
// x's entries.
void flip_key_into(std::vector<std::uint64_t>& out,
                   const net::InterferenceGraph& graph, bool sinr,
                   const net::ChannelAssignment& base, int x, int flip_ap,
                   const net::Channel& flip, double share,
                   const double* activity) {
  const net::Channel& own = flipped(base, x, flip_ap, flip);
  out.clear();
  out.push_back(sinr ? channel_code(own)
                     : static_cast<std::uint64_t>(own.width()) << 32);
  out.push_back(double_bits(share));
  if (!sinr) return;
  for (int other = 0; other < graph.num_aps(); ++other) {
    if (other == x || graph.adjacent(x, other)) continue;
    const net::Channel& other_ch = flipped(base, other, flip_ap, flip);
    if (!other_ch.conflicts(own)) continue;
    out.push_back(static_cast<std::uint64_t>(other));
    out.push_back(channel_code(other_ch));
    out.push_back(double_bits(activity[static_cast<std::size_t>(other)]));
  }
}

// How one candidate sees one touched cell.
struct Touch {
  int cell_idx;
  int kind;  // 0 = full lane, 1 = share-only rescale, 2 = memoized
  int slot;
};

// One base cell's lanes within a total_bps_batch call.
struct CellWork {
  std::vector<sim::CellLane> full_lanes;
  std::vector<std::uint64_t> key_words;  // full lanes' memo keys, end to end
  std::vector<std::size_t> key_end;      // per full lane: its key's end
  std::vector<double> full_vals;
  std::vector<double> memo_vals;
  std::vector<double> rescale_shares;
  std::vector<double> rescale_vals;

  std::span<const std::uint64_t> key(std::size_t lane) const {
    const std::size_t begin = lane == 0 ? 0 : key_end[lane - 1];
    return std::span<const std::uint64_t>(key_words)
        .subspan(begin, key_end[lane] - begin);
  }
  void clear() {
    full_lanes.clear();
    key_words.clear();
    key_end.clear();
    memo_vals.clear();
    rescale_shares.clear();
  }
};

// The scoring calls' scratch. Thread-local rather than per oracle, so
// a fleet of oracles shares one copy per thread, and reused across
// calls: vectors only grow, so a warm call allocates nothing (the same
// idea as the cell kernel's BatchScratch in sim/netkernel_batch.cpp).
struct ScanScratch {
  std::vector<std::uint64_t> key;       // one memo key under construction
  // Per-candidate activity vectors (total_bps_batch), or the one that
  // cell_value fills.
  std::vector<double> act;
  std::vector<Touch> touches;           // candidate by candidate
  std::vector<std::size_t> touch_end;   // per candidate: its touches' end
  std::vector<int> ylist;  // activity-changed APs (≠ a) of one candidate
  std::vector<CellWork> cells;          // per base cell; only grows
};

ScanScratch& scan_scratch() {
  static thread_local ScanScratch s;
  return s;
}

}  // namespace

std::size_t CachedOracle::CellKeyHash::operator()(KeyView k) const {
  // FNV-1a over the key words.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t w : k) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

bool CachedOracle::CellKeyEq::operator()(KeyView a, KeyView b) const {
  return std::ranges::equal(a, b);
}

CachedOracle::CachedOracle(const sim::Wlan& wlan, net::Association assoc,
                           mac::TrafficType traffic,
                           std::vector<double> client_weights)
    : wlan_(wlan),
      assoc_(std::move(assoc)),
      traffic_(traffic),
      weights_(std::move(client_weights)),
      snap_(wlan, assoc_),
      memo_(static_cast<std::size_t>(wlan.topology().num_aps())),
      scan_memo_(static_cast<std::size_t>(wlan.topology().num_aps())) {
  if (!weights_.empty() &&
      static_cast<int>(weights_.size()) != wlan.topology().num_clients()) {
    throw std::invalid_argument("client weight vector size != client count");
  }
}

double CachedOracle::total_bps(const net::ChannelAssignment& assignment) const {
  if (static_cast<int>(assignment.size()) != snap_.num_aps()) {
    throw std::invalid_argument("assignment size != AP count");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  return analyze(assignment).total;
}

const CachedOracle::BatchBase& CachedOracle::analyze(
    const net::ChannelAssignment& base) const {
  BatchBase& bb = base_;
  if (bb.built && bb.assignment == base) {
    ++stats_.share_hits;
    return bb;
  }
  const int n_aps = snap_.num_aps();
  const net::InterferenceGraph& graph = snap_.graph();
  // `built` is set last, so a build cut short by an exception leaves a
  // base no call can match.
  bb.built = false;
  bb.assignment = base;
  bb.conflict_count.resize(static_cast<std::size_t>(n_aps));
  bb.activity.resize(static_cast<std::size_t>(n_aps));
  for (int ap = 0; ap < n_aps; ++ap) {
    const int count = contender_count(graph, base, ap);
    bb.conflict_count[static_cast<std::size_t>(ap)] = count;
    bb.activity[static_cast<std::size_t>(ap)] = unweighted_share(count);
  }
  ++stats_.share_evals;
  bb.cells.clear();
  bb.cell_share.clear();
  bb.cell_value.clear();
  bb.cell_cache.clear();
  bb.total = 0.0;
  const bool weighted = wlan_.config().weighted_contention;
  const net::Channel no_flip = net::Channel::basic(0);
  for (int ap = 0; ap < n_aps; ++ap) {
    if (snap_.cell_clients(ap).empty()) continue;  // goodput is exactly 0
    const double share =
        weighted ? weighted_share_flip(graph, base, ap, -1, no_flip)
                 : bb.activity[static_cast<std::size_t>(ap)];
    const sim::CellScanCache* cache = nullptr;
    const double value =
        score_cell(base, ap, share, bb.activity.data(), &cache);
    bb.cells.push_back(ap);
    bb.cell_share.push_back(share);
    bb.cell_value.push_back(value);
    bb.cell_cache.push_back(cache);
    bb.total += value;
  }
  bb.built = true;
  return bb;
}

double CachedOracle::score_cell(const net::ChannelAssignment& assignment,
                                int ap, double share,
                                const double* activity,
                                const sim::CellScanCache** cache) const {
  const net::Channel no_flip = net::Channel::basic(0);
  flip_key_into(build_key_, snap_.graph(), wlan_.config().sinr_interference,
                assignment, ap, -1, no_flip, share, activity);
  auto& memo = memo_[static_cast<std::size_t>(ap)];
  const auto hit = memo.find(KeyView(build_key_));
  if (hit != memo.end()) {
    ++stats_.cell_hits;
    if (cache == nullptr) return hit->second;
  }
  // The share-independent context: the memo key without its share word.
  // A context any earlier call scored is rescaled from its scan cache,
  // which is bit-identical to a full evaluation.
  build_ctx_.assign(build_key_.begin(), build_key_.end());
  build_ctx_.erase(build_ctx_.begin() + 1);
  auto& scans = scan_memo_[static_cast<std::size_t>(ap)];
  auto scan = scans.find(KeyView(build_ctx_));
  double value = 0.0;
  if (scan == scans.end()) {
    sim::CellScanCache fresh;
    const sim::CellLane lane{share, activity, -1, no_flip};
    snap_.evaluate_cells_batch(ap, assignment,
                               std::span<const sim::CellLane>(&lane, 1),
                               traffic_, weights_,
                               std::span<double>(&value, 1), &fresh);
    scan = scans.emplace(CellKey(build_ctx_.begin(), build_ctx_.end()),
                         std::move(fresh))
               .first;
    ++stats_.cell_evals;
  } else if (hit == memo.end()) {
    snap_.rescale_cell_shares(ap, std::span<const double>(&share, 1),
                              scan->second, traffic_, weights_,
                              std::span<double>(&value, 1));
  }
  if (hit != memo.end()) {
    value = hit->second;
  } else {
    // Seed the persistent cell memo: candidate lanes and later calls
    // whose cell key matches replay this value instead of re-running the
    // kernel.
    memo.emplace(CellKey(build_key_.begin(), build_key_.end()), value);
  }
  if (cache != nullptr) *cache = &scan->second;
  return value;
}

double CachedOracle::cell_value(const net::ChannelAssignment& assignment,
                                int ap) const {
  const int n_aps = snap_.num_aps();
  if (static_cast<int>(assignment.size()) != n_aps) {
    throw std::invalid_argument("assignment size != AP count");
  }
  if (ap < 0 || ap >= n_aps) {
    throw std::invalid_argument("cell AP out of range");
  }
  if (snap_.cell_clients(ap).empty()) return 0.0;  // as total_bps skips it
  const net::InterferenceGraph& graph = snap_.graph();
  const bool sinr = wlan_.config().sinr_interference;
  const bool weighted = wlan_.config().weighted_contention;
  // The unweighted shares the cell reads: its own when that is its
  // medium share, and with SINR on those of its hidden interferers (the
  // APs outside its carrier-sense range whose channel overlaps its own).
  // Every other entry reaches the key and the kernel, if at all, only
  // multiplied by a zero overlap, so it may stay 0.
  const net::Channel& own = assignment[static_cast<std::size_t>(ap)];
  std::vector<double>& act = scan_scratch().act;
  act.assign(static_cast<std::size_t>(n_aps), 0.0);
  for (int b = 0; b < n_aps; ++b) {
    if (b == ap ? !weighted
                : sinr && !graph.adjacent(ap, b) &&
                      assignment[static_cast<std::size_t>(b)].conflicts(own)) {
      act[static_cast<std::size_t>(b)] =
          unweighted_share(contender_count(graph, assignment, b));
    }
  }
  const double share =
      weighted ? weighted_share_flip(graph, assignment, ap, -1,
                                     net::Channel::basic(0))
               : act[static_cast<std::size_t>(ap)];
  const std::lock_guard<std::mutex> lock(mutex_);
  return score_cell(assignment, ap, share, act.data(), nullptr);
}

void CachedOracle::total_bps_batch(const net::ChannelAssignment& base,
                                   std::span<const FlipCandidate> candidates,
                                   std::span<double> out) const {
  const int n_aps = snap_.num_aps();
  if (static_cast<int>(base.size()) != n_aps) {
    throw std::invalid_argument("assignment size != AP count");
  }
  if (out.size() != candidates.size()) {
    throw std::invalid_argument("out size != candidate count");
  }
  if (candidates.empty()) return;
  for (const FlipCandidate& cand : candidates) {
    if (cand.ap < 0 || cand.ap >= n_aps) {
      throw std::invalid_argument("candidate AP out of range");
    }
  }
  const net::InterferenceGraph& graph = snap_.graph();
  const bool sinr = wlan_.config().sinr_interference;
  const bool weighted = wlan_.config().weighted_contention;
  const std::size_t n = static_cast<std::size_t>(n_aps);
  const std::size_t n_cands = candidates.size();

  const std::lock_guard<std::mutex> lock(mutex_);
  const BatchBase& bb = analyze(base);
  ScanScratch& s = scan_scratch();
  const std::size_t n_cells = bb.cells.size();
  ++stats_.batch_calls;
  stats_.batch_candidates += n_cands;

  // Per-candidate incremental state and per-cell lane lists.
  s.act.resize(n_cands * n);
  s.touches.clear();
  s.touch_end.clear();
  if (s.cells.size() < n_cells) s.cells.resize(n_cells);
  for (std::size_t idx = 0; idx < n_cells; ++idx) s.cells[idx].clear();

  // Route one needed full evaluation: persistent memo hit first (values
  // computed for any earlier base or batch — bit-identical by the kernel
  // equivalence contract), then an in-batch lane with the same key, else
  // a fresh lane.
  const auto full_lane_slot = [&](std::size_t idx, int x, int a,
                                  const net::Channel& ch_new, double share,
                                  const double* act_j) -> Touch {
    flip_key_into(s.key, graph, sinr, bb.assignment, x, a, ch_new, share,
                  act_j);
    const KeyView key(s.key);
    CellWork& w = s.cells[idx];
    const auto& memo = memo_[static_cast<std::size_t>(x)];
    const auto it = memo.find(key);
    if (it != memo.end()) {
      ++stats_.cell_hits;
      w.memo_vals.push_back(it->second);
      return Touch{static_cast<int>(idx), 2,
                   static_cast<int>(w.memo_vals.size()) - 1};
    }
    for (std::size_t k = 0; k < w.full_lanes.size(); ++k) {
      if (std::ranges::equal(w.key(k), key)) {
        return Touch{static_cast<int>(idx), 0, static_cast<int>(k)};
      }
    }
    w.key_words.insert(w.key_words.end(), key.begin(), key.end());
    w.key_end.push_back(w.key_words.size());
    w.full_lanes.push_back(sim::CellLane{share, act_j, a, ch_new});
    return Touch{static_cast<int>(idx), 0,
                 static_cast<int>(w.full_lanes.size()) - 1};
  };

  for (std::size_t j = 0; j < n_cands; ++j) {
    const int a = candidates[j].ap;
    const net::Channel ch_new = candidates[j].channel;
    const net::Channel ch_old = bb.assignment[static_cast<std::size_t>(a)];
    if (ch_new == ch_old) {
      out[j] = bb.total;
      s.touch_end.push_back(s.touches.size());
      continue;
    }
    // Incremental activity shares: integer contender-count deltas (only
    // `a` and its graph neighbors can change), then the exact
    // 1/(count+1) expression — bit-identical to a full recount.
    double* act_j = s.act.data() + j * n;
    for (int x = 0; x < n_aps; ++x) {
      int count;
      if (x == a) {
        count = 0;
        for (int b = 0; b < n_aps; ++b) {
          if (b != a && graph.adjacent(a, b) &&
              ch_new.conflicts(bb.assignment[static_cast<std::size_t>(b)])) {
            ++count;
          }
        }
      } else {
        count = bb.conflict_count[static_cast<std::size_t>(x)];
        if (graph.adjacent(x, a)) {
          const net::Channel& ch_x =
              bb.assignment[static_cast<std::size_t>(x)];
          count += static_cast<int>(ch_x.conflicts(ch_new)) -
                   static_cast<int>(ch_x.conflicts(ch_old));
        }
      }
      act_j[static_cast<std::size_t>(x)] = unweighted_share(count);
    }
    if (sinr) {
      s.ylist.clear();
      for (int b = 0; b < n_aps; ++b) {
        if (b != a &&
            double_bits(act_j[static_cast<std::size_t>(b)]) !=
                double_bits(bb.activity[static_cast<std::size_t>(b)])) {
          s.ylist.push_back(b);
        }
      }
    }
    // Classify every non-empty cell: untouched / share-only / full.
    for (std::size_t idx = 0; idx < n_cells; ++idx) {
      const int x = bb.cells[idx];
      if (x == a) {
        const double share_new =
            weighted ? weighted_share_flip(graph, bb.assignment, x, a, ch_new)
                     : act_j[static_cast<std::size_t>(a)];
        // Without SINR coupling the flipped cell's value depends on its
        // channel only through the width (rate table + SNR column), so
        // a same-width same-share flip replays the base value; any
        // other flip keys its lane by (width, share), which a lane or a
        // memo entry of another primary may already hold.
        if (!sinr && ch_new.width() == ch_old.width() &&
            double_bits(share_new) == double_bits(bb.cell_share[idx])) {
          continue;
        }
        s.touches.push_back(
            full_lane_slot(idx, x, a, ch_new, share_new, act_j));
        continue;
      }
      double share_new;
      if (weighted) {
        share_new = graph.adjacent(x, a)
                        ? weighted_share_flip(graph, bb.assignment, x, a,
                                              ch_new)
                        : bb.cell_share[idx];
      } else {
        share_new = act_j[static_cast<std::size_t>(x)];
      }
      const bool share_changed =
          double_bits(share_new) != double_bits(bb.cell_share[idx]);
      bool hidden_touched = false;
      if (sinr) {
        // Cell x's hidden-interference signature moves iff some changed
        // AP (the flipped one, or an activity-changed neighbor of it)
        // is a hidden interferer of x before or after the flip.
        const net::Channel& own = bb.assignment[static_cast<std::size_t>(x)];
        if (!graph.adjacent(x, a)) {
          const double cap_old = ch_old.overlap_fraction(own);
          const double cap_new = ch_new.overlap_fraction(own);
          if (cap_old > 0.0 || cap_new > 0.0) {
            // a's interference term into x is captured * act_a * rx /
            // subcarriers(width_a). When the flip leaves every factor
            // bit-identical — same captured fraction, same width (the
            // subcarrier divisor), same activity bits — the term and
            // hence the ordered hidden-power sum are unchanged, e.g. a
            // hopping between the two 20 MHz halves of x's 40 MHz
            // channel without changing its contender count.
            hidden_touched =
                double_bits(cap_old) != double_bits(cap_new) ||
                ch_old.width() != ch_new.width() ||
                double_bits(act_j[static_cast<std::size_t>(a)]) !=
                    double_bits(bb.activity[static_cast<std::size_t>(a)]);
          }
        }
        if (!hidden_touched) {
          for (const int b : s.ylist) {
            if (b == x || graph.adjacent(x, b)) continue;
            if (bb.assignment[static_cast<std::size_t>(b)].conflicts(own)) {
              hidden_touched = true;
              break;
            }
          }
        }
      }
      if (hidden_touched) {
        s.touches.push_back(
            full_lane_slot(idx, x, a, ch_new, share_new, act_j));
      } else if (share_changed) {
        std::vector<double>& shares = s.cells[idx].rescale_shares;
        s.touches.push_back(Touch{static_cast<int>(idx), 1,
                                  static_cast<int>(shares.size())});
        shares.push_back(share_new);
      }  // else untouched: the base value stands
    }
    s.touch_end.push_back(s.touches.size());
  }

  // Batched kernel passes, one call per touched cell.
  for (std::size_t idx = 0; idx < n_cells; ++idx) {
    const int x = bb.cells[idx];
    CellWork& w = s.cells[idx];
    if (!w.full_lanes.empty()) {
      stats_.batch_full_evals += w.full_lanes.size();
      w.full_vals.resize(w.full_lanes.size());
      snap_.evaluate_cells_batch(x, bb.assignment, w.full_lanes, traffic_,
                                 weights_, w.full_vals);
      // Publish into the persistent memo so later batches and bases
      // replay these values for free.
      auto& memo = memo_[static_cast<std::size_t>(x)];
      for (std::size_t k = 0; k < w.full_lanes.size(); ++k) {
        const KeyView key = w.key(k);
        memo.emplace(CellKey(key.begin(), key.end()), w.full_vals[k]);
      }
    }
    if (!w.rescale_shares.empty()) {
      w.rescale_vals.resize(w.rescale_shares.size());
      snap_.rescale_cell_shares(x, w.rescale_shares, *bb.cell_cache[idx],
                                traffic_, weights_, w.rescale_vals);
    }
  }

  // Assemble each candidate's total in ascending-cell order — the exact
  // summation order of the base total.
  std::size_t ti = 0;
  for (std::size_t j = 0; j < n_cands; ++j) {
    const std::size_t t_end = s.touch_end[j];
    if (candidates[j].channel ==
        bb.assignment[static_cast<std::size_t>(candidates[j].ap)]) {
      continue;  // no-op flip, already the base total
    }
    double total = 0.0;
    for (std::size_t idx = 0; idx < n_cells; ++idx) {
      double v = bb.cell_value[idx];
      if (ti < t_end &&
          s.touches[ti].cell_idx == static_cast<int>(idx)) {
        const Touch& t = s.touches[ti++];
        const CellWork& w = s.cells[idx];
        const auto slot = static_cast<std::size_t>(t.slot);
        v = t.kind == 0   ? w.full_vals[slot]
            : t.kind == 1 ? w.rescale_vals[slot]
                          : w.memo_vals[slot];
      }
      total += v;
    }
    out[j] = total;
  }
}

OracleCacheStats CachedOracle::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace acorn::core
