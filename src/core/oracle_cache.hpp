// Incremental, memoizing throughput oracle for the control plane.
//
// Algorithm 2 calls its oracle once per candidate (AP, color) move, and
// the exact oracle (`Wlan::evaluate`) rebuilds the interference graph and
// rescans every client for every cell on every call — even though both
// depend only on the association, which is invariant across an entire
// `allocate()` run. CachedOracle hoists that work out of the hot loop:
//
//  * a sim::NetSnapshot (interference graph, flat per-AP client lists,
//    precomputed SNRs / rx-power matrix / MCS threshold tables) is built
//    ONCE per (wlan, association) and reused across all candidate
//    evaluations;
//  * every score goes through one per-cell pipeline (memo key, cell
//    memo, scan-cache memo, kernel), run for every cell of a
//    per-assignment base analysis (activity shares, contender counts,
//    per-cell values) that single-AP flips of it perturb incrementally,
//    or for one cell alone (`cell_value`);
//  * per-cell results are memoized keyed by everything a cell's goodput
//    can depend on once the association is fixed — the cell's own
//    channel, its medium share, and (when `sinr_interference` is on) the
//    hidden-interferer signature (channel + activity of every co-channel
//    AP outside carrier-sense range). With `sinr_interference` off the
//    kernel reads the cell's channel only through its width, so the key
//    holds the width alone: a cell has at most two scan contexts and
//    one memo entry per (width, share). A single-AP channel flip therefore
//    only re-evaluates the flipped cell plus the cells whose contender
//    set or hidden-interference term actually changed; every other cell
//    is replayed or rescaled.
//
// Results are bit-identical to `Wlan::evaluate(...).total_goodput_bps`:
// cache misses run NetSnapshot::evaluate_cells_batch or
// rescale_cell_shares, both bit-identical to the per-cell kernel the
// evaluator uses (`NetSnapshot::evaluate_cell`, itself property-tested
// bit-identical to the test-only object-at-a-time cell evaluator in
// reference/sim/wlan_reference.hpp), and cache hits replay a previously
// computed double unchanged. `snapshot()` also serves the epoch's width
// fallback (core::decide_width), so one snapshot scores both. Every
// call holds one mutex while it reads or fills the memos and the base,
// so a CachedOracle may be shared between threads; its scoring then
// runs one call at a time.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/allocation.hpp"
#include "sim/netkernel.hpp"

namespace acorn::core {

struct OracleCacheStats {
  // Cells of bases and of cell_value calls evaluated in full; every
  // other such cell is rescaled from a memoized scan cache or replayed
  // from the cell memo.
  std::uint64_t cell_evals = 0;
  // Cell memo replays (bases, batch lanes and cell_value calls).
  std::uint64_t cell_hits = 0;
  std::uint64_t share_evals = 0;  // activity vectors: one per base build
  std::uint64_t share_hits = 0;   // calls that found their base built
  // Candidate flips (total_bps_batch).
  std::uint64_t batch_calls = 0;       // total_bps_batch invocations
  std::uint64_t batch_candidates = 0;  // flips scored through batches
  std::uint64_t batch_full_evals = 0;  // full cell-lane evaluations
};

/// One candidate move of Algorithm 2's scan: AP `ap` flipped to
/// `channel` with every other AP kept at the base assignment.
struct FlipCandidate {
  int ap = 0;
  net::Channel channel = net::Channel::basic(0);
};

/// Exact throughput oracle bound to one (wlan, association, traffic).
/// `wlan` must outlive the oracle; the association is copied.
///
/// An optional per-client weight vector turns the objective into a
/// load-weighted goodput sum: each client's goodput is scaled by its
/// offered-load fraction, so Algorithm 2 stops optimizing for clients
/// with nothing to send. Weights are fixed for the oracle's lifetime
/// (they join the association in the "rebuild on change" contract), so
/// the per-cell memo keys need no extra bits. With no weights the
/// result is bit-identical to the unweighted evaluator.
class CachedOracle {
 public:
  CachedOracle(const sim::Wlan& wlan, net::Association assoc,
               mac::TrafficType traffic = mac::TrafficType::kUdp,
               std::vector<double> client_weights = {});

  /// Aggregate network goodput under `assignment`; bit-identical to
  /// wlan.evaluate(assoc, assignment, traffic).total_goodput_bps when
  /// no client weights were supplied, otherwise the weighted sum
  /// described above. This is the total of the base analysis of
  /// `assignment`, the same one total_bps_batch reads.
  double total_bps(const net::ChannelAssignment& assignment) const;

  /// Batched scan: out[j] = total_bps(base with candidates[j] applied),
  /// bit-identical to one total_bps call per candidate, without
  /// materializing the flipped assignments. One shared per-base
  /// analysis (activity shares, integer conflict counts, per-cell
  /// values + share-independent per-client products) classifies every
  /// (cell, candidate) pair as untouched (replay the base cell value),
  /// share-only (batched rescale) or fully touched (batched
  /// re-evaluation through NetSnapshot::evaluate_cells_batch);
  /// per-candidate activity vectors are derived incrementally from the
  /// base conflict counts. A base cell whose share-independent context
  /// was scored before, under any earlier base, is rescaled from the
  /// memoized scan cache instead of re-running its rate/PER pipeline.
  /// Scratch is per thread (a per-oracle copy would grow with every
  /// WLAN of a fleet), so a repeated call on an unchanged base
  /// allocates nothing.
  void total_bps_batch(const net::ChannelAssignment& base,
                       std::span<const FlipCandidate> candidates,
                       std::span<double> out) const;

  /// The term total_bps(assignment) adds for cell `ap` (exactly 0.0 for
  /// a cell without clients), so the cells' terms summed in ascending
  /// AP order from 0.0 bit-equal total_bps(assignment). Scores that one
  /// cell through the memos and the kernel as a base analysis does,
  /// without building a base: the cost is the cell's own share, the
  /// activity of its hidden interferers and one memo lookup on a hit.
  double cell_value(const net::ChannelAssignment& assignment, int ap) const;

  const net::Association& association() const { return assoc_; }
  const net::InterferenceGraph& graph() const { return snap_.graph(); }
  const sim::NetSnapshot& snapshot() const { return snap_; }
  OracleCacheStats stats() const;

 private:
  // A cell's memo key: the invalidation signature described above,
  // packed into 64-bit words (channel code, or with SINR off the width
  // tag alone; bit pattern of the medium share; then per hidden
  // interferer: id, channel code, activity bits).
  // Every word but the share one is the cell's share-independent
  // context, which alone determines its sim::CellScanCache. The maps
  // below also look keys up by span, so keys are built in reusable
  // scratch instead of allocating one per lookup.
  using CellKey = std::vector<std::uint64_t>;
  using KeyView = std::span<const std::uint64_t>;
  struct CellKeyHash {
    using is_transparent = void;
    std::size_t operator()(KeyView k) const;
  };
  struct CellKeyEq {
    using is_transparent = void;
    bool operator()(KeyView a, KeyView b) const;
  };
  template <class Value>
  using KeyMap = std::unordered_map<CellKey, Value, CellKeyHash, CellKeyEq>;

  // The analysis of one base assignment: its total and everything a
  // single-AP flip perturbs incrementally. A call on a different base
  // rebuilds it in place, so its vectors keep their capacity.
  struct BatchBase {
    bool built = false;              // false until a build completes
    net::ChannelAssignment assignment;
    std::vector<double> activity;    // unweighted shares, all APs
    std::vector<int> conflict_count; // integer contender counts, all APs
    std::vector<int> cells;          // non-empty cells, ascending AP id
    std::vector<double> cell_share;  // medium share per cells[] entry
    std::vector<double> cell_value;  // objective value per cells[] entry
    // Per cells[] entry, the cell's scan cache in scan_memo_.
    std::vector<const sim::CellScanCache*> cell_cache;
    double total = 0.0;              // the assignment's total_bps
  };

  // base_ holding the analysis of `base`; rebuilt unless it already
  // does. Called with mutex_ held.
  const BatchBase& analyze(const net::ChannelAssignment& base) const;

  // The value of non-empty cell `ap` under `assignment` at medium share
  // `share`, with `activity` holding the unweighted share of each of the
  // cell's hidden interferers: its memo key, then a cell memo replay,
  // else a rescale from the scan-cache memo, else the kernel. A non-null
  // `cache` receives the cell's scan cache, which a memo replay then
  // looks up (or builds) too. Called with mutex_ held.
  double score_cell(const net::ChannelAssignment& assignment, int ap,
                    double share, const double* activity,
                    const sim::CellScanCache** cache) const;

  const sim::Wlan& wlan_;
  net::Association assoc_;
  mac::TrafficType traffic_;
  std::vector<double> weights_;  // empty = unweighted objective
  sim::NetSnapshot snap_;        // graph + flat link state, built once

  // Held for the whole of every call: guards memo_, scan_memo_, base_,
  // the build buffers and stats_.
  mutable std::mutex mutex_;
  mutable std::vector<KeyMap<double>> memo_;
  // Per AP, the scan cache of every share-independent cell context a
  // base has scored, keyed by the cell memo key without its share word.
  // Bases read it through pointers: unordered_map nodes are
  // address-stable under rehash and a stored cache is never mutated.
  mutable std::vector<KeyMap<sim::CellScanCache>> scan_memo_;
  mutable BatchBase base_;
  // score_cell's key and context buffers.
  mutable std::vector<std::uint64_t> build_key_;
  mutable std::vector<std::uint64_t> build_ctx_;
  mutable OracleCacheStats stats_;
};

}  // namespace acorn::core
