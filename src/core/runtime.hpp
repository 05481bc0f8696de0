// The running ACORN system for one WLAN (paper Fig. 7, §4.2): clients
// associate through Algorithm 1 as they arrive, and every period T an
// epoch re-tunes the channels with Algorithm 2. WlanRuntime is that loop
// with no clock, no I/O and no locks. acornd's shards call it for every
// event and every epoch, whether live, replayed from the WAL or streamed
// to a follower, and tests drive it directly as the daemon's reference.
//
// Events are cheap: a join runs one Algorithm 1 trial association, and
// an SNR or load update only records its input. The expensive work
// waits for the epoch:
//   1. re-probe (detach + Algorithm 1) exactly the associated clients
//      whose links changed since the last epoch, so mobility drives
//      incremental re-association rather than a full sweep;
//   2. Algorithm 2 on the incremental CachedOracle's batched scan; its
//      epsilon (stop below 5% aggregate improvement) is the channel-level
//      hysteresis;
//   3. the opportunistic width fallback (core/width_switch): a bonded AP
//      narrows to its better 20 MHz half, or widens back, only when the
//      alternative wins by `width_hysteresis`, so a client hovering at
//      the 20/40 crossover cannot make the AP flap every epoch.
//
// The CachedOracle is reused across epochs and goodput queries for as
// long as the association, link budget and loads are unchanged; an event
// that changes one of them retires it, and the next use rebuilds it. The
// goodput total is kept likewise until an event retires the oracle or an
// epoch runs, so repeated config queries cost no evaluation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "core/controller.hpp"
#include "core/oracle_cache.hpp"

namespace acorn::core {

/// One WLAN's controller state: what a snapshot stores besides the WLAN
/// id, the deployment and the event ordinal.
struct WlanState {
  std::uint64_t epoch = 0;
  /// Client -> AP or net::kUnassociated. Empty = everyone unassociated.
  net::Association association;
  /// Algorithm 2's channel per AP. Empty = a seeded random assignment.
  net::ChannelAssignment allocated;
  /// The channel each AP runs: its allocation, or one 20 MHz half of a
  /// bonded allocation. Empty = the allocation.
  net::ChannelAssignment operating;
  /// (ap, client) -> path loss in dB, replacing the deployment's.
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> loss_overrides;
  /// Client -> offered load, its weight in the objective.
  std::map<std::uint32_t, double> loads;
  /// Clients whose links changed since the last epoch.
  std::set<std::uint32_t> dirty;
};

/// What one epoch changed.
struct EpochRecord {
  int channel_switches = 0;       // Algorithm 2's committed switches
  int width_switches = 0;         // bonded APs that narrowed or widened
  int assoc_changes = 0;          // re-probed clients that moved
  std::int64_t evaluations = 0;   // Algorithm 2's oracle evaluations
};

class WlanRuntime {
 public:
  /// Throws std::invalid_argument when `state` does not fit the
  /// deployment or the plan, or holds a shape no event or epoch
  /// produces. An empty allocation is drawn from `seed`.
  WlanRuntime(sim::Wlan wlan, const net::ChannelPlan& plan, WlanState state,
              std::uint64_t seed, double width_hysteresis);

  // The oracle borrows wlan_.
  WlanRuntime(const WlanRuntime&) = delete;
  WlanRuntime& operator=(const WlanRuntime&) = delete;

  /// Algorithm 1 for `client`. For an associated client it is a
  /// re-association probe; a failed probe keeps the previous AP.
  /// Returns whether the client's AP changed.
  bool join(std::uint32_t client);
  /// Returns whether the client was associated.
  bool leave(std::uint32_t client);
  /// Replace the (ap, client) path loss; the client is re-probed at the
  /// next epoch.
  void set_link_loss(std::uint32_t ap, std::uint32_t client, double loss_db);
  void set_load(std::uint32_t client, double load);
  /// Dirty re-probes, Algorithm 2, then the width fallback.
  EpochRecord run_epoch();

  /// Aggregate goodput on the operating channels, kept until an input
  /// changes.
  double goodput_bps();
  const WlanState& state() const { return state_; }
  /// Cumulative over every oracle this runtime built.
  OracleCacheStats oracle_stats() const;

 private:
  /// Detach, run Algorithm 1, restore the old AP on failure. Returns
  /// whether the AP changed.
  bool probe(int client);
  CachedOracle& oracle();
  void retire_oracle();

  sim::Wlan wlan_;
  AcornController controller_;
  double width_hysteresis_;
  WlanState state_;
  std::unique_ptr<CachedOracle> oracle_;
  OracleCacheStats retired_;
  std::optional<double> goodput_bps_;
};

}  // namespace acorn::core
