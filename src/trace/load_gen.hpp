// Deterministic fleet-scale load schedules for acornd.
//
// Bridges the trace layer (the CRAWDAD-fitted association-duration
// model) and the Poisson arrival process (sim/arrivals) into one merged
// event schedule a driver can replay against the daemon: a client join
// at each session start, a leave at its end, and Poisson-spaced SNR
// drift and offered-load hints while the session is live.
//
// Determinism: the schedule is a pure function of its config. Each WLAN
// draws from its own Rng::derive_stream(seed, wlan_index) stream, so
// WLAN k's events are identical whether the fleet holds 1 WLAN or
// 10000, and the cross-WLAN merge is a stable sort by time — the same
// config always yields the same byte-for-byte schedule, which is what
// lets the fleet tests compare daemons at different worker counts
// event-for-event.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/association_trace.hpp"

namespace acorn::trace {

enum class LoadEventKind : std::uint8_t { kJoin, kLeave, kSnr, kLoad };

struct LoadEvent {
  double t_s = 0.0;
  LoadEventKind kind = LoadEventKind::kJoin;
  std::uint32_t wlan_id = 0;
  std::uint32_t client = 0;
  /// kSnr only: the AP whose path loss to `client` changed.
  std::uint32_t ap = 0;
  /// kSnr: loss_db; kLoad: offered-load fraction.
  double value = 0.0;
};

struct FleetLoadConfig {
  std::uint32_t num_wlans = 1;
  std::uint32_t first_wlan_id = 1;
  int clients_per_wlan = 8;
  int aps_per_wlan = 3;
  double horizon_s = 3600.0;
  /// Mean session arrivals per WLAN per second.
  double arrivals_per_s = 1.0 / 60.0;
  /// Mean SNR-drift updates per live session per second.
  double snr_per_session_s = 1.0 / 30.0;
  /// Mean offered-load hints per live session per second.
  double load_per_session_s = 1.0 / 60.0;
  /// Scales the duration model's draws (median ~31 min) so short
  /// horizons still see departures.
  double duration_scale = 1.0;
  std::uint64_t seed = 1;
  AssociationDurationModel durations;
};

/// Generate the merged fleet schedule, sorted by time (ties keep WLAN
/// order). Throws std::invalid_argument on a nonsensical config.
std::vector<LoadEvent> generate_fleet_load(const FleetLoadConfig& config);

/// Deployment text (sim/deployment_file grammar) for a synthetic floor:
/// APs on a grid 40 m apart, clients scattered uniformly over the
/// covered rectangle, both deterministic in `seed`.
std::string synthetic_floor(int num_aps, int num_clients,
                            std::uint64_t seed);

}  // namespace acorn::trace
