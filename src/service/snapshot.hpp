// Durable controller state for acornd.
//
// Each WLAN shard serializes its state to `<dir>/wlan_<id>.snap` at the
// end of every reconfiguration epoch: write to `<file>.tmp`, fsync,
// rename. The rename is atomic on POSIX filesystems, so a crash (up to
// and including SIGKILL mid-write) leaves either the previous complete
// snapshot or the new complete snapshot — never a torn file. A trailing
// FNV-1a checksum catches the remaining failure mode (a torn *tmp* file
// renamed by a buggy kernel, bit rot): decode_snapshot refuses payloads
// whose checksum does not match.
//
// The snapshot stores the WLAN id, the event ordinal and the deployment
// text (with its shadowing seed), plus the controller's whole
// core::WlanState: the inputs applied since (loss overrides, loads, the
// dirty-client set) and the decisions (association, allocated and
// operating channels, epoch). The file is
//
//   [u32 magic "ACRN"][u16 version][u32 wlan_id][u64 epoch]
//   [u64 events_applied][deployment][association][allocated][operating]
//   [loss_overrides][loads][dirty, version 2 only][u64 fnv1a]
//
// with every field in the wire codec's ByteWriter::put form, so a state
// map is a count and its entries in ascending key order. An override or
// load listed twice decodes to its last entry and is written once on
// re-encode. Recovery rebuilds the
// Wlan from the deployment text — bit-identical to the original build —
// and hands the state to core::WlanRuntime, so a recovered shard answers
// config queries exactly as the pre-crash one did.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/runtime.hpp"

namespace acorn::service {

inline constexpr std::uint32_t kSnapshotMagic = 0x4e524341;  // "ACRN"
// Version 2 adds the dirty-client set (clients whose link state changed
// since the last epoch), so recovery re-probes exactly the clients the
// pre-crash daemon would have. decode_snapshot still accepts version 1
// files (pre-upgrade state must not be dropped); lacking the dirty set,
// they recover with every client marked dirty — a one-off full re-probe
// at the first post-upgrade epoch.
inline constexpr std::uint16_t kSnapshotVersion = 2;

struct WlanSnapshot {
  std::uint32_t wlan_id = 0;
  std::uint64_t events_applied = 0;
  std::string deployment;
  core::WlanState state;
};

std::vector<std::uint8_t> encode_snapshot(const WlanSnapshot& snap);

/// Throws service::WireError on malformed bytes or checksum mismatch.
WlanSnapshot decode_snapshot(std::span<const std::uint8_t> bytes);

/// Write-temp + fsync + atomic-rename to `<dir>/wlan_<id>.snap`.
/// Returns false (leaving any previous snapshot intact) on I/O failure.
bool write_snapshot(const std::string& dir, const WlanSnapshot& snap);

/// Path helpers, shared by the writer and the recovery scan.
std::string snapshot_path(const std::string& dir, std::uint32_t wlan_id);

/// Remove a WLAN's snapshot (after an explicit RemoveWlan).
void remove_snapshot(const std::string& dir, std::uint32_t wlan_id);

/// Scan `dir` for `wlan_*.snap` files and decode them; unreadable or
/// corrupt files are skipped (the daemon logs and carries on — a corrupt
/// snapshot must not block recovery of the healthy WLANs).
std::vector<WlanSnapshot> load_snapshots(const std::string& dir);

}  // namespace acorn::service
