// Write-ahead event log for acornd.
//
// Snapshots (snapshot.hpp) persist full WLAN state once per epoch, which
// leaves every event applied *between* epochs volatile: a crash loses
// them even though the daemon already acknowledged them to the client.
// The WAL closes that hole. Every state-mutating wire message
// (ClientJoin, ClientLeave, SnrUpdate, LoadUpdate, ForceReconfigure) is
// journaled *before* its reply is released, and recovery replays the
// log suffix on top of the newest snapshot. Because the whole controller
// pipeline is deterministic, replaying the same records reproduces
// byte-identical state.
//
// The log lives in per-state-dir *segments*: `seg_<index>.walseg` files
// holding records from every shard, each tagged with its WLAN id
//
//   header:  [u32 magic "ACWS"][u16 version][u64 index]
//   record:  [u32 payload_len][u32 wlan_id][u64 seq][payload][u64 fnv1a]
//
// so one fdatasync (issued by service::SyncCoordinator) acknowledges
// every shard's pending batch. `payload` is a wire payload
// (version/type/seq/body — the bytes encode_payload produces, no length
// prefix), so the WAL reuses the wire codec verbatim. `seq` is the
// owning shard's events-applied ordinal after the record's message was
// applied; recovery scans the segments in index order, splits records
// per WLAN, and replays only records with seq > snapshot.events_applied,
// which makes a crash *between* a snapshot rename and segment
// retirement harmless (the stale prefix is skipped, not replayed
// twice). The trailing checksum is the same FNV-1a the snapshot trailer
// uses, computed over the record's header bytes and payload.
//
// Appends are buffered in memory and hit the disk in one write +
// fdatasync per `sync()` — the group-commit flush. A crash can
// therefore tear the final record (partial write) or lose
// buffered-but-unsynced records; both only affect events whose replies
// were never released, so an *acknowledged* event is always durable.
// The scan stops at the first torn or corrupt record of a segment and
// keeps the valid prefix. A closed segment is *retired* (deleted) once
// every WLAN with records in it has checkpointed (written a snapshot)
// past its newest record — oldest segment first, so the live segments
// always form a contiguous index suffix. A record with seq 0 is a
// removal *tombstone*: it fences off every earlier record of its WLAN
// (RemoveWlan, or a re-registration reusing the id — per-WLAN ordinals
// restart, so a dead incarnation's records must never merge into a new
// one's replay).
//
// Legacy per-WLAN logs: older builds could also journal each WLAN to a
// private `<dir>/wlan_<id>.wal`
//
//   header:  [u32 magic "ACWL"][u16 version]
//   record:  [u32 payload_len][u64 seq][payload][u64 fnv1a]
//
// Nothing writes that layout any more; `load_wal` reads it so a state
// dir from such a build still recovers every acknowledged event.
// Recovery merges its records with the segment records by ordinal, and
// the shard deletes the file once its start-up checkpoint covers them.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace acorn::service {

inline constexpr std::uint32_t kWalMagic = 0x4c574341;  // "ACWL"
inline constexpr std::uint16_t kWalVersion = 1;
inline constexpr std::uint32_t kWalSegMagic = 0x53574341;  // "ACWS"
inline constexpr std::uint16_t kWalSegVersion = 1;

/// One replayable event: a wire payload plus its events-applied ordinal.
struct WalRecord {
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

struct WalLoadResult {
  std::vector<WalRecord> records;
  /// False when the scan stopped early (torn tail after a crash, header
  /// or checksum corruption) — `records` still holds the valid prefix.
  bool clean = true;
};

/// Fsync a directory so a just-created/renamed/unlinked entry survives a
/// power cut (fsyncing the file alone does not persist its dir entry).
/// Returns false on failure; callers treat that as the write failing.
bool fsync_dir(const std::string& dir);

// ---- Legacy per-WLAN logs (read only) ----------------------------------

/// `<dir>/wlan_<id>.wal`.
std::string wal_path(const std::string& dir, std::uint32_t wlan_id);

/// Delete a WLAN's legacy log (once a snapshot covers it, or on
/// RemoveWlan).
void remove_wal(const std::string& dir, std::uint32_t wlan_id);

/// Read and verify a legacy per-WLAN log, stopping at the first torn,
/// corrupt or out-of-order record. A missing file is an empty, clean
/// log.
WalLoadResult load_wal(const std::string& dir, std::uint32_t wlan_id);

/// Serialize one legacy per-WLAN log record (header + payload +
/// checksum) — exposed so tests can craft legacy logs byte-for-byte.
std::vector<std::uint8_t> encode_wal_record(std::uint64_t seq,
                                            std::span<const std::uint8_t>
                                                payload);

// ---- Shared segments ----------------------------------------------------

/// `<dir>/seg_<index>.walseg`.
std::string wal_segment_path(const std::string& dir, std::uint64_t index);

/// Serialize one segment record (header + payload + checksum).
std::vector<std::uint8_t> encode_segment_record(
    std::uint32_t wlan_id, std::uint64_t seq,
    std::span<const std::uint8_t> payload);

/// Per-WLAN newest record ordinal in one segment — the retirement unit:
/// the segment may be deleted once every entry is covered by that WLAN's
/// snapshot.
struct SegmentCoverage {
  std::uint64_t index = 0;
  std::map<std::uint32_t, std::uint64_t> max_seq;
};

struct SegmentLoadResult {
  /// Records split per WLAN, in scan order (ascending segment index,
  /// file order within a segment) — per-WLAN seq-ascending by
  /// construction, ready for WlanShard replay.
  std::map<std::uint32_t, std::vector<WalRecord>> records;
  /// One entry per segment file found, ascending index.
  std::vector<SegmentCoverage> segments;
  /// First index not yet used (new writers start here; appending to a
  /// possibly-torn tail segment is never attempted).
  std::uint64_t next_index = 1;
  /// False when any segment stopped early (torn tail, bit rot); the
  /// valid prefix of that segment is kept and later segments are still
  /// scanned — per-WLAN ordinal contiguity at replay guards against a
  /// mid-history hole inventing state.
  bool clean = true;
};

/// Scan `dir` for segments and split their records per WLAN. A missing
/// or empty directory is an empty, clean result.
SegmentLoadResult load_wal_segments(const std::string& dir);

/// Buffered appender for one shared segment. Owned by the
/// SyncCoordinator's commit thread.
class WalSegmentWriter {
 public:
  WalSegmentWriter() = default;
  ~WalSegmentWriter() { close(); }
  WalSegmentWriter(const WalSegmentWriter&) = delete;
  WalSegmentWriter& operator=(const WalSegmentWriter&) = delete;

  /// Create `<dir>/seg_<index>.walseg` (O_EXCL: an existing file means
  /// an index collision and fails) and fsync the directory so the
  /// segment cannot vanish in a power cut after its records were
  /// acknowledged. Returns false on I/O failure, leaving the writer
  /// closed.
  bool open(const std::string& dir, std::uint64_t index);
  bool is_open() const { return fd_ >= 0; }
  std::uint64_t index() const { return index_; }
  /// Bytes durably on disk (rotation bound input).
  std::uint64_t file_size() const { return file_size_; }
  std::size_t buffered_bytes() const { return buf_.size(); }

  /// Queue one tagged record (no syscall).
  void append(std::uint32_t wlan_id, std::uint64_t seq,
              std::span<const std::uint8_t> payload);

  /// Flush the buffer + fdatasync — the fleet-wide group-commit
  /// barrier. Returns false on I/O failure. The buffer is retained for
  /// retry, and a partially written tail is truncated off the file
  /// first so a retry can never leave a torn record in front of live
  /// ones; if the truncate itself fails the writer closes (is_open()
  /// goes false) rather than risk appending after an untrustworthy
  /// tail.
  bool sync();

  void close();

 private:
  int fd_ = -1;
  std::uint64_t index_ = 0;
  std::uint64_t file_size_ = 0;
  std::vector<std::uint8_t> buf_;
};

}  // namespace acorn::service
