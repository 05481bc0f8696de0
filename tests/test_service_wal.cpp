// Durability tests for the write-ahead event log: the shared
// `seg_<n>.walseg` group-commit segments, and the read-only loader for
// legacy per-WLAN `wlan_<id>.wal` files written by older builds.
//
// Three layers:
//  * file level — segments round-trip, and both loaders stop at torn
//    tails, flipped bits, and ordinal gaps while keeping the valid
//    prefix; segments interleave WLANs and honor seq-0 tombstones (a
//    dead incarnation's records must not leak into a reused id);
//  * crash level — SIGKILL a daemon at randomized points inside an event
//    burst (including inside the group-commit flush window): after
//    restart the recovered state must contain every acknowledged event
//    and be byte-identical to a never-killed reference daemon fed the
//    same event prefix; a state dir holding a legacy log, alone or
//    followed by segment records, recovers the same way;
//  * replication level — a warm standby following the leader's log
//    converges to byte-identical per-WLAN state, tracks WLANs registered
//    after it attached, and tears down removed ones.
#include "service/eventlog.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"

namespace acorn::service {
namespace {

constexpr const char* kDeployment = R"(# test floor: 3 APs, 8 clients
pathloss exponent 3.5
pathloss shadowing 4
channels 12
seed 7
ap 10 10
ap 50 10
ap 30 40
client 12 12
client 14  8
client 48 14
client 52  9
client 28 38
client 35 42
client 30 25
client 45 30
)";

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/acorn_wal_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Client connect_with_retry(const std::string& unix_path) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    try {
      return Client::connect_unix(unix_path);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  throw std::runtime_error("daemon never came up at " + unix_path);
}

// The deterministic event script both the victim and the reference
// daemon play. Only shard events (each advances events_applied by one);
// registration is done separately.
std::vector<Message> event_script_for(std::uint32_t wlan) {
  std::vector<Message> ev;
  for (std::uint32_t c = 0; c < 8; ++c) ev.push_back(ClientJoin{wlan, c});
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t c = 0; c < 8; ++c) {
      ev.push_back(
          SnrUpdate{wlan, c % 3, c, 80.0 + 2.0 * c + 0.5 * round});
    }
    ev.push_back(LoadUpdate{wlan, round % 8u, 0.25 * (round + 1)});
    ev.push_back(ForceReconfigure{wlan});
  }
  return ev;
}

std::vector<Message> event_script() { return event_script_for(1); }

// Segment files present in `dir`, ascending index.
std::vector<std::string> segment_files(const std::string& dir) {
  std::vector<std::string> out;
  for (std::uint64_t i = 1; i < 1000; ++i) {
    const std::string path = wal_segment_path(dir, i);
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) out.push_back(path);
  }
  return out;
}

std::vector<std::uint8_t> state_bytes(const Daemon& daemon,
                                      std::uint32_t wlan_id) {
  const std::optional<WlanSnapshot> snap = daemon.wlan_state(wlan_id);
  if (!snap.has_value()) return {};
  return encode_snapshot(*snap);
}

// State of WLAN 1 in a never-killed daemon fed the first `m` events of
// `script` — the reference every recovery must byte-equal.
std::vector<std::uint8_t> reference_state(const std::vector<Message>& script,
                                          std::uint64_t m) {
  const TempDir dir;
  DaemonConfig config;
  config.state_dir = dir.path() + "/state";
  config.unix_path = dir.path() + "/sock";
  config.epoch_s = 0.0;
  Daemon reference(config);
  reference.start();
  Client client = connect_with_retry(config.unix_path);
  EXPECT_TRUE(std::holds_alternative<OkReply>(
      client.call(RegisterWlan{1, kDeployment})));
  for (std::uint64_t i = 0; i < m; ++i) {
    EXPECT_TRUE(std::holds_alternative<OkReply>(
        client.call(script[static_cast<std::size_t>(i)])));
  }
  std::vector<std::uint8_t> bytes = state_bytes(reference, 1);
  reference.stop();
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // fwrite's buffer must not be null, even for zero bytes.
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  ASSERT_EQ(written, bytes.size());
}

// Bytes of a legacy per-WLAN log (the layout older builds wrote): the
// ACWL header, then one record per (seq, payload).
std::vector<std::uint8_t> legacy_wal_bytes(
    const std::vector<WalRecord>& records) {
  ByteWriter hdr;
  hdr.u32(kWalMagic);
  hdr.u16(kWalVersion);
  std::vector<std::uint8_t> bytes = hdr.take();
  for (const WalRecord& r : records) {
    const std::vector<std::uint8_t> rec = encode_wal_record(r.seq, r.payload);
    bytes.insert(bytes.end(), rec.begin(), rec.end());
  }
  return bytes;
}

void write_legacy_wal(const std::string& dir, std::uint32_t wlan_id,
                      const std::vector<WalRecord>& records) {
  write_file(wal_path(dir, wlan_id), legacy_wal_bytes(records));
}

// Records seq = first .. last of `script`, as the shard journals them.
std::vector<WalRecord> script_records(const std::vector<Message>& script,
                                      std::uint64_t first,
                                      std::uint64_t last) {
  std::vector<WalRecord> out;
  for (std::uint64_t seq = first; seq <= last; ++seq) {
    out.push_back(WalRecord{
        seq, encode_payload(0, script[static_cast<std::size_t>(seq - 1)])});
  }
  return out;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

// --------------------------------------------------------------------
// File level.

TEST(ServiceWal, LegacyLogRoundTrip) {
  const TempDir dir;
  std::vector<WalRecord> records;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    records.push_back(WalRecord{
        s, encode_payload(0, Message{SnrUpdate{3, 0,
                                               static_cast<std::uint32_t>(s),
                                               80.0}})});
  }
  write_legacy_wal(dir.path(), 3, records);
  const WalLoadResult res = load_wal(dir.path(), 3);
  EXPECT_TRUE(res.clean);
  ASSERT_EQ(res.records.size(), 5u);
  for (std::size_t i = 0; i < res.records.size(); ++i) {
    EXPECT_EQ(res.records[i].seq, i + 1);
    EXPECT_EQ(res.records[i].payload, records[i].payload);
    const Frame f = decode_payload(res.records[i].payload);
    ASSERT_TRUE(std::holds_alternative<SnrUpdate>(f.msg));
    EXPECT_EQ(std::get<SnrUpdate>(f.msg).client, i + 1);
  }
}

TEST(ServiceWal, MissingAndEmptyLogsAreClean) {
  const TempDir dir;
  const WalLoadResult missing = load_wal(dir.path(), 1);
  EXPECT_TRUE(missing.clean);
  EXPECT_TRUE(missing.records.empty());

  write_file(wal_path(dir.path(), 1), {});  // truncated after a snapshot
  const WalLoadResult empty = load_wal(dir.path(), 1);
  EXPECT_TRUE(empty.clean);
  EXPECT_TRUE(empty.records.empty());
}

// Four ClientLeave records of WLAN 9, seq 1..4.
std::vector<WalRecord> four_leaves() {
  const std::vector<std::uint8_t> payload =
      encode_payload(0, Message{ClientLeave{9, 0}});
  std::vector<WalRecord> records;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    records.push_back(WalRecord{s, payload});
  }
  return records;
}

TEST(ServiceWal, TornTailKeepsValidPrefix) {
  const TempDir dir;
  // Drop 5 bytes off the end: the final record loses part of its
  // checksum trailer, exactly what a crash mid-write leaves behind.
  std::vector<std::uint8_t> bytes = legacy_wal_bytes(four_leaves());
  bytes.resize(bytes.size() - 5);
  write_file(wal_path(dir.path(), 9), bytes);

  const WalLoadResult res = load_wal(dir.path(), 9);
  EXPECT_FALSE(res.clean);
  ASSERT_EQ(res.records.size(), 3u);
  EXPECT_EQ(res.records.back().seq, 3u);
}

TEST(ServiceWal, BitFlipStopsAtCorruptRecord) {
  const TempDir dir;
  // Flip one bit in the last byte (inside record 4's checksum).
  std::vector<std::uint8_t> bytes = legacy_wal_bytes(four_leaves());
  bytes.back() ^= 0x40;
  write_file(wal_path(dir.path(), 9), bytes);

  const WalLoadResult res = load_wal(dir.path(), 9);
  EXPECT_FALSE(res.clean);
  ASSERT_EQ(res.records.size(), 3u);
}

TEST(ServiceWal, OrdinalGapRefusesRemainder) {
  const TempDir dir;
  const std::vector<std::uint8_t> payload =
      encode_payload(0, Message{ClientLeave{2, 1}});
  // Records 1, 2, 4: the gap invalidates the rest.
  write_legacy_wal(dir.path(), 2,
                   {WalRecord{1, payload}, WalRecord{2, payload},
                    WalRecord{4, payload}});

  const WalLoadResult res = load_wal(dir.path(), 2);
  EXPECT_FALSE(res.clean);
  ASSERT_EQ(res.records.size(), 2u);
  EXPECT_EQ(res.records.back().seq, 2u);
}

// --------------------------------------------------------------------
// File level: shared group-commit segments.

TEST(ServiceWal, SegmentRoundTripSplitsPerWlan) {
  const TempDir dir;
  const std::vector<std::uint8_t> p1 =
      encode_payload(0, Message{ClientJoin{1, 0}});
  const std::vector<std::uint8_t> p2 =
      encode_payload(0, Message{ClientJoin{2, 0}});
  {
    WalSegmentWriter w;
    ASSERT_TRUE(w.open(dir.path(), 1));
    // Interleave two WLANs' records, the shape one coalesced fdatasync
    // covers in production.
    w.append(1, 1, p1);
    w.append(2, 1, p2);
    w.append(1, 2, p1);
    w.append(2, 2, p2);
    w.append(1, 3, p1);
    ASSERT_TRUE(w.sync());
    // Buffered but never synced: must not survive the close.
    w.append(2, 3, p2);
    EXPECT_GT(w.buffered_bytes(), 0u);
  }
  const SegmentLoadResult res = load_wal_segments(dir.path());
  EXPECT_TRUE(res.clean);
  EXPECT_EQ(res.next_index, 2u);
  ASSERT_EQ(res.records.size(), 2u);
  ASSERT_EQ(res.records.at(1).size(), 3u);
  ASSERT_EQ(res.records.at(2).size(), 2u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(res.records.at(1)[i].seq, i + 1);
    EXPECT_EQ(res.records.at(1)[i].payload, p1);
  }
  ASSERT_EQ(res.segments.size(), 1u);
  EXPECT_EQ(res.segments[0].index, 1u);
  EXPECT_EQ(res.segments[0].max_seq.at(1), 3u);
  EXPECT_EQ(res.segments[0].max_seq.at(2), 2u);
}

TEST(ServiceWal, SegmentTornTailKeepsPrefixAndEarlierSegments) {
  const TempDir dir;
  const std::vector<std::uint8_t> payload =
      encode_payload(0, Message{ClientLeave{1, 0}});
  {
    WalSegmentWriter w;
    ASSERT_TRUE(w.open(dir.path(), 1));
    w.append(1, 1, payload);
    w.append(1, 2, payload);
    ASSERT_TRUE(w.sync());
  }
  {
    WalSegmentWriter w;
    ASSERT_TRUE(w.open(dir.path(), 2));
    w.append(1, 3, payload);
    w.append(1, 4, payload);
    ASSERT_TRUE(w.sync());
  }
  // Tear the newest segment mid-record, as a crash during the
  // coalesced write would.
  const std::string path = wal_segment_path(dir.path(), 2);
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - 5), 0);

  const SegmentLoadResult res = load_wal_segments(dir.path());
  EXPECT_FALSE(res.clean);
  EXPECT_EQ(res.next_index, 3u);  // never append to a torn tail
  ASSERT_EQ(res.records.at(1).size(), 3u);
  EXPECT_EQ(res.records.at(1).back().seq, 3u);
}

TEST(ServiceWal, SegmentBitFlipStopsAtCorruptRecord) {
  const TempDir dir;
  const std::vector<std::uint8_t> payload =
      encode_payload(0, Message{ClientLeave{1, 0}});
  {
    WalSegmentWriter w;
    ASSERT_TRUE(w.open(dir.path(), 1));
    for (std::uint64_t s = 1; s <= 4; ++s) w.append(1, s, payload);
    ASSERT_TRUE(w.sync());
  }
  const std::string path = wal_segment_path(dir.path(), 1);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);

  const SegmentLoadResult res = load_wal_segments(dir.path());
  EXPECT_FALSE(res.clean);
  ASSERT_EQ(res.records.at(1).size(), 3u);
}

// A seq-0 tombstone must fence a dead incarnation's records even when
// they live in an *earlier* segment — per-WLAN ordinals restart on
// re-registration, so without the fence the old records would merge
// into the new incarnation's replay.
TEST(ServiceWal, SegmentTombstoneFencesDeadIncarnation) {
  const TempDir dir;
  const std::vector<std::uint8_t> old_inc =
      encode_payload(0, Message{ClientJoin{7, 0}});
  const std::vector<std::uint8_t> new_inc =
      encode_payload(0, Message{ClientJoin{7, 1}});
  {
    WalSegmentWriter w;
    ASSERT_TRUE(w.open(dir.path(), 1));
    for (std::uint64_t s = 1; s <= 3; ++s) w.append(7, s, old_inc);
    w.append(8, 1, old_inc);  // an unrelated WLAN must be untouched
    ASSERT_TRUE(w.sync());
  }
  {
    WalSegmentWriter w;
    ASSERT_TRUE(w.open(dir.path(), 2));
    w.append(7, 0, std::span<const std::uint8_t>{});  // tombstone
    w.append(7, 1, new_inc);
    w.append(7, 2, new_inc);
    ASSERT_TRUE(w.sync());
  }
  const SegmentLoadResult res = load_wal_segments(dir.path());
  EXPECT_TRUE(res.clean);
  ASSERT_EQ(res.records.at(7).size(), 2u);
  EXPECT_EQ(res.records.at(7)[0].payload, new_inc);
  EXPECT_EQ(res.records.at(7)[0].seq, 1u);
  ASSERT_EQ(res.records.at(8).size(), 1u);
  // Coverage follows the fence: segment 1 no longer pins WLAN 7.
  ASSERT_EQ(res.segments.size(), 2u);
  EXPECT_EQ(res.segments[0].max_seq.count(7), 0u);
  EXPECT_EQ(res.segments[0].max_seq.at(8), 1u);
  EXPECT_EQ(res.segments[1].max_seq.at(7), 2u);
}

// A mid-history hole in a WLAN's segment records (lost segment, bit
// rot) must stop the replay at the intact prefix instead of inventing
// state: daemon-level, because the per-WLAN contiguity check lives in
// shard replay, not in the segment scanner.
TEST(ServiceWal, SegmentOrdinalGapStopsReplayAtPrefix) {
  const TempDir dir;
  const std::string sock = dir.path() + "/sock";
  const std::string state = dir.path() + "/state";
  {
    DaemonConfig config;
    config.unix_path = sock;
    config.state_dir = state;
    config.epoch_s = 0.0;
    Daemon daemon(config);
    daemon.start();
    Client client = Client::connect_unix(sock);
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(RegisterWlan{1, kDeployment})));
    daemon.stop();  // clean: snapshot at events_applied = 0, no segments
  }
  // Hand-craft a segment whose records skip ordinal 3.
  {
    WalSegmentWriter w;
    ASSERT_TRUE(w.open(dir.path() + "/state", 1));
    std::uint32_t client_id = 0;
    for (const std::uint64_t seq : {1ull, 2ull, 4ull}) {
      w.append(1, seq,
               encode_payload(0, Message{ClientJoin{1, client_id++}}));
    }
    ASSERT_TRUE(w.sync());
  }
  DaemonConfig config;
  config.state_dir = state;
  config.epoch_s = 0.0;
  Daemon recovered(config);
  recovered.start();
  const std::optional<WlanSnapshot> snap = recovered.wlan_state(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->events_applied, 2u);  // contiguous prefix only
  recovered.stop();
}

// --------------------------------------------------------------------
// Crash level.

// SIGKILL a child daemon at a randomized instant inside a pipelined
// event burst, restart over its state directory, and require:
//  (1) every acknowledged event survived (recovered ordinal >= number of
//      replies the client actually received), and
//  (2) the recovered state is byte-identical to a never-killed reference
//      daemon fed exactly the recovered event prefix.
// Different flush windows move the kill relative to the group-commit
// fsync; the invariants must hold for all of them.
TEST(ServiceWal, SigkillNeverLosesAcknowledgedEvents) {
  const std::vector<Message> script = event_script();
  std::mt19937 rng(20260808u);
  const std::uint32_t flush_windows[] = {0, 200, 5000};

  for (int iter = 0; iter < 6; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const TempDir dir;
    const std::string sock = dir.path() + "/sock";
    const std::string state = dir.path() + "/state";
    const std::uint32_t flush_us = flush_windows[iter % 3];

    const pid_t child = ::fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
      DaemonConfig config;
      config.unix_path = sock;
      config.state_dir = state;
      config.epoch_s = 0.0;
      config.wal_flush_us = flush_us;
      try {
        Daemon daemon(config);
        daemon.start();
        daemon.wait();
      } catch (...) {
      }
      ::_exit(0);
    }

    std::size_t acked = 0;
    {
      Client client = connect_with_retry(sock);
      ASSERT_TRUE(std::holds_alternative<OkReply>(
          client.call(RegisterWlan{1, kDeployment})));
      // Acknowledged prefix, then a pipelined burst racing the kill.
      const std::size_t prefix = 4 + static_cast<std::size_t>(rng() % 8);
      for (std::size_t i = 0; i < prefix; ++i) {
        ASSERT_TRUE(std::holds_alternative<OkReply>(client.call(script[i])));
      }
      acked = prefix;
      for (std::size_t i = prefix; i < script.size(); ++i) {
        client.send(script[i]);
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng() % 4000));
      ASSERT_EQ(::kill(child, SIGKILL), 0);
      int status = 0;
      ASSERT_EQ(::waitpid(child, &status, 0), child);
      ASSERT_TRUE(WIFSIGNALED(status));
      // Replies already in flight when the daemon died are still
      // acknowledgements: drain until EOF.
      try {
        while (true) {
          const Frame f = client.recv();
          if (std::holds_alternative<OkReply>(f.msg)) ++acked;
        }
      } catch (const std::exception&) {
        // connection drained
      }
    }

    // Recover over the same state directory.
    DaemonConfig config;
    config.state_dir = state;
    config.unix_path = sock;
    config.epoch_s = 0.0;
    Daemon recovered(config);
    recovered.start();
    const std::optional<WlanSnapshot> snap = recovered.wlan_state(1);
    ASSERT_TRUE(snap.has_value());
    const std::uint64_t m = snap->events_applied;
    EXPECT_GE(m, acked) << "acknowledged events lost (flush window "
                        << flush_us << " us)";
    EXPECT_LE(m, script.size());
    EXPECT_EQ(state_bytes(recovered, 1), reference_state(script, m))
        << "recovered state diverges from the deterministic replay at "
        << m << " events";
    recovered.stop();
  }
}

// Upgrade from a build that journaled each WLAN to a private
// `wlan_<id>.wal`: a snapshot plus that legacy log — alone, or followed
// by segment records the current build appended before crashing — must
// recover every journaled event byte-identically, and the legacy file
// must be gone once start() has checkpointed past it.
TEST(ServiceWal, LegacyLogUpgradeRecoversByteIdentical) {
  const std::vector<Message> script = event_script();
  const std::uint64_t n = script.size();
  const std::uint64_t k = 20;  // legacy prefix, past the first epoch
  const std::vector<std::uint8_t> expected = reference_state(script, n);

  for (const bool with_segment : {false, true}) {
    SCOPED_TRACE(with_segment ? "legacy 1..k + segment k+1..n"
                              : "legacy 1..n");
    const TempDir dir;
    const std::string state = dir.path() + "/state";
    {
      // Registration snapshot at events_applied = 0, nothing journaled.
      DaemonConfig config;
      config.unix_path = dir.path() + "/sock";
      config.state_dir = state;
      config.epoch_s = 0.0;
      Daemon daemon(config);
      daemon.start();
      Client client = Client::connect_unix(config.unix_path);
      ASSERT_TRUE(std::holds_alternative<OkReply>(
          client.call(RegisterWlan{1, kDeployment})));
      daemon.stop();
    }
    ASSERT_TRUE(segment_files(state).empty());
    if (with_segment) {
      write_legacy_wal(state, 1, script_records(script, 1, k));
      WalSegmentWriter w;
      ASSERT_TRUE(w.open(state, 1));
      for (const WalRecord& r : script_records(script, k + 1, n)) {
        w.append(1, r.seq, r.payload);
      }
      ASSERT_TRUE(w.sync());
    } else {
      write_legacy_wal(state, 1, script_records(script, 1, n));
    }

    DaemonConfig config;
    config.state_dir = state;
    config.epoch_s = 0.0;
    Daemon recovered(config);
    recovered.start();
    EXPECT_FALSE(file_exists(wal_path(state, 1)))
        << "legacy log survived the start() checkpoint";
    const std::optional<WlanSnapshot> snap = recovered.wlan_state(1);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->events_applied, n);
    EXPECT_EQ(state_bytes(recovered, 1), expected);
    recovered.stop();

    // The checkpoint carries the upgraded state on its own.
    Daemon again(config);
    again.start();
    EXPECT_EQ(state_bytes(again, 1), expected);
    again.stop();
  }
}

// Several WLANs' records interleaved in the same segments, racing a
// SIGKILL. Replies from different shards
// interleave freely on the shared connection, so acknowledgements are
// matched to WLANs through the reply's echoed request seq; every
// acknowledged event of *every* WLAN must survive, and each recovered
// WLAN must be byte-identical to a reference daemon fed its recovered
// prefix (per-WLAN replies are FIFO, so the acked set per WLAN is a
// prefix of its script).
TEST(ServiceWal, SigkillInterleavedWlans) {
  constexpr std::uint32_t kWlans = 3;
  std::vector<std::vector<Message>> scripts;
  for (std::uint32_t w = 1; w <= kWlans; ++w) {
    scripts.push_back(event_script_for(w));
  }
  // Round-robin interleaving: send_order[i] = WLAN owning send i.
  std::vector<std::uint32_t> send_order;
  for (std::size_t i = 0; i < scripts[0].size(); ++i) {
    for (std::uint32_t w = 0; w < kWlans; ++w) send_order.push_back(w);
  }
  std::mt19937 rng(20260812u);

  for (int iter = 0; iter < 4; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const TempDir dir;
    const std::string sock = dir.path() + "/sock";
    const std::string state = dir.path() + "/state";

    const pid_t child = ::fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
      DaemonConfig config;
      config.unix_path = sock;
      config.state_dir = state;
      config.epoch_s = 0.0;
      config.wal_flush_us = (iter % 2 == 0) ? 0u : 200u;
      try {
        Daemon daemon(config);
        daemon.start();
        daemon.wait();
      } catch (...) {
      }
      ::_exit(0);
    }

    std::vector<std::uint64_t> acked_per_wlan(kWlans, 0);
    {
      Client client = connect_with_retry(sock);
      for (std::uint32_t w = 1; w <= kWlans; ++w) {
        ASSERT_TRUE(std::holds_alternative<OkReply>(
            client.call(RegisterWlan{w, kDeployment})));
      }
      const std::size_t prefix =
          kWlans * (2 + static_cast<std::size_t>(rng() % 4));
      std::vector<std::size_t> cursor(kWlans, 0);
      std::map<std::uint32_t, std::uint32_t> seq_to_wlan;
      for (std::size_t i = 0; i < send_order.size(); ++i) {
        const std::uint32_t w = send_order[i];
        const Message& msg = scripts[w][cursor[w]++];
        if (i < prefix) {
          ASSERT_TRUE(std::holds_alternative<OkReply>(client.call(msg)));
          ++acked_per_wlan[w];
        } else {
          seq_to_wlan[client.send(msg)] = w;
        }
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng() % 4000));
      ASSERT_EQ(::kill(child, SIGKILL), 0);
      int status = 0;
      ASSERT_EQ(::waitpid(child, &status, 0), child);
      ASSERT_TRUE(WIFSIGNALED(status));
      // Replies already in flight when the daemon died are still
      // acknowledgements; shards interleave on the connection, so match
      // each to its WLAN by seq.
      try {
        while (true) {
          const Frame f = client.recv();
          const auto it = seq_to_wlan.find(f.seq);
          if (it != seq_to_wlan.end() &&
              std::holds_alternative<OkReply>(f.msg)) {
            ++acked_per_wlan[it->second];
          }
        }
      } catch (const std::exception&) {
        // connection drained
      }
    }

    DaemonConfig config;
    config.state_dir = state;
    config.epoch_s = 0.0;
    Daemon recovered(config);
    recovered.start();

    const TempDir ref_dir;
    DaemonConfig ref_config;
    ref_config.state_dir = ref_dir.path() + "/state";
    ref_config.unix_path = ref_dir.path() + "/sock";
    ref_config.epoch_s = 0.0;
    Daemon reference(ref_config);
    reference.start();
    Client ref_client = connect_with_retry(ref_config.unix_path);

    for (std::uint32_t w = 0; w < kWlans; ++w) {
      SCOPED_TRACE("wlan " + std::to_string(w + 1));
      const std::optional<WlanSnapshot> snap =
          recovered.wlan_state(w + 1);
      ASSERT_TRUE(snap.has_value());
      const std::uint64_t m = snap->events_applied;
      EXPECT_GE(m, acked_per_wlan[w]) << "acknowledged events lost";
      ASSERT_LE(m, scripts[w].size());
      ASSERT_TRUE(std::holds_alternative<OkReply>(
          ref_client.call(RegisterWlan{w + 1, kDeployment})));
      for (std::uint64_t i = 0; i < m; ++i) {
        ASSERT_TRUE(std::holds_alternative<OkReply>(
            ref_client.call(scripts[w][static_cast<std::size_t>(i)])));
      }
      EXPECT_EQ(state_bytes(recovered, w + 1), state_bytes(reference, w + 1))
          << "recovered WLAN diverges from the deterministic replay at "
          << m << " events";
    }
    reference.stop();
    recovered.stop();
  }
}

// Tiny segments + periodic epochs: rotation must produce new segments
// and checkpoint-driven retirement must delete covered ones, keeping
// the on-disk log bounded instead of growing forever.
TEST(ServiceWal, SharedSegmentsRotateAndRetire) {
  const TempDir dir;
  const std::string sock = dir.path() + "/sock";
  const std::string state = dir.path() + "/state";
  DaemonConfig config;
  config.unix_path = sock;
  config.state_dir = state;
  config.epoch_s = 0.0;
  config.wal_flush_us = 0;
  config.wal_segment_bytes = 2048;  // rotate every ~25 records
  Daemon daemon(config);
  daemon.start();
  {
    Client client = Client::connect_unix(sock);
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(RegisterWlan{1, kDeployment})));
    for (std::uint32_t c = 0; c < 8; ++c) {
      ASSERT_TRUE(
          std::holds_alternative<OkReply>(client.call(ClientJoin{1, c})));
    }
    for (int round = 0; round < 10; ++round) {
      for (std::uint32_t c = 0; c < 16; ++c) {
        ASSERT_TRUE(std::holds_alternative<OkReply>(client.call(
            SnrUpdate{1, c % 3, c % 8, 80.0 + c + 0.1 * round})));
      }
      // Epoch snapshot -> checkpoint -> everything before it retirable.
      ASSERT_TRUE(std::holds_alternative<OkReply>(
          client.call(ForceReconfigure{1})));
    }
  }
  const std::uint64_t events = daemon.wlan_state(1)->events_applied;
  daemon.stop();

  // Enough bytes flowed for several rotations...
  const SegmentLoadResult res = load_wal_segments(state);
  EXPECT_GE(res.next_index, 5u) << "segments never rotated";
  // ...but retirement kept only the uncovered suffix: the still-open
  // segment plus at most a couple closed ones pinned by post-checkpoint
  // records.
  EXPECT_LE(segment_files(state).size(), 3u)
      << "covered segments were never retired";

  // And the bounded log still recovers the full state.
  DaemonConfig rconfig;
  rconfig.state_dir = state;
  rconfig.epoch_s = 0.0;
  Daemon recovered(rconfig);
  recovered.start();
  ASSERT_TRUE(recovered.wlan_state(1).has_value());
  EXPECT_EQ(recovered.wlan_state(1)->events_applied, events);
  recovered.stop();
}

// Deterministic corruption recovery end to end: events whose records are
// destroyed on disk after the fact must roll the state back to the
// intact prefix (torn tails happen; silent corruption must not become
// silent state invention).
TEST(ServiceWal, RecoveryStopsAtCorruptTail) {
  const TempDir dir;
  const std::string sock = dir.path() + "/sock";
  const std::string state = dir.path() + "/state";

  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    DaemonConfig config;
    config.unix_path = sock;
    config.state_dir = state;
    config.epoch_s = 0.0;
    config.wal_flush_us = 0;
    try {
      Daemon daemon(config);
      daemon.start();
      daemon.wait();
    } catch (...) {
    }
    ::_exit(0);
  }
  {
    Client client = connect_with_retry(sock);
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(RegisterWlan{1, kDeployment})));
    for (std::uint32_t c = 0; c < 4; ++c) {
      ASSERT_TRUE(
          std::holds_alternative<OkReply>(client.call(ClientJoin{1, c})));
    }
  }
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  // All four joins are acknowledged, so the log holds records 1..4 past
  // the registration snapshot. Chop into the last record.
  const SegmentLoadResult before = load_wal_segments(state);
  ASSERT_TRUE(before.clean);
  ASSERT_EQ(before.records.at(1).size(), 4u);
  const std::vector<std::string> segs = segment_files(state);
  ASSERT_FALSE(segs.empty());
  const std::string& path = segs.back();
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - 3), 0);

  DaemonConfig config;
  config.state_dir = state;
  config.epoch_s = 0.0;
  Daemon recovered(config);
  recovered.start();
  const std::optional<WlanSnapshot> snap = recovered.wlan_state(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->events_applied, 3u);  // intact prefix only
  int associated = 0;
  for (const int ap : snap->association) {
    if (ap >= 0) ++associated;
  }
  EXPECT_EQ(associated, 3);
  recovered.stop();
}

// --------------------------------------------------------------------
// Replication level.

// Wait until `predicate` holds or ~5 s elapse.
template <typename F>
bool eventually(F predicate) {
  for (int i = 0; i < 500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// The follower stream is released by the coordinator's commit thread: a
// record reaches a follower no later than the client's acknowledgement.
TEST(ServiceWal, FollowerConvergesByteIdentical) {
  const TempDir dir;
  DaemonConfig leader_config;
  leader_config.unix_path = dir.path() + "/sock";
  leader_config.state_dir = dir.path() + "/leader";
  leader_config.epoch_s = 0.0;
  leader_config.wal_flush_us = 0;
  Daemon leader(leader_config);
  leader.start();

  Client client = Client::connect_unix(leader_config.unix_path);
  ASSERT_TRUE(std::holds_alternative<OkReply>(
      client.call(RegisterWlan{1, kDeployment})));
  for (std::uint32_t c = 0; c < 4; ++c) {
    ASSERT_TRUE(
        std::holds_alternative<OkReply>(client.call(ClientJoin{1, c})));
  }

  DaemonConfig follower_config;
  follower_config.state_dir = dir.path() + "/follower";
  follower_config.follow = "unix:" + leader_config.unix_path;
  follower_config.epoch_s = 1000.0;  // must be ignored in follow mode
  Daemon follower(follower_config);
  follower.start();

  // The snapshot handed to the follower at attach covers the first four
  // joins; everything after arrives as log records.
  ASSERT_TRUE(eventually([&] {
    const auto snap = follower.wlan_state(1);
    return snap.has_value() && snap->events_applied >= 4;
  })) << "follower never received the attach snapshot";

  // Play the whole script (re-joining an associated client is a legal
  // re-association probe, so the overlap with the joins above is fine).
  for (const Message& msg : event_script()) {
    ASSERT_TRUE(std::holds_alternative<OkReply>(client.call(msg)));
  }
  const std::uint64_t leader_events = leader.wlan_state(1)->events_applied;
  ASSERT_TRUE(eventually([&] {
    const auto snap = follower.wlan_state(1);
    return snap.has_value() && snap->events_applied == leader_events;
  })) << "follower never caught up to " << leader_events << " events";
  EXPECT_EQ(state_bytes(follower, 1), state_bytes(leader, 1))
      << "warm standby state is not byte-identical to the leader";

  // A WLAN registered *after* the follower attached is mirrored too.
  ASSERT_TRUE(std::holds_alternative<OkReply>(
      client.call(RegisterWlan{2, kDeployment})));
  ASSERT_TRUE(
      std::holds_alternative<OkReply>(client.call(ClientJoin{2, 0})));
  ASSERT_TRUE(eventually([&] {
    const auto snap = follower.wlan_state(2);
    return snap.has_value() && snap->events_applied >= 1;
  })) << "follower missed the post-attach registration";
  ASSERT_TRUE(eventually([&] {
    return state_bytes(follower, 2) == state_bytes(leader, 2);
  }));

  // RemoveWlan propagates as a control record.
  ASSERT_TRUE(std::holds_alternative<OkReply>(client.call(RemoveWlan{2})));
  ASSERT_TRUE(eventually([&] {
    return !follower.wlan_state(2).has_value();
  })) << "follower kept a removed WLAN";
  EXPECT_TRUE(follower.wlan_state(1).has_value());

  follower.stop();
  leader.stop();
}

// A standby that resubscribed (leader restart) and is then killed must
// come back up with the replicated state. Regression: the replacement
// shard used to be started *before* the old one was stopped, so the old
// shard's final snapshot overwrote the fresh resubscribe checkpoint on
// disk; the records streamed afterwards then sat above a sequence gap
// and recovery silently discarded them — exactly the promoted-standby
// scenario the feature exists for.
TEST(ServiceWal, PromotedStandbySurvivesResubscribe) {
  const TempDir dir;
  const std::string sock = dir.path() + "/sock";
  const std::string alt_sock = dir.path() + "/sock2";
  const std::string follower_sock = dir.path() + "/fsock";
  const std::string leader_state = dir.path() + "/leader";
  const std::string follower_state = dir.path() + "/follower";

  DaemonConfig leader_config;
  leader_config.unix_path = sock;
  leader_config.state_dir = leader_state;
  leader_config.epoch_s = 0.0;
  leader_config.wal_flush_us = 0;

  // The follower runs in a child process so it can be SIGKILLed without
  // the clean-shutdown snapshot masking what is actually on disk. Fork
  // before the leader spawns its threads (TSan refuses new threads in a
  // child of a multi-threaded fork); the follower's reconnect loop
  // simply retries until the leader's socket appears.
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    DaemonConfig config;
    config.unix_path = follower_sock;
    config.state_dir = follower_state;
    config.follow = "unix:" + sock;
    config.epoch_s = 0.0;
    config.wal_flush_us = 0;
    try {
      Daemon daemon(config);
      daemon.start();
      daemon.wait();
    } catch (...) {
    }
    ::_exit(0);
  }

  auto leader = std::make_unique<Daemon>(leader_config);
  leader->start();
  {
    Client client = Client::connect_unix(sock);
    ASSERT_TRUE(std::holds_alternative<OkReply>(
        client.call(RegisterWlan{1, kDeployment})));
    for (std::uint32_t c = 0; c < 4; ++c) {
      ASSERT_TRUE(
          std::holds_alternative<OkReply>(client.call(ClientJoin{1, c})));
    }
  }

  // events_applied as seen through the follower's own socket; -1 while
  // the WLAN (or the follower itself) is not up yet.
  const auto follower_events = [&](Client& client) -> std::int64_t {
    const Message reply = client.call(QueryConfig{1});
    if (const auto* cfg = std::get_if<ConfigReply>(&reply)) {
      return static_cast<std::int64_t>(cfg->events_applied);
    }
    return -1;
  };

  {
    Client fclient = connect_with_retry(follower_sock);
    ASSERT_TRUE(eventually([&] { return follower_events(fclient) >= 4; }))
        << "follower never received the attach snapshot";
  }

  // Leader goes away; the follower enters its reconnect loop. Advance
  // the leader's state out of band (same state dir, different socket)
  // so the eventual resubscribe snapshot is *ahead* of the follower.
  leader->stop();
  leader.reset();
  {
    DaemonConfig interim_config = leader_config;
    interim_config.unix_path = alt_sock;
    Daemon interim(interim_config);
    interim.start();
    Client client = Client::connect_unix(alt_sock);
    for (std::uint32_t c = 0; c < 4; ++c) {
      ASSERT_TRUE(std::holds_alternative<OkReply>(
          client.call(SnrUpdate{1, c % 3, c, 85.0 + c})));
    }
    interim.stop();
  }

  // Leader returns on the original endpoint: the follower resubscribes,
  // receives the newer snapshot, and then streams live records.
  Daemon leader2(leader_config);
  leader2.start();
  {
    Client client = connect_with_retry(sock);
    for (std::uint32_t c = 4; c < 8; ++c) {
      ASSERT_TRUE(
          std::holds_alternative<OkReply>(client.call(ClientJoin{1, c})));
    }
  }
  const std::uint64_t leader_events = leader2.wlan_state(1)->events_applied;
  ASSERT_EQ(leader_events, 12u);
  {
    Client fclient = connect_with_retry(follower_sock);
    ASSERT_TRUE(eventually([&] {
      return follower_events(fclient) ==
             static_cast<std::int64_t>(leader_events);
    })) << "follower never converged after the resubscribe";
  }

  // Promote: kill the standby, recover over its state directory.
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  DaemonConfig promoted_config;
  promoted_config.state_dir = follower_state;
  promoted_config.epoch_s = 0.0;
  Daemon promoted(promoted_config);
  promoted.start();
  const std::optional<WlanSnapshot> snap = promoted.wlan_state(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->events_applied, leader_events)
      << "promoted standby lost replicated events across the resubscribe";
  EXPECT_EQ(state_bytes(promoted, 1), state_bytes(leader2, 1))
      << "promoted standby state diverges from the leader";
  promoted.stop();
  leader2.stop();
}

}  // namespace
}  // namespace acorn::service
