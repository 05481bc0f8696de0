// Wire protocol of the `acornd` controller service.
//
// Frames are length-prefixed binary blobs on a byte stream (TCP or Unix
// domain): a little-endian u32 payload length, then the payload
//
//   [u16 version][u16 type][u32 seq][body]
//
// `seq` is chosen by the client and echoed verbatim in the response so
// requests may be pipelined. Every multi-byte integer is little-endian;
// doubles travel as the little-endian bit pattern of their IEEE-754
// representation, so a round trip is bit-exact. Strings and vectors are
// a u32 element count followed by the elements.
//
// Decoding is strict: unknown version or type, truncated bodies,
// trailing bytes, or a length prefix above kMaxFramePayload all throw
// WireError — the daemon drops the connection, since a framing error
// means the rest of the stream cannot be trusted. A *short* buffer is
// not an error: FrameBuffer::next() simply returns nullopt until the
// frame's bytes have all arrived.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "net/channels.hpp"
#include "net/interference.hpp"

namespace acorn::service {

inline constexpr std::uint16_t kWireVersion = 2;
/// Upper bound on one frame's payload (a SnapshotFrame carrying a large
/// WLAN's full state is the largest legitimate body); anything bigger is
/// a garbage length prefix.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 23;

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

enum class MsgType : std::uint16_t {
  // Requests.
  kRegisterWlan = 1,
  kRemoveWlan = 2,
  kClientJoin = 3,
  kClientLeave = 4,
  kSnrUpdate = 5,
  kLoadUpdate = 6,
  kForceReconfigure = 7,
  kQueryConfig = 8,
  kQueryStats = 9,
  kShutdown = 10,
  kFollowLog = 11,
  // Responses.
  kOkReply = 100,
  kErrorReply = 101,
  kConfigReply = 102,
  kStatsReply = 103,
  // Replication stream (daemon -> follower, after a FollowLog request).
  kSnapshotFrame = 104,
  kLogRecordFrame = 105,
};

// ---- Requests -----------------------------------------------------------

/// Register a WLAN instance under `wlan_id`. `deployment` is a
/// sim/deployment_file.hpp description (APs, clients, pathloss, channel
/// plan, shadowing seed) — the same text a snapshot stores, so a
/// registered WLAN and a recovered one are built identically.
struct RegisterWlan {
  std::uint32_t wlan_id = 0;
  std::string deployment;
};

struct RemoveWlan {
  std::uint32_t wlan_id = 0;
};

/// Client `client` arrives: Algorithm 1 associates it immediately.
struct ClientJoin {
  std::uint32_t wlan_id = 0;
  std::uint32_t client = 0;
};

struct ClientLeave {
  std::uint32_t wlan_id = 0;
  std::uint32_t client = 0;
};

/// Measurement update: the AP->client path loss changed (mobility,
/// shadowing drift). Applied to the link budget; the next epoch sees it.
struct SnrUpdate {
  std::uint32_t wlan_id = 0;
  std::uint32_t ap = 0;
  std::uint32_t client = 0;
  double loss_db = 0.0;
};

/// Offered-load hint for a client (fraction of saturation), recorded in
/// the shard state and reported back through config queries.
struct LoadUpdate {
  std::uint32_t wlan_id = 0;
  std::uint32_t client = 0;
  double load = 1.0;
};

/// Run a reconfiguration epoch now instead of waiting for the period.
struct ForceReconfigure {
  std::uint32_t wlan_id = 0;
};

struct QueryConfig {
  std::uint32_t wlan_id = 0;
};

struct QueryStats {};

struct Shutdown {};

/// Subscribe this connection to the replication stream: the daemon
/// replies OkReply, then sends one SnapshotFrame per registered WLAN and
/// a LogRecordFrame for every durable event from that point on.
struct FollowLog {};

// ---- Responses ----------------------------------------------------------

/// Generic success. `value` carries the small result of the request when
/// there is one (the AP chosen by a join, -1 when none in range).
struct OkReply {
  std::int32_t value = 0;
};

struct ErrorReply {
  std::uint16_t code = 0;
  std::string text;
};

/// Error codes carried by ErrorReply.
enum class ErrorCode : std::uint16_t {
  kUnknownWlan = 1,
  kAlreadyRegistered = 2,
  kBadDeployment = 3,
  kBadArgument = 4,
};

/// Full controller state of one WLAN. `allocated` is the channel
/// allocation Algorithm 2 committed; `operating` is what each AP
/// currently transmits on after the opportunistic width fallback (a
/// bonded AP may operate on one 20 MHz half without changing the
/// interference it projects).
struct ConfigReply {
  std::uint32_t wlan_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t events_applied = 0;
  double total_goodput_bps = 0.0;
  net::Association association;
  std::vector<net::Channel> allocated;
  std::vector<net::Channel> operating;
};

/// Daemon-wide observability counters (the `stats` request).
struct StatsReply {
  std::uint32_t num_wlans = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t events_total = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t epochs_total = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_flushes = 0;
  std::uint64_t channel_switches = 0;
  std::uint64_t width_switches = 0;
  std::uint64_t assoc_changes = 0;
  std::uint64_t alloc_evaluations = 0;
  std::uint64_t oracle_cell_evals = 0;
  std::uint64_t oracle_cell_hits = 0;
  std::uint64_t oracle_share_evals = 0;
  std::uint64_t oracle_share_hits = 0;
  double last_epoch_ms = 0.0;
  /// Per-request latency histogram: bucket i counts requests completed
  /// in [2^i, 2^(i+1)) microseconds (bucket 0 is < 2 us).
  std::vector<std::uint64_t> latency_us_log2;
  /// Group-commit observability. `wal_syncs` counts fdatasync calls
  /// that made records durable; `wal_coalesced_events` counts the
  /// records those syncs covered, so coalesced/syncs is the mean
  /// group-commit batch size.
  std::uint64_t wal_syncs = 0;
  std::uint64_t wal_coalesced_events = 0;
  /// fdatasync latency histogram, same log2-microsecond buckets as
  /// `latency_us_log2`.
  std::vector<std::uint64_t> wal_sync_us_log2;
  /// Group-commit batch-size distribution: bucket i counts syncs that
  /// covered [2^i, 2^(i+1)) records (bucket 0 is 1 record).
  std::vector<std::uint64_t> wal_batch_log2;
};

/// One WLAN's full state, as an encoded service::WlanSnapshot blob (the
/// snapshot codec carries its own checksum). Sent to a follower when it
/// subscribes and whenever a WLAN is (re)registered on the primary.
struct SnapshotFrame {
  std::vector<std::uint8_t> snapshot;
};

/// One durable WAL record forwarded to a follower: `payload` is a wire
/// payload (version/type/seq/body, no length prefix) of the mutating
/// message, `record_seq` its events-applied ordinal on the primary. A
/// RemoveWlan payload (record_seq 0) tears the WLAN down on the follower.
struct LogRecordFrame {
  std::uint32_t wlan_id = 0;
  std::uint64_t record_seq = 0;
  std::vector<std::uint8_t> payload;
};

using Message =
    std::variant<RegisterWlan, RemoveWlan, ClientJoin, ClientLeave, SnrUpdate,
                 LoadUpdate, ForceReconfigure, QueryConfig, QueryStats,
                 Shutdown, FollowLog, OkReply, ErrorReply, ConfigReply,
                 StatsReply, SnapshotFrame, LogRecordFrame>;

struct Frame {
  std::uint32_t seq = 0;
  Message msg;
};

MsgType type_of(const Message& msg);

// ---- Byte-level helpers (shared with the snapshot codec) ----------------

/// Appends little-endian fields to a buffer the caller owns: the bytes
/// already in it stay, so frames, WAL records and snapshots are encoded
/// in place into whatever buffer they end up in, and a reused buffer
/// costs no allocation once it has grown.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void channel(const net::Channel& c);
  void bytes(std::span<const std::uint8_t> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  /// Length-prefixed byte blob (u32 count + raw bytes).
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes(b);
  }
  /// Overwrite the u32 at byte offset `pos` (a length patched in once
  /// the body after it is written).
  void patch_u32(std::size_t pos, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_[pos + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

 private:
  template <typename T>
  void le(T v) {
    std::uint8_t b[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    out_.insert(out_.end(), b, b + sizeof(T));
  }

  std::vector<std::uint8_t>& out_;
};

/// 64-bit FNV-1a: the checksum trailing every snapshot and WAL record.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Bounds-checked cursor over one payload; every read throws WireError
/// instead of walking off the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() {
    const auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }
  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[static_cast<std::size_t>(i)];
    return v;
  }
  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[static_cast<std::size_t>(i)];
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    const auto b = take(n);
    return std::string(b.begin(), b.end());
  }
  net::Channel channel();
  /// Length-prefixed byte blob; bounds-checked like every other read.
  std::vector<std::uint8_t> blob() {
    const std::uint32_t n = u32();
    const auto b = take(n);
    return std::vector<std::uint8_t>(b.begin(), b.end());
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  void expect_end() const {
    if (pos_ != data_.size()) throw WireError("trailing bytes in frame");
  }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > remaining()) throw WireError("truncated frame body");
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ---- Frame codec --------------------------------------------------------

/// Append one frame, length prefix included, to `out`: the prefix, the
/// header and the body in one pass, the length patched in last. Bytes
/// already in `out` are kept.
void encode_frame_into(std::vector<std::uint8_t>& out, std::uint32_t seq,
                       const Message& msg);

/// Append one payload (version/type/seq/body, no length prefix) to `out`
/// — the unit the write-ahead log stores and LogRecordFrame forwards.
void encode_payload_into(std::vector<std::uint8_t>& out, std::uint32_t seq,
                         const Message& msg);

/// encode_frame_into a fresh buffer: ready to write to a socket.
std::vector<std::uint8_t> encode_frame(std::uint32_t seq, const Message& msg);

/// encode_payload_into a fresh buffer.
std::vector<std::uint8_t> encode_payload(std::uint32_t seq,
                                         const Message& msg);

/// Decode one payload (the bytes *after* the length prefix). Throws
/// WireError on any malformation.
Frame decode_payload(std::span<const std::uint8_t> payload);

/// Reassembles frames from a byte stream. Append whatever the socket
/// produced; `next()` yields complete frames (throwing WireError on
/// malformed ones) and nullopt when more bytes are needed.
class FrameBuffer {
 public:
  /// Bytes the daemon and the client read from a socket at a time; the
  /// buffer starts with room for one such read.
  static constexpr std::size_t kReadChunk = 16384;

  void append(const std::uint8_t* data, std::size_t n);
  std::optional<Frame> next();
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace acorn::service
