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
// representation, so a round trip is bit-exact. Strings, byte blobs,
// vectors, sets and maps are a u32 element count followed by the
// elements; a map element is its key then its value.
//
// The message table: each message is declared once, as one struct below
// holding its wire tag (kType), who handles it when it arrives as a
// request (kScope) and its fields in wire order (kFields). The body is
// those fields and nothing else, so encoding, decoding and type_of are
// derived from the declarations through ByteWriter::put and
// ByteReader::get. Adding a message takes its MsgType value, its struct,
// its Message entry and its handler, and no codec code.
//
// Decoding is strict: unknown version or type, truncated bodies,
// trailing bytes, or a length prefix above kMaxFramePayload all throw
// WireError — the daemon drops the connection, since a framing error
// means the rest of the stream cannot be trusted. A *short* buffer is
// not an error: FrameBuffer::next() simply returns nullopt until the
// frame's bytes have all arrived.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
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

/// Who handles a message that arrives as a request.
enum class Scope : std::uint8_t {
  kDaemon,  // the daemon's loop thread
  kShard,   // the shard of the message's `wlan_id`
  kNone,    // responses and replication frames: refused as requests
};

// ---- Requests -----------------------------------------------------------

/// Register a WLAN instance under `wlan_id`. `deployment` is a
/// sim/deployment_file.hpp description (APs, clients, pathloss, channel
/// plan, shadowing seed) — the same text a snapshot stores, so a
/// registered WLAN and a recovered one are built identically.
struct RegisterWlan {
  static constexpr MsgType kType = MsgType::kRegisterWlan;
  static constexpr Scope kScope = Scope::kDaemon;
  std::uint32_t wlan_id = 0;
  std::string deployment;
  static constexpr std::tuple kFields{&RegisterWlan::wlan_id,
                                      &RegisterWlan::deployment};
};

struct RemoveWlan {
  static constexpr MsgType kType = MsgType::kRemoveWlan;
  static constexpr Scope kScope = Scope::kDaemon;
  std::uint32_t wlan_id = 0;
  static constexpr std::tuple kFields{&RemoveWlan::wlan_id};
};

/// Client `client` arrives: Algorithm 1 associates it immediately.
struct ClientJoin {
  static constexpr MsgType kType = MsgType::kClientJoin;
  static constexpr Scope kScope = Scope::kShard;
  std::uint32_t wlan_id = 0;
  std::uint32_t client = 0;
  static constexpr std::tuple kFields{&ClientJoin::wlan_id,
                                      &ClientJoin::client};
};

struct ClientLeave {
  static constexpr MsgType kType = MsgType::kClientLeave;
  static constexpr Scope kScope = Scope::kShard;
  std::uint32_t wlan_id = 0;
  std::uint32_t client = 0;
  static constexpr std::tuple kFields{&ClientLeave::wlan_id,
                                      &ClientLeave::client};
};

/// Measurement update: the AP->client path loss changed (mobility,
/// shadowing drift). Applied to the link budget; the next epoch sees it.
struct SnrUpdate {
  static constexpr MsgType kType = MsgType::kSnrUpdate;
  static constexpr Scope kScope = Scope::kShard;
  std::uint32_t wlan_id = 0;
  std::uint32_t ap = 0;
  std::uint32_t client = 0;
  double loss_db = 0.0;
  static constexpr std::tuple kFields{&SnrUpdate::wlan_id, &SnrUpdate::ap,
                                      &SnrUpdate::client, &SnrUpdate::loss_db};
};

/// Offered-load hint for a client (fraction of saturation), recorded in
/// the shard state and reported back through config queries.
struct LoadUpdate {
  static constexpr MsgType kType = MsgType::kLoadUpdate;
  static constexpr Scope kScope = Scope::kShard;
  std::uint32_t wlan_id = 0;
  std::uint32_t client = 0;
  double load = 1.0;
  static constexpr std::tuple kFields{&LoadUpdate::wlan_id,
                                      &LoadUpdate::client, &LoadUpdate::load};
};

/// Run a reconfiguration epoch now instead of waiting for the period.
struct ForceReconfigure {
  static constexpr MsgType kType = MsgType::kForceReconfigure;
  static constexpr Scope kScope = Scope::kShard;
  std::uint32_t wlan_id = 0;
  static constexpr std::tuple kFields{&ForceReconfigure::wlan_id};
};

struct QueryConfig {
  static constexpr MsgType kType = MsgType::kQueryConfig;
  static constexpr Scope kScope = Scope::kShard;
  std::uint32_t wlan_id = 0;
  static constexpr std::tuple kFields{&QueryConfig::wlan_id};
};

struct QueryStats {
  static constexpr MsgType kType = MsgType::kQueryStats;
  static constexpr Scope kScope = Scope::kDaemon;
  static constexpr std::tuple<> kFields{};
};

struct Shutdown {
  static constexpr MsgType kType = MsgType::kShutdown;
  static constexpr Scope kScope = Scope::kDaemon;
  static constexpr std::tuple<> kFields{};
};

/// Subscribe this connection to the replication stream: the daemon
/// replies OkReply, then sends one SnapshotFrame per registered WLAN and
/// a LogRecordFrame for every durable event from that point on.
struct FollowLog {
  static constexpr MsgType kType = MsgType::kFollowLog;
  static constexpr Scope kScope = Scope::kDaemon;
  static constexpr std::tuple<> kFields{};
};

// ---- Responses ----------------------------------------------------------

/// Generic success. `value` carries the small result of the request when
/// there is one (the AP chosen by a join, -1 when none in range).
struct OkReply {
  static constexpr MsgType kType = MsgType::kOkReply;
  static constexpr Scope kScope = Scope::kNone;
  std::int32_t value = 0;
  static constexpr std::tuple kFields{&OkReply::value};
};

struct ErrorReply {
  static constexpr MsgType kType = MsgType::kErrorReply;
  static constexpr Scope kScope = Scope::kNone;
  std::uint16_t code = 0;
  std::string text;
  static constexpr std::tuple kFields{&ErrorReply::code, &ErrorReply::text};
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
  static constexpr MsgType kType = MsgType::kConfigReply;
  static constexpr Scope kScope = Scope::kNone;
  std::uint32_t wlan_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t events_applied = 0;
  double total_goodput_bps = 0.0;
  net::Association association;
  std::vector<net::Channel> allocated;
  std::vector<net::Channel> operating;
  static constexpr std::tuple kFields{
      &ConfigReply::wlan_id,           &ConfigReply::epoch,
      &ConfigReply::events_applied,    &ConfigReply::total_goodput_bps,
      &ConfigReply::association,       &ConfigReply::allocated,
      &ConfigReply::operating};
};

/// Daemon-wide observability counters (the `stats` request).
struct StatsReply {
  static constexpr MsgType kType = MsgType::kStatsReply;
  static constexpr Scope kScope = Scope::kNone;
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
  static constexpr std::tuple kFields{
      &StatsReply::num_wlans,          &StatsReply::frames_rx,
      &StatsReply::events_total,       &StatsReply::protocol_errors,
      &StatsReply::epochs_total,       &StatsReply::snapshots_written,
      &StatsReply::wal_records,        &StatsReply::wal_flushes,
      &StatsReply::channel_switches,   &StatsReply::width_switches,
      &StatsReply::assoc_changes,      &StatsReply::alloc_evaluations,
      &StatsReply::oracle_cell_evals,  &StatsReply::oracle_cell_hits,
      &StatsReply::oracle_share_evals, &StatsReply::oracle_share_hits,
      &StatsReply::last_epoch_ms,      &StatsReply::latency_us_log2,
      &StatsReply::wal_syncs,          &StatsReply::wal_coalesced_events,
      &StatsReply::wal_sync_us_log2,   &StatsReply::wal_batch_log2};
};

/// One WLAN's full state, as an encoded service::WlanSnapshot blob (the
/// snapshot codec carries its own checksum). Sent to a follower when it
/// subscribes and whenever a WLAN is (re)registered on the primary.
struct SnapshotFrame {
  static constexpr MsgType kType = MsgType::kSnapshotFrame;
  static constexpr Scope kScope = Scope::kNone;
  std::vector<std::uint8_t> snapshot;
  static constexpr std::tuple kFields{&SnapshotFrame::snapshot};
};

/// One durable WAL record forwarded to a follower: `payload` is a wire
/// payload (version/type/seq/body, no length prefix) of the mutating
/// message, `record_seq` its events-applied ordinal on the primary. A
/// RemoveWlan payload (record_seq 0) tears the WLAN down on the follower.
struct LogRecordFrame {
  static constexpr MsgType kType = MsgType::kLogRecordFrame;
  static constexpr Scope kScope = Scope::kNone;
  std::uint32_t wlan_id = 0;
  std::uint64_t record_seq = 0;
  std::vector<std::uint8_t> payload;
  static constexpr std::tuple kFields{&LogRecordFrame::wlan_id,
                                      &LogRecordFrame::record_seq,
                                      &LogRecordFrame::payload};
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

inline MsgType type_of(const Message& msg) {
  return std::visit([](const auto& m) { return m.kType; }, msg);
}

// ---- Byte-level codec (shared with the snapshot and WAL codecs) ---------

namespace detail {

template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

/// A message struct: its body is kFields.
template <typename T>
concept Fielded = requires { T::kFields; };

/// A string or a byte blob: a count and then raw bytes.
template <typename T>
concept Bytes = std::same_as<T, std::string> ||
                std::same_as<T, std::vector<std::uint8_t>>;

/// Fewest bytes one encoded T takes: the guard that stops a hostile count
/// from reserving memory the payload cannot back.
template <typename T>
constexpr std::size_t min_bytes() {
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (std::same_as<T, net::Channel>) {
    return 5;
  } else if constexpr (IsPair<T>::value) {
    return min_bytes<typename T::first_type>() +
           min_bytes<typename T::second_type>();
  } else {
    return 4;  // a count
  }
}

}  // namespace detail

/// Appends values in their wire form to a buffer the caller owns: the
/// bytes already in it stay, so frames, WAL records and snapshots are
/// encoded in place into whatever buffer they end up in, and a reused
/// buffer costs no allocation once it has grown.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  /// Integers little-endian in their own width, doubles as their bit
  /// pattern, a channel as [u8 bonded][i32 primary], a pair as its two
  /// halves, a message as its kFields, and strings, blobs and
  /// containers as a u32 count and the elements.
  template <typename... Ts>
  void put(const Ts&... values) {
    (put_one(values), ...);
  }
  /// Raw bytes, no count.
  void bytes(std::span<const std::uint8_t> b) {
    out_.insert(out_.end(), b.begin(), b.end());
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
  void put_one(const T& v) {
    if constexpr (std::is_integral_v<T>) {
      std::uint8_t b[sizeof(T)];
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        b[i] = static_cast<std::uint8_t>(
            static_cast<std::make_unsigned_t<T>>(v) >> (8 * i));
      }
      out_.insert(out_.end(), b, b + sizeof(T));
    } else if constexpr (std::same_as<T, double>) {
      put_one(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::same_as<T, net::Channel>) {
      put_one(static_cast<std::uint8_t>(v.is_bonded() ? 1 : 0));
      put_one(static_cast<std::int32_t>(v.primary()));
    } else if constexpr (detail::IsPair<T>::value) {
      put_one(v.first);
      put_one(v.second);
    } else if constexpr (detail::Fielded<T>) {
      std::apply([&](auto... field) { (put_one(v.*field), ...); },
                 T::kFields);
    } else if constexpr (detail::Bytes<T>) {
      put_one(static_cast<std::uint32_t>(v.size()));
      out_.insert(out_.end(), v.begin(), v.end());
    } else {
      put_one(static_cast<std::uint32_t>(v.size()));
      for (const auto& element : v) put_one(element);
    }
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

/// Bounds-checked cursor over one payload, reading what ByteWriter::put
/// wrote. Every read throws WireError instead of walking off the end, and
/// a count whose elements cannot fit in the bytes left throws before
/// anything is reserved. A map keeps the last of repeated keys.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
  T get() {
    if constexpr (std::is_integral_v<T>) {
      const auto b = take(sizeof(T));
      std::make_unsigned_t<T> v = 0;
      for (std::size_t i = sizeof(T); i-- > 0;) {
        v = static_cast<std::make_unsigned_t<T>>((v << 8) | b[i]);
      }
      return static_cast<T>(v);
    } else if constexpr (std::same_as<T, double>) {
      return std::bit_cast<double>(get<std::uint64_t>());
    } else if constexpr (std::same_as<T, net::Channel>) {
      return channel();
    } else if constexpr (detail::IsPair<T>::value) {
      return T{get<typename T::first_type>(), get<typename T::second_type>()};
    } else if constexpr (detail::Fielded<T>) {
      T m;
      std::apply(
          [&](auto... field) {
            ((m.*field = get<std::remove_cvref_t<decltype(m.*field)>>()),
             ...);
          },
          T::kFields);
      return m;
    } else if constexpr (detail::Bytes<T>) {
      const auto b = take(get<std::uint32_t>());
      return T(b.begin(), b.end());
    } else if constexpr (requires { typename T::mapped_type; }) {
      using Entry =
          std::pair<typename T::key_type, typename T::mapped_type>;
      T out;
      for (std::uint32_t n = count(detail::min_bytes<Entry>()); n > 0;
           --n) {
        auto [key, value] = get<Entry>();
        out.insert_or_assign(std::move(key), std::move(value));
      }
      return out;
    } else {
      using Element = typename T::value_type;
      const std::uint32_t n = count(detail::min_bytes<Element>());
      T out;
      if constexpr (requires { out.reserve(n); }) out.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        out.insert(out.end(), get<Element>());
      }
      return out;
    }
  }
  template <typename... Ts>
  void get(Ts&... values) {
    ((values = get<Ts>()), ...);
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
  std::uint32_t count(std::size_t element_bytes) {
    const auto n = get<std::uint32_t>();
    if (element_bytes * n > remaining()) {
      throw WireError("element count exceeds the bytes left");
    }
    return n;
  }
  net::Channel channel();

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
