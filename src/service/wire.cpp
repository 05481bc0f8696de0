#include "service/wire.hpp"

#include <algorithm>

namespace acorn::service {

namespace {

template <typename T>
constexpr MsgType type_tag();
template <>
constexpr MsgType type_tag<RegisterWlan>() { return MsgType::kRegisterWlan; }
template <>
constexpr MsgType type_tag<RemoveWlan>() { return MsgType::kRemoveWlan; }
template <>
constexpr MsgType type_tag<ClientJoin>() { return MsgType::kClientJoin; }
template <>
constexpr MsgType type_tag<ClientLeave>() { return MsgType::kClientLeave; }
template <>
constexpr MsgType type_tag<SnrUpdate>() { return MsgType::kSnrUpdate; }
template <>
constexpr MsgType type_tag<LoadUpdate>() { return MsgType::kLoadUpdate; }
template <>
constexpr MsgType type_tag<ForceReconfigure>() {
  return MsgType::kForceReconfigure;
}
template <>
constexpr MsgType type_tag<QueryConfig>() { return MsgType::kQueryConfig; }
template <>
constexpr MsgType type_tag<QueryStats>() { return MsgType::kQueryStats; }
template <>
constexpr MsgType type_tag<Shutdown>() { return MsgType::kShutdown; }
template <>
constexpr MsgType type_tag<FollowLog>() { return MsgType::kFollowLog; }
template <>
constexpr MsgType type_tag<OkReply>() { return MsgType::kOkReply; }
template <>
constexpr MsgType type_tag<ErrorReply>() { return MsgType::kErrorReply; }
template <>
constexpr MsgType type_tag<ConfigReply>() { return MsgType::kConfigReply; }
template <>
constexpr MsgType type_tag<StatsReply>() { return MsgType::kStatsReply; }
template <>
constexpr MsgType type_tag<SnapshotFrame>() { return MsgType::kSnapshotFrame; }
template <>
constexpr MsgType type_tag<LogRecordFrame>() {
  return MsgType::kLogRecordFrame;
}

void encode_body(ByteWriter& w, const RegisterWlan& m) {
  w.u32(m.wlan_id);
  w.str(m.deployment);
}
void encode_body(ByteWriter& w, const RemoveWlan& m) { w.u32(m.wlan_id); }
void encode_body(ByteWriter& w, const ClientJoin& m) {
  w.u32(m.wlan_id);
  w.u32(m.client);
}
void encode_body(ByteWriter& w, const ClientLeave& m) {
  w.u32(m.wlan_id);
  w.u32(m.client);
}
void encode_body(ByteWriter& w, const SnrUpdate& m) {
  w.u32(m.wlan_id);
  w.u32(m.ap);
  w.u32(m.client);
  w.f64(m.loss_db);
}
void encode_body(ByteWriter& w, const LoadUpdate& m) {
  w.u32(m.wlan_id);
  w.u32(m.client);
  w.f64(m.load);
}
void encode_body(ByteWriter& w, const ForceReconfigure& m) {
  w.u32(m.wlan_id);
}
void encode_body(ByteWriter& w, const QueryConfig& m) { w.u32(m.wlan_id); }
void encode_body(ByteWriter&, const QueryStats&) {}
void encode_body(ByteWriter&, const Shutdown&) {}
void encode_body(ByteWriter&, const FollowLog&) {}
void encode_body(ByteWriter& w, const SnapshotFrame& m) { w.blob(m.snapshot); }
void encode_body(ByteWriter& w, const LogRecordFrame& m) {
  w.u32(m.wlan_id);
  w.u64(m.record_seq);
  w.blob(m.payload);
}
void encode_body(ByteWriter& w, const OkReply& m) { w.i32(m.value); }
void encode_body(ByteWriter& w, const ErrorReply& m) {
  w.u16(m.code);
  w.str(m.text);
}
void encode_body(ByteWriter& w, const ConfigReply& m) {
  w.u32(m.wlan_id);
  w.u64(m.epoch);
  w.u64(m.events_applied);
  w.f64(m.total_goodput_bps);
  w.u32(static_cast<std::uint32_t>(m.association.size()));
  for (int ap : m.association) w.i32(ap);
  w.u32(static_cast<std::uint32_t>(m.allocated.size()));
  for (const net::Channel& c : m.allocated) w.channel(c);
  w.u32(static_cast<std::uint32_t>(m.operating.size()));
  for (const net::Channel& c : m.operating) w.channel(c);
}
void encode_body(ByteWriter& w, const StatsReply& m) {
  w.u32(m.num_wlans);
  w.u64(m.frames_rx);
  w.u64(m.events_total);
  w.u64(m.protocol_errors);
  w.u64(m.epochs_total);
  w.u64(m.snapshots_written);
  w.u64(m.wal_records);
  w.u64(m.wal_flushes);
  w.u64(m.channel_switches);
  w.u64(m.width_switches);
  w.u64(m.assoc_changes);
  w.u64(m.alloc_evaluations);
  w.u64(m.oracle_cell_evals);
  w.u64(m.oracle_cell_hits);
  w.u64(m.oracle_share_evals);
  w.u64(m.oracle_share_hits);
  w.f64(m.last_epoch_ms);
  w.u32(static_cast<std::uint32_t>(m.latency_us_log2.size()));
  for (std::uint64_t b : m.latency_us_log2) w.u64(b);
  w.u64(m.wal_syncs);
  w.u64(m.wal_coalesced_events);
  w.u32(static_cast<std::uint32_t>(m.wal_sync_us_log2.size()));
  for (std::uint64_t b : m.wal_sync_us_log2) w.u64(b);
  w.u32(static_cast<std::uint32_t>(m.wal_batch_log2.size()));
  for (std::uint64_t b : m.wal_batch_log2) w.u64(b);
}

/// Vector length guard: a hostile length prefix must not trigger a huge
/// allocation before the (bounds-checked) element reads fail.
std::uint32_t checked_count(ByteReader& r, std::size_t element_bytes) {
  const std::uint32_t n = r.u32();
  if (element_bytes * n > r.remaining()) {
    throw WireError("vector count exceeds frame body");
  }
  return n;
}

RegisterWlan decode_register(ByteReader& r) {
  RegisterWlan m;
  m.wlan_id = r.u32();
  m.deployment = r.str();
  return m;
}
ConfigReply decode_config(ByteReader& r) {
  ConfigReply m;
  m.wlan_id = r.u32();
  m.epoch = r.u64();
  m.events_applied = r.u64();
  m.total_goodput_bps = r.f64();
  const std::uint32_t n_assoc = checked_count(r, 4);
  m.association.reserve(n_assoc);
  for (std::uint32_t i = 0; i < n_assoc; ++i) m.association.push_back(r.i32());
  const std::uint32_t n_alloc = checked_count(r, 5);
  m.allocated.reserve(n_alloc);
  for (std::uint32_t i = 0; i < n_alloc; ++i) m.allocated.push_back(r.channel());
  const std::uint32_t n_oper = checked_count(r, 5);
  m.operating.reserve(n_oper);
  for (std::uint32_t i = 0; i < n_oper; ++i) m.operating.push_back(r.channel());
  return m;
}
StatsReply decode_stats(ByteReader& r) {
  StatsReply m;
  m.num_wlans = r.u32();
  m.frames_rx = r.u64();
  m.events_total = r.u64();
  m.protocol_errors = r.u64();
  m.epochs_total = r.u64();
  m.snapshots_written = r.u64();
  m.wal_records = r.u64();
  m.wal_flushes = r.u64();
  m.channel_switches = r.u64();
  m.width_switches = r.u64();
  m.assoc_changes = r.u64();
  m.alloc_evaluations = r.u64();
  m.oracle_cell_evals = r.u64();
  m.oracle_cell_hits = r.u64();
  m.oracle_share_evals = r.u64();
  m.oracle_share_hits = r.u64();
  m.last_epoch_ms = r.f64();
  const std::uint32_t n = checked_count(r, 8);
  m.latency_us_log2.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.latency_us_log2.push_back(r.u64());
  m.wal_syncs = r.u64();
  m.wal_coalesced_events = r.u64();
  const std::uint32_t n_sync = checked_count(r, 8);
  m.wal_sync_us_log2.reserve(n_sync);
  for (std::uint32_t i = 0; i < n_sync; ++i) {
    m.wal_sync_us_log2.push_back(r.u64());
  }
  const std::uint32_t n_batch = checked_count(r, 8);
  m.wal_batch_log2.reserve(n_batch);
  for (std::uint32_t i = 0; i < n_batch; ++i) {
    m.wal_batch_log2.push_back(r.u64());
  }
  return m;
}

Message decode_body(MsgType type, ByteReader& r) {
  switch (type) {
    case MsgType::kRegisterWlan:
      return decode_register(r);
    case MsgType::kRemoveWlan:
      return RemoveWlan{r.u32()};
    case MsgType::kClientJoin: {
      ClientJoin m;
      m.wlan_id = r.u32();
      m.client = r.u32();
      return m;
    }
    case MsgType::kClientLeave: {
      ClientLeave m;
      m.wlan_id = r.u32();
      m.client = r.u32();
      return m;
    }
    case MsgType::kSnrUpdate: {
      SnrUpdate m;
      m.wlan_id = r.u32();
      m.ap = r.u32();
      m.client = r.u32();
      m.loss_db = r.f64();
      return m;
    }
    case MsgType::kLoadUpdate: {
      LoadUpdate m;
      m.wlan_id = r.u32();
      m.client = r.u32();
      m.load = r.f64();
      return m;
    }
    case MsgType::kForceReconfigure:
      return ForceReconfigure{r.u32()};
    case MsgType::kQueryConfig:
      return QueryConfig{r.u32()};
    case MsgType::kQueryStats:
      return QueryStats{};
    case MsgType::kShutdown:
      return Shutdown{};
    case MsgType::kFollowLog:
      return FollowLog{};
    case MsgType::kOkReply:
      return OkReply{r.i32()};
    case MsgType::kErrorReply: {
      ErrorReply m;
      m.code = r.u16();
      m.text = r.str();
      return m;
    }
    case MsgType::kConfigReply:
      return decode_config(r);
    case MsgType::kStatsReply:
      return decode_stats(r);
    case MsgType::kSnapshotFrame: {
      SnapshotFrame m;
      m.snapshot = r.blob();
      return m;
    }
    case MsgType::kLogRecordFrame: {
      LogRecordFrame m;
      m.wlan_id = r.u32();
      m.record_seq = r.u64();
      m.payload = r.blob();
      return m;
    }
  }
  throw WireError("unknown message type " +
                  std::to_string(static_cast<int>(type)));
}

/// Small frames (every update and its reply) fit in one allocation.
constexpr std::size_t kFrameReserve = 64;

void write_payload(ByteWriter& w, std::uint32_t seq, const Message& msg) {
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type_of(msg)));
  w.u32(seq);
  std::visit([&w](const auto& m) { encode_body(w, m); }, msg);
}

}  // namespace

MsgType type_of(const Message& msg) {
  return std::visit(
      [](const auto& m) { return type_tag<std::decay_t<decltype(m)>>(); },
      msg);
}

void ByteWriter::channel(const net::Channel& c) {
  u8(c.is_bonded() ? 1 : 0);
  i32(c.primary());
}

net::Channel ByteReader::channel() {
  const std::uint8_t bonded = u8();
  const std::int32_t primary = i32();
  if (bonded > 1 || primary < 0) throw WireError("malformed channel");
  if (bonded != 0) {
    if (primary % 2 != 0) throw WireError("bonded channel with odd primary");
    return net::Channel::bonded(primary / 2);
  }
  return net::Channel::basic(primary);
}

void encode_frame_into(std::vector<std::uint8_t>& out, std::uint32_t seq,
                       const Message& msg) {
  const std::size_t start = out.size();
  ByteWriter w(out);
  w.u32(0);  // length prefix, patched below
  write_payload(w, seq, msg);
  w.patch_u32(start, static_cast<std::uint32_t>(out.size() - start - 4));
}

void encode_payload_into(std::vector<std::uint8_t>& out, std::uint32_t seq,
                         const Message& msg) {
  ByteWriter w(out);
  write_payload(w, seq, msg);
}

std::vector<std::uint8_t> encode_payload(std::uint32_t seq,
                                         const Message& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameReserve);
  encode_payload_into(out, seq, msg);
  return out;
}

std::vector<std::uint8_t> encode_frame(std::uint32_t seq, const Message& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameReserve);
  encode_frame_into(out, seq, msg);
  return out;
}

Frame decode_payload(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    throw WireError("unsupported wire version " + std::to_string(version));
  }
  const std::uint16_t raw_type = r.u16();
  Frame frame;
  frame.seq = r.u32();
  frame.msg = decode_body(static_cast<MsgType>(raw_type), r);
  r.expect_end();
  return frame;
}

void FrameBuffer::append(const std::uint8_t* data, std::size_t n) {
  // Drop the consumed prefix first. The daemon and the client parse
  // every complete frame before they read again, so this moves at most
  // one partial frame, and the buffer stays as large as the largest
  // read instead of growing with the stream — a long-lived connection
  // reuses one allocation.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  if (buf_.size() + n > buf_.capacity()) {
    // Grow geometrically (insert alone would grow to the exact size, and
    // reallocate at every new largest read).
    buf_.reserve(std::max({kReadChunk, 2 * buf_.capacity(), buf_.size() + n}));
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameBuffer::next() {
  if (buffered() < 4) return std::nullopt;
  const std::uint8_t* p = buf_.data() + pos_;
  const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16) |
                            (static_cast<std::uint32_t>(p[3]) << 24);
  if (len > kMaxFramePayload) throw WireError("frame payload too large");
  if (buffered() < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  const std::span<const std::uint8_t> payload(buf_.data() + pos_ + 4, len);
  Frame frame = decode_payload(payload);
  pos_ += 4 + len;
  return frame;
}

}  // namespace acorn::service
