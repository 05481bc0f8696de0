#include "service/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "service/eventlog.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace acorn::service {
namespace {

// Structural equality via the codec itself: two messages are equal iff
// they encode to the same bytes (the codec is canonical — no padding,
// no optional fields).
std::vector<std::uint8_t> bytes_of(std::uint32_t seq, const Message& m) {
  return encode_frame(seq, m);
}

net::Channel random_channel(util::Rng& rng) {
  if (rng.uniform() < 0.5) {
    return net::Channel::basic(
        static_cast<int>(rng.uniform_int(0, 11)));
  }
  return net::Channel::bonded(static_cast<int>(rng.uniform_int(0, 5)));
}

std::string random_string(util::Rng& rng, int max_len) {
  const int n = static_cast<int>(rng.uniform_int(0, max_len));
  std::string s;
  s.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
  }
  return s;
}

std::vector<std::uint8_t> random_blob(util::Rng& rng, int max_len) {
  const int n = static_cast<int>(rng.uniform_int(0, max_len));
  std::vector<std::uint8_t> b;
  b.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    b.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  return b;
}

Message random_message(util::Rng& rng) {
  const auto u32 = [&rng] {
    return static_cast<std::uint32_t>(rng.next_u64());
  };
  const auto u64 = [&rng] { return rng.next_u64(); };
  switch (rng.uniform_int(0, 16)) {
    case 0:
      return RegisterWlan{u32(), random_string(rng, 200)};
    case 1:
      return RemoveWlan{u32()};
    case 2:
      return ClientJoin{u32(), u32()};
    case 3:
      return ClientLeave{u32(), u32()};
    case 4:
      return SnrUpdate{u32(), u32(), u32(), rng.uniform(-10.0, 150.0)};
    case 5:
      return LoadUpdate{u32(), u32(), rng.uniform()};
    case 6:
      return ForceReconfigure{u32()};
    case 7:
      return QueryConfig{u32()};
    case 8:
      return QueryStats{};
    case 9:
      return Shutdown{};
    case 10:
      return FollowLog{};
    case 11:
      return SnapshotFrame{random_blob(rng, 300)};
    case 12: {
      LogRecordFrame r;
      r.wlan_id = u32();
      r.record_seq = u64();
      r.payload = random_blob(rng, 120);
      return r;
    }
    case 13:
      return OkReply{static_cast<std::int32_t>(u32())};
    case 14:
      return ErrorReply{static_cast<std::uint16_t>(rng.uniform_int(1, 4)),
                        random_string(rng, 60)};
    case 15: {
      ConfigReply r;
      r.wlan_id = u32();
      r.epoch = u64();
      r.events_applied = u64();
      r.total_goodput_bps = rng.uniform(0.0, 1e9);
      const int n_clients = static_cast<int>(rng.uniform_int(0, 12));
      for (int i = 0; i < n_clients; ++i) {
        r.association.push_back(
            static_cast<int>(rng.uniform_int(-1, 5)));
      }
      const int n_aps = static_cast<int>(rng.uniform_int(0, 6));
      for (int i = 0; i < n_aps; ++i) {
        r.allocated.push_back(random_channel(rng));
        r.operating.push_back(random_channel(rng));
      }
      return r;
    }
    default: {
      StatsReply r;
      r.num_wlans = u32();
      r.frames_rx = u64();
      r.events_total = u64();
      r.protocol_errors = u64();
      r.epochs_total = u64();
      r.snapshots_written = u64();
      r.wal_records = u64();
      r.wal_flushes = u64();
      r.channel_switches = u64();
      r.width_switches = u64();
      r.assoc_changes = u64();
      r.alloc_evaluations = u64();
      r.oracle_cell_evals = u64();
      r.oracle_cell_hits = u64();
      r.oracle_share_evals = u64();
      r.oracle_share_hits = u64();
      r.last_epoch_ms = rng.uniform(0.0, 1e4);
      const int n = static_cast<int>(rng.uniform_int(0, 32));
      for (int i = 0; i < n; ++i) r.latency_us_log2.push_back(u64());
      r.wal_syncs = u64();
      r.wal_coalesced_events = u64();
      const int n_sync = static_cast<int>(rng.uniform_int(0, 32));
      for (int i = 0; i < n_sync; ++i) r.wal_sync_us_log2.push_back(u64());
      const int n_batch = static_cast<int>(rng.uniform_int(0, 32));
      for (int i = 0; i < n_batch; ++i) r.wal_batch_log2.push_back(u64());
      return r;
    }
  }
}

// One fixed instance of every message type and its frame bytes. Round
// trips cannot catch a layout change made on both the encode and the
// decode side; these pin the layout itself. Every field holds a distinct
// non-zero value, so reordered fields show up too.
constexpr std::uint32_t kGoldenSeq = 0x0a0b0c0d;

struct GoldenFrame {
  Message msg;
  std::string hex;
};

std::vector<GoldenFrame> golden_frames() {
  ConfigReply config;
  config.wlan_id = 12;
  config.epoch = 13;
  config.events_applied = 14;
  config.total_goodput_bps = 1.5e8;
  config.association = {0, -1, 2};
  config.allocated = {net::Channel::bonded(1), net::Channel::basic(5)};
  config.operating = {net::Channel::basic(3), net::Channel::basic(5)};
  StatsReply stats;
  stats.num_wlans = 1;
  stats.frames_rx = 2;
  stats.events_total = 3;
  stats.protocol_errors = 4;
  stats.epochs_total = 5;
  stats.snapshots_written = 6;
  stats.wal_records = 7;
  stats.wal_flushes = 8;
  stats.channel_switches = 9;
  stats.width_switches = 10;
  stats.assoc_changes = 11;
  stats.alloc_evaluations = 12;
  stats.oracle_cell_evals = 13;
  stats.oracle_cell_hits = 14;
  stats.oracle_share_evals = 15;
  stats.oracle_share_hits = 16;
  stats.last_epoch_ms = 2.5;
  stats.latency_us_log2 = {17, 18};
  stats.wal_syncs = 19;
  stats.wal_coalesced_events = 20;
  stats.wal_sync_us_log2 = {21};
  stats.wal_batch_log2 = {22, 23};
  return {
      {RegisterWlan{0x01020304, "ap 0 0\n"},
       "17000000020001000d0c0b0a04030201070000006170203020300a"},
      {RemoveWlan{7}, "0c000000020002000d0c0b0a07000000"},
      {ClientJoin{1, 2}, "10000000020003000d0c0b0a0100000002000000"},
      {ClientLeave{3, 4}, "10000000020004000d0c0b0a0300000004000000"},
      {SnrUpdate{5, 6, 7, 95.5},
       "1c000000020005000d0c0b0a0500000006000000070000000000000000e05740"},
      {LoadUpdate{8, 9, 0.25},
       "18000000020006000d0c0b0a0800000009000000000000000000d03f"},
      {ForceReconfigure{10}, "0c000000020007000d0c0b0a0a000000"},
      {QueryConfig{11}, "0c000000020008000d0c0b0a0b000000"},
      {QueryStats{}, "08000000020009000d0c0b0a"},
      {Shutdown{}, "0800000002000a000d0c0b0a"},
      {FollowLog{}, "0800000002000b000d0c0b0a"},
      {OkReply{-2}, "0c000000020064000d0c0b0afeffffff"},
      {ErrorReply{4, "bad"}, "11000000020065000d0c0b0a040003000000626164"},
      {config,
       "50000000020066000d0c0b0a0c0000000d000000000000000e00000000000000"
       "00000000a3e1a1410300000000000000ffffffff020000000200000001020000"
       "0000050000000200000000030000000005000000"},
      {stats,
       "d0000000020067000d0c0b0a0100000002000000000000000300000000000000"
       "0400000000000000050000000000000006000000000000000700000000000000"
       "080000000000000009000000000000000a000000000000000b00000000000000"
       "0c000000000000000d000000000000000e000000000000000f00000000000000"
       "1000000000000000000000000000044002000000110000000000000012000000"
       "0000000013000000000000001400000000000000010000001500000000000000"
       "0200000016000000000000001700000000000000"},
      {SnapshotFrame{{0xde, 0xad, 0xbe, 0xef}},
       "10000000020068000d0c0b0a04000000deadbeef"},
      {LogRecordFrame{15, 0x0102030405060708ull, {0xaa, 0xbb}},
       "1a000000020069000d0c0b0a0f000000080706050403020102000000aabb"},
  };
}

TEST(ServiceWire, GoldenFramesPinTheLayout) {
  std::set<std::uint16_t> types;
  for (const GoldenFrame& golden : golden_frames()) {
    const auto type = static_cast<std::uint16_t>(type_of(golden.msg));
    SCOPED_TRACE("type " + std::to_string(type));
    types.insert(type);
    EXPECT_EQ(testutil::to_hex(encode_frame(kGoldenSeq, golden.msg)),
              golden.hex);
    // The pinned bytes decode to the same message.
    const std::vector<std::uint8_t> pinned = testutil::from_hex(golden.hex);
    FrameBuffer buffer;
    buffer.append(pinned.data(), pinned.size());
    const std::optional<Frame> f = buffer.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->seq, kGoldenSeq);
    EXPECT_EQ(type_of(f->msg), type_of(golden.msg));
    EXPECT_EQ(encode_frame(kGoldenSeq, f->msg), pinned);
  }
  EXPECT_EQ(types.size(), std::variant_size_v<Message>);
}

TEST(ServiceWire, RandomizedRoundTripAllTypes) {
  util::Rng rng(0xAC0121);
  FrameBuffer buffer;
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint32_t seq = static_cast<std::uint32_t>(rng.next_u64());
    const Message msg = random_message(rng);
    const std::vector<std::uint8_t> wire = encode_frame(seq, msg);
    // Feed the stream in random-sized chunks, as a socket would.
    std::size_t off = 0;
    std::optional<Frame> got;
    while (off < wire.size()) {
      ASSERT_FALSE(got.has_value());
      const std::size_t n = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(wire.size() - off)));
      buffer.append(wire.data() + off, n);
      off += n;
      if (auto f = buffer.next()) got = std::move(f);
    }
    ASSERT_TRUE(got.has_value()) << "trial " << trial;
    EXPECT_EQ(got->seq, seq);
    EXPECT_EQ(type_of(got->msg), type_of(msg));
    EXPECT_EQ(bytes_of(seq, got->msg), wire) << "trial " << trial;
    EXPECT_EQ(buffer.buffered(), 0u);
  }
}

// The in-place encoders append exactly the one-shot encoders' bytes
// after whatever the buffer already holds: the length prefix is patched
// at the frame's own offset, and a segment record's checksum covers the
// appended record alone.
TEST(ServiceWire, InPlaceEncodersAppendTheOneShotBytes) {
  util::Rng rng(0x1A1ACE);
  std::vector<std::uint8_t> frames = {0xde, 0xad};
  std::vector<std::uint8_t> payloads = {0xbe};
  std::vector<std::uint8_t> records = {0xef, 0x01, 0x02};
  const auto tail = [](const std::vector<std::uint8_t>& buf, std::size_t at) {
    return std::vector<std::uint8_t>(
        buf.begin() + static_cast<std::ptrdiff_t>(at), buf.end());
  };
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto seq = static_cast<std::uint32_t>(rng.next_u64());
    const Message msg = random_message(rng);

    const std::vector<std::uint8_t> frame = encode_frame(seq, msg);
    std::size_t at = frames.size();
    encode_frame_into(frames, seq, msg);
    ASSERT_EQ(tail(frames, at), frame);

    const std::vector<std::uint8_t> payload = encode_payload(seq, msg);
    at = payloads.size();
    encode_payload_into(payloads, seq, msg);
    ASSERT_EQ(tail(payloads, at), payload);
    // A frame is its payload behind a u32 length prefix.
    ASSERT_EQ(std::vector<std::uint8_t>(frame.begin() + 4, frame.end()),
              payload);
    ASSERT_EQ(frame[0] | (frame[1] << 8) | (frame[2] << 16) |
                  (static_cast<std::uint32_t>(frame[3]) << 24),
              payload.size());

    const auto wlan_id = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint64_t record_seq = rng.next_u64();
    at = records.size();
    encode_segment_record_into(records, wlan_id, record_seq, payload);
    const std::vector<std::uint8_t> record = tail(records, at);
    ASSERT_EQ(record, encode_segment_record(wlan_id, record_seq, payload));
    const std::span<const std::uint8_t> body(record.data(),
                                             record.size() - 8);
    ByteReader trailer(std::span<const std::uint8_t>(record).last(8));
    ASSERT_EQ(trailer.get<std::uint64_t>(), fnv1a(body));
  }
}

TEST(ServiceWire, PipelinedFramesComeBackInOrder) {
  util::Rng rng(7);
  std::vector<Message> msgs;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 40; ++i) {
    msgs.push_back(random_message(rng));
    const auto wire =
        encode_frame(static_cast<std::uint32_t>(i), msgs.back());
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  FrameBuffer buffer;
  buffer.append(stream.data(), stream.size());
  for (int i = 0; i < 40; ++i) {
    const std::optional<Frame> f = buffer.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->seq, static_cast<std::uint32_t>(i));
    EXPECT_EQ(bytes_of(f->seq, f->msg),
              bytes_of(f->seq, msgs[static_cast<std::size_t>(i)]));
  }
  EXPECT_FALSE(buffer.next().has_value());
}

TEST(ServiceWire, TruncatedFrameIsNotAnError) {
  const std::vector<std::uint8_t> wire =
      encode_frame(9, SnrUpdate{1, 2, 3, 95.5});
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameBuffer buffer;
    buffer.append(wire.data(), cut);
    EXPECT_FALSE(buffer.next().has_value()) << "cut at " << cut;
    buffer.append(wire.data() + cut, wire.size() - cut);
    EXPECT_TRUE(buffer.next().has_value()) << "cut at " << cut;
  }
}

TEST(ServiceWire, GarbageLengthPrefixRejected) {
  // Length prefix above kMaxFramePayload: reject immediately, without
  // waiting for (or allocating) the impossible payload.
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  FrameBuffer buffer;
  buffer.append(prefix, 4);
  EXPECT_THROW(buffer.next(), WireError);
}

TEST(ServiceWire, UndersizedPayloadRejected) {
  // A 3-byte payload cannot hold the [version][type][seq] header.
  const std::uint8_t wire[] = {3, 0, 0, 0, 1, 0, 1};
  FrameBuffer buffer;
  buffer.append(wire, sizeof(wire));
  EXPECT_THROW(buffer.next(), WireError);
}

TEST(ServiceWire, BadVersionAndTypeRejected) {
  std::vector<std::uint8_t> wire = encode_frame(1, QueryStats{});
  {
    std::vector<std::uint8_t> bad = wire;
    bad[4] = 0xff;  // version low byte
    FrameBuffer buffer;
    buffer.append(bad.data(), bad.size());
    EXPECT_THROW(buffer.next(), WireError);
  }
  {
    std::vector<std::uint8_t> bad = wire;
    bad[6] = 0x7f;  // type low byte -> unknown
    FrameBuffer buffer;
    buffer.append(bad.data(), bad.size());
    EXPECT_THROW(buffer.next(), WireError);
  }
}

TEST(ServiceWire, TruncatedBodyAndTrailingBytesRejected) {
  const std::vector<std::uint8_t> wire =
      encode_frame(3, SnrUpdate{1, 2, 3, 95.5});
  {
    // Shrink the body by one byte but fix up the length prefix so the
    // frame "completes": decode must throw, not read out of bounds.
    std::vector<std::uint8_t> bad(wire.begin(), wire.end() - 1);
    const std::uint32_t len =
        static_cast<std::uint32_t>(bad.size()) - 4;
    for (int i = 0; i < 4; ++i) {
      bad[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
    FrameBuffer buffer;
    buffer.append(bad.data(), bad.size());
    EXPECT_THROW(buffer.next(), WireError);
  }
  {
    std::vector<std::uint8_t> bad = wire;
    bad.push_back(0xee);
    const std::uint32_t len =
        static_cast<std::uint32_t>(bad.size()) - 4;
    for (int i = 0; i < 4; ++i) {
      bad[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
    FrameBuffer buffer;
    buffer.append(bad.data(), bad.size());
    EXPECT_THROW(buffer.next(), WireError);
  }
}

TEST(ServiceWire, MalformedChannelRejected) {
  // Hand-craft a ConfigReply whose channel word claims a bonded channel
  // on an odd primary (bonded primaries are always even).
  std::vector<std::uint8_t> payload;
  ByteWriter w(payload);
  w.put(kWireVersion, static_cast<std::uint16_t>(MsgType::kConfigReply));
  w.put(std::uint32_t{1});     // seq
  w.put(std::uint32_t{5});     // wlan_id
  w.put(std::uint64_t{0});     // epoch
  w.put(std::uint64_t{0});     // events_applied
  w.put(0.0);                  // total_goodput_bps
  w.put(std::uint32_t{0});     // association: empty
  w.put(std::uint32_t{1});     // allocated: one channel
  w.put(std::uint8_t{1});      // bonded
  w.put(std::int32_t{3});      // odd primary -> invalid
  w.put(std::uint32_t{0});     // operating: empty
  EXPECT_THROW(decode_payload(payload), WireError);
}

// A count the remaining bytes cannot back is refused before anything is
// reserved for it, so a hostile length never becomes a huge allocation.
TEST(ServiceWire, HostileCountIsRefusedBeforeReserving) {
  for (const std::uint32_t count : {3u, 0xffffffffu}) {
    std::vector<std::uint8_t> payload;
    ByteWriter w(payload);
    w.put(kWireVersion, static_cast<std::uint16_t>(MsgType::kConfigReply),
          std::uint32_t{1});  // seq
    w.put(std::uint32_t{5}, std::uint64_t{0}, std::uint64_t{0}, 0.0);
    w.put(count, std::int32_t{0});  // association: one entry present
    try {
      decode_payload(payload);
      ADD_FAILURE() << "count " << count << " decoded";
    } catch (const WireError& e) {
      EXPECT_STREQ(e.what(), "element count exceeds the bytes left");
    }
  }
}

TEST(ServiceWire, DoubleBitPatternsSurvive) {
  // Doubles travel as IEEE-754 bit patterns: denormals, infinities and
  // negative zero all round-trip bit-exactly.
  for (double v : {0.0, -0.0, 1e-310, 95.5,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::max()}) {
    const std::vector<std::uint8_t> wire =
        encode_frame(1, SnrUpdate{0, 0, 0, v});
    FrameBuffer buffer;
    buffer.append(wire.data(), wire.size());
    const std::optional<Frame> f = buffer.next();
    ASSERT_TRUE(f.has_value());
    const auto& snr = std::get<SnrUpdate>(f->msg);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(snr.loss_db),
              std::bit_cast<std::uint64_t>(v));
  }
}

}  // namespace
}  // namespace acorn::service
