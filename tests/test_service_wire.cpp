#include "service/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "service/eventlog.hpp"
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
    ASSERT_EQ(trailer.u64(), fnv1a(body));
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
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(MsgType::kConfigReply));
  w.u32(1);     // seq
  w.u32(5);     // wlan_id
  w.u64(0);     // epoch
  w.u64(0);     // events_applied
  w.f64(0.0);   // total_goodput_bps
  w.u32(0);     // association: empty
  w.u32(1);     // allocated: one channel
  w.u8(1);      // bonded
  w.i32(3);     // odd primary -> invalid
  w.u32(0);     // operating: empty
  EXPECT_THROW(decode_payload(payload), WireError);
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
