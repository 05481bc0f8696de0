#include "service/wire.hpp"

#include <algorithm>

namespace acorn::service {

namespace {

/// The decoder picks a message by its tag, so no two may share one.
template <typename... Ts>
constexpr bool distinct_tags(std::type_identity<std::variant<Ts...>>) {
  const MsgType tags[] = {Ts::kType...};
  for (std::size_t i = 0; i < sizeof...(Ts); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (tags[i] == tags[j]) return false;
    }
  }
  return true;
}
static_assert(distinct_tags(std::type_identity<Message>{}),
              "two messages share a wire tag");

/// Decode the body of the Message alternative tagged `type` into `out`.
template <std::size_t I = 0>
void decode_message(std::uint16_t type, ByteReader& r, Message& out) {
  if constexpr (I == std::variant_size_v<Message>) {
    throw WireError("unknown message type " + std::to_string(type));
  } else {
    using T = std::variant_alternative_t<I, Message>;
    if (type == static_cast<std::uint16_t>(T::kType)) {
      out.emplace<I>(r.get<T>());
    } else {
      decode_message<I + 1>(type, r, out);
    }
  }
}

/// Small frames (every update and its reply) fit in one allocation.
constexpr std::size_t kFrameReserve = 64;

void write_payload(ByteWriter& w, std::uint32_t seq, const Message& msg) {
  std::visit(
      [&](const auto& m) {
        w.put(kWireVersion, static_cast<std::uint16_t>(m.kType), seq, m);
      },
      msg);
}

}  // namespace

net::Channel ByteReader::channel() {
  const auto bonded = get<std::uint8_t>();
  const auto primary = get<std::int32_t>();
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
  w.put(std::uint32_t{0});  // length prefix, patched below
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
  const auto version = r.get<std::uint16_t>();
  if (version != kWireVersion) {
    throw WireError("unsupported wire version " + std::to_string(version));
  }
  const auto type = r.get<std::uint16_t>();
  Frame frame;
  frame.seq = r.get<std::uint32_t>();
  decode_message(type, r, frame.msg);
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
