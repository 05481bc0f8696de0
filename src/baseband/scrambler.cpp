#include "baseband/scrambler.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace acorn::baseband {

namespace {

// The keystream period of the maximal-length 7-bit LFSR, 2^7 - 1.
constexpr std::size_t kPeriod = 127;

}  // namespace

Scrambler::Scrambler(std::uint8_t seed) : state_(0) { reset(seed); }

void Scrambler::reset(std::uint8_t seed) {
  if ((seed & 0x7F) == 0) {
    throw std::invalid_argument("scrambler seed must be nonzero");
  }
  state_ = static_cast<std::uint8_t>(seed & 0x7F);
}

std::uint8_t Scrambler::next_bit() {
  // Feedback = x^7 XOR x^4 (bits 6 and 3 of the 7-bit state).
  const std::uint8_t fb =
      static_cast<std::uint8_t>(((state_ >> 6) ^ (state_ >> 3)) & 1u);
  state_ = static_cast<std::uint8_t>(((state_ << 1) | fb) & 0x7F);
  return fb;
}

std::vector<std::uint8_t> Scrambler::process(
    std::span<const std::uint8_t> bits) {
  std::vector<std::uint8_t> out(bits.size());
  process_into(bits, out);
  return out;
}

void Scrambler::process_into(std::span<const std::uint8_t> bits,
                             std::span<std::uint8_t> out) {
  if (out.size() != bits.size()) {
    throw std::invalid_argument("scrambler output size mismatch");
  }
  // One keystream period from the current state; drawing it brings the
  // LFSR back to that state, so the stream is this block over and over.
  std::array<std::uint8_t, kPeriod> key;
  for (std::uint8_t& k : key) k = next_bit();
  const std::size_t n = bits.size();
  for (std::size_t start = 0; start < n; start += kPeriod) {
    const std::size_t len = std::min(kPeriod, n - start);
    const std::uint8_t* in = bits.data() + start;
    std::uint8_t* dst = out.data() + start;
    for (std::size_t i = 0; i < len; ++i) {
      dst[i] = static_cast<std::uint8_t>((in[i] ^ key[i]) & 1u);
    }
  }
  for (std::size_t i = 0; i < n % kPeriod; ++i) next_bit();
}

std::vector<std::uint8_t> scramble(std::span<const std::uint8_t> bits,
                                   std::uint8_t seed) {
  Scrambler s(seed);
  return s.process(bits);
}

}  // namespace acorn::baseband
