// The 802.11 frame-synchronous scrambler: a 7-bit LFSR with polynomial
// x^7 + x^4 + 1 whitens the payload so the OFDM waveform has no strong
// spectral lines regardless of content. Self-inverse: descrambling is
// scrambling with the same seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace acorn::baseband {

class Scrambler {
 public:
  /// `seed` is the 7-bit initial LFSR state; must be nonzero (the
  /// standard picks a pseudo-random nonzero seed per frame).
  explicit Scrambler(std::uint8_t seed = 0x5D);

  /// Next keystream bit.
  std::uint8_t next_bit();

  /// Scramble (or descramble) a bitstream. Resets nothing: consecutive
  /// calls continue the keystream.
  std::vector<std::uint8_t> process(std::span<const std::uint8_t> bits);

  /// Allocation-free variant: `out.size()` must equal `bits.size()`.
  /// In-place operation (out aliasing bits) is fine. Draws one 127-bit
  /// keystream period from the current state and XORs it blockwise; the
  /// output and the state it leaves equal `bits.size()` next_bit() calls.
  void process_into(std::span<const std::uint8_t> bits,
                    std::span<std::uint8_t> out);

  /// Reset the LFSR to a seed.
  void reset(std::uint8_t seed);

 private:
  std::uint8_t state_;
};

/// One-shot helpers (fresh scrambler per call).
std::vector<std::uint8_t> scramble(std::span<const std::uint8_t> bits,
                                   std::uint8_t seed = 0x5D);
inline std::vector<std::uint8_t> descramble(
    std::span<const std::uint8_t> bits, std::uint8_t seed = 0x5D) {
  return scramble(bits, seed);
}

}  // namespace acorn::baseband
