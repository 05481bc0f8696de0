// Shared per-packet statistics of the Monte-Carlo chains. The packet
// loops themselves run on util::parallel_for (util/parallel.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace acorn::baseband {

/// Bit errors between two equal-length streams of 0/1 bytes. Branchless
/// (XOR-and-sum vectorizes; compare-and-branch mispredicts on every
/// error) — shared by the per-packet stats of every chain.
inline std::int64_t count_bit_errors(std::span<const std::uint8_t> sent,
                                     std::span<const std::uint8_t> received) {
  std::int64_t errors = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    errors += sent[i] ^ received[i];
  }
  return errors;
}

}  // namespace acorn::baseband
