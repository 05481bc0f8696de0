// The pre-butterfly Viterbi decoder, kept verbatim as the correctness
// oracle for the fast trellis kernel (baseband/viterbi_kernel.hpp).
//
// It derives its own transition table straight from the generator
// polynomials — deliberately sharing nothing with the kernel — so the
// randomized equivalence suite pits two independent derivations of the
// K = 7 trellis against each other. Hard decoding through the kernel is
// bit-exact against this decoder; soft decoding is exact whenever the
// LLRs are integers within +/-viterbi::kSoftLevelMax (no quantization
// loss) and statistically equivalent otherwise. Test/bench use only (it
// lives in acorn_reference, which nothing under src/ links): it
// allocates per call and runs the slow scattered ACS on purpose.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace acorn::baseband::reference {

/// Hard-decision Viterbi decode of a rate-1/2 stream; bytes other than
/// 0/1 (e.g. kErasedBit) are erasures. Same contract as
/// ConvolutionalCode::decode.
std::vector<std::uint8_t> viterbi_decode(std::span<const std::uint8_t> coded,
                                         bool terminated = true);

/// Soft-decision Viterbi over per-bit LLRs (positive = bit 0, 0 =
/// erasure), double-precision correlation metric. Same contract as
/// ConvolutionalCode::decode_soft.
std::vector<std::uint8_t> viterbi_decode_soft(std::span<const double> llrs,
                                              bool terminated = true);

}  // namespace acorn::baseband::reference
