// Butterfly-structured Viterbi trellis kernel for the K = 7 (64-state)
// 802.11 convolutional code.
//
// The forward pass is reorganised from the textbook "for each state, for
// each input" scatter into 32 in-place butterflies: old states (2j, 2j+1)
// feed exactly new states (j, j+32), so one pass over a flat 64-entry
// metric array reads two adjacent metrics and writes two contiguous
// halves — no scattered next_metric[t.next_state] stores, no per-step
// array copy (the two metric buffers are pointer-swapped).
//
// Branch metrics collapse to two per-step "levels" (L0, L1), one per
// coded-bit position: because both generators (0133, 0171) tap bit 0 and
// bit 6 of the shift register, complementing either the oldest state bit
// or the input bit flips *both* output bits, so the four out-pair classes
// are (+t, -t, -t, +t) with t_j = S0[j]*L0 + S1[j]*L1 and S0/S1 fixed
// sign tables. Hard decisions map to levels in {-1, 0, +1} (0 = erasure)
// and stay *bit-exact* with the classic decoder — the integer metric is
// an affine transform (x2, minus a per-step constant) of the Hamming
// metric, and ties break the same way (even predecessor wins). Soft
// LLRs quantize to saturated int16 levels in [-kSoftLevelMax,
// kSoftLevelMax].
//
// Survivors shrink from 64 bytes/step to one std::uint64_t decision
// bitmask per step (bit s = "odd predecessor won at new state s"),
// cutting traceback memory traffic 64x. Metrics are normalised by a
// periodic subtract-min instead of an infinity sentinel, which keeps
// everything in int16 range (see kUnreachable / kNormInterval bounds in
// the .cpp).
//
// Two implementations share the exact same integer arithmetic: a GCC/
// Clang vector-extension kernel (16-lane int16 add-compare-select over a
// relabelled state order, with x86 byte movemasks for the decision
// words; compiled for x86 with SSE2, in an AVX2 and a baseline version)
// and a scalar fallback. forward() dispatches at compile time; both are
// exposed so tests can pit them against each other and against the
// pre-butterfly reference decoder, which lives outside the shipped
// libraries in the test-only acorn_reference (reference/baseband/).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace acorn::baseband::viterbi {

inline constexpr int kNumStates = 64;

/// Largest magnitude of a quantized soft level. 8-bit LLR quantization
/// is already generous next to the 3-6 bits commodity receivers use; the
/// int16 overflow budget in the kernel assumes levels stay within it.
inline constexpr int kSoftLevelMax = 255;

/// Initial metric of the 63 states the encoder cannot be in at t = 0.
/// Large enough that a path seeded from one strictly loses every merge
/// until real paths have reached all 64 states (6 steps), small enough
/// that int16 never overflows before the first normalization.
inline constexpr std::int16_t kUnreachable = 12288;

/// Steps between subtract-min metric normalizations.
inline constexpr std::size_t kNormInterval = 16;

/// Add-compare-select over `steps` trellis steps. `levels` holds two
/// int16 entries per step (L0, L1); the branch metric of a transition
/// with output pair (o0, o1) is (2*o0-1)*L0 + (2*o1-1)*L1. Writes one
/// decision bitmask per step into `decisions` and the 64 final state
/// metrics into `final_metric`. Dispatches to the SIMD kernel when the
/// build has one, else to the scalar butterfly.
void forward(const std::int16_t* levels, std::size_t steps,
             std::uint64_t* decisions, std::int16_t* final_metric);

/// The scalar butterfly, always compiled; bit-identical (decisions and
/// metrics) to the SIMD kernel.
void forward_scalar(const std::int16_t* levels, std::size_t steps,
                    std::uint64_t* decisions, std::int16_t* final_metric);

/// True when forward() runs the vector-extension kernel.
bool simd_active();

/// Walk the decision bitmasks backwards. Starts from state 0 when
/// `terminated`, else from the best final metric (first minimum, to
/// match the reference decoder's min_element tie-break). Steps beyond
/// out.size() — the tail of a terminated stream — are traversed but not
/// emitted.
void traceback(const std::uint64_t* decisions, std::size_t steps,
               bool terminated, const std::int16_t* final_metric,
               std::span<std::uint8_t> out);

/// Map hard coded bits to branch levels: 0 -> +1, 1 -> -1, anything
/// else (e.g. kErasedBit) -> 0, matching the reference decoder where a
/// non-bit byte costs both hypotheses equally. Writes coded.size()
/// entries.
void levels_from_hard(std::span<const std::uint8_t> coded,
                      std::int16_t* levels);

/// Quantize soft LLRs (positive = bit 0) to int16 levels, scaled so the
/// largest magnitude maps to kSoftLevelMax (all-zero input stays zero).
/// Writes llrs.size() entries.
void levels_from_soft(std::span<const double> llrs, std::int16_t* levels);

}  // namespace acorn::baseband::viterbi
