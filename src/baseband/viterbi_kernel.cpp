#include "baseband/viterbi_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/vector_kernel.hpp"

#if defined(__x86_64__)
#include <immintrin.h>  // declares the AVX2 builtins DecisionBits256 uses
#endif

// The SIMD kernel takes its decision words from SSE2's byte movemask;
// on targets without SSE2 the scalar butterfly below is the kernel.
#if defined(__SSE2__)
#define ACORN_VITERBI_SIMD 1
#else
#define ACORN_VITERBI_SIMD 0
#endif

namespace acorn::baseband::viterbi {

namespace {

// Sign of the two output bits of the branch (old state 2j, input 0),
// mapped 0 -> -1, 1 -> +1: S[j] = 2 * parity(2j & G) - 1. Flipping the
// oldest state bit (2j -> 2j+1) or the input bit flips both signs, which
// is what collapses the four branch-metric classes to +/-t_j.
constexpr std::int16_t kS0[32] = {
    -1, 1, -1, 1, 1, -1, 1, -1, 1, -1, 1, -1, -1, 1, -1, 1,
    -1, 1, -1, 1, 1, -1, 1, -1, 1, -1, 1, -1, -1, 1, -1, 1};
constexpr std::int16_t kS1[32] = {
    -1, -1, -1, -1, 1, 1, 1, 1, 1,  1,  1,  1,  -1, -1, -1, -1,
    1,  1,  1,  1,  -1, -1, -1, -1, -1, -1, -1, -1, 1,  1,  1,  1};

// Overflow budget (int16, worst case soft levels |L| <= 255 so a step
// moves any metric by at most 510):
//  - between normalizations the running max grows by <= 16 * 510 and the
//    min drops by >= -16 * 510;
//  - right after a subtract-min the spread is bounded by the trellis
//    merge depth: (K-1) * (bm_max - bm_min) = 6 * 1020 = 6120;
//  - the kUnreachable = 12288 seeds strictly lose every merge for the
//    first 6 steps (12288 - 6*510 > 6*510) and are extinct before the
//    first normalization.
// Peak magnitude: max(12288 + 6*510, 6120 + 16*510) = 15348 << 32767.

inline void init_metrics(std::int16_t* m) {
  for (int s = 0; s < kNumStates; ++s) m[s] = kUnreachable;
  m[0] = 0;  // the encoder starts in state 0
}

inline void normalize(std::int16_t* m) {
  std::int16_t lo = m[0];
  for (int s = 1; s < kNumStates; ++s) lo = std::min(lo, m[s]);
  for (int s = 0; s < kNumStates; ++s)
    m[s] = static_cast<std::int16_t>(m[s] - lo);
}

}  // namespace

void forward_scalar(const std::int16_t* levels, std::size_t steps,
                    std::uint64_t* decisions, std::int16_t* final_metric) {
  alignas(64) std::int16_t bufs[2][kNumStates];
  std::int16_t* cur = bufs[0];
  std::int16_t* nxt = bufs[1];
  init_metrics(cur);
  for (std::size_t step = 0; step < steps; ++step) {
    const int l0 = levels[2 * step];
    const int l1 = levels[2 * step + 1];
    std::uint64_t dec = 0;
    for (int j = 0; j < 32; ++j) {
      const int t = kS0[j] * l0 + kS1[j] * l1;
      const int e = cur[2 * j];
      const int o = cur[2 * j + 1];
      // New state j: branch metrics +t from 2j, -t from 2j+1. Ties keep
      // the even predecessor (matches the reference decoder).
      const int ce = e + t;
      const int co = o - t;
      const bool dl = co < ce;
      nxt[j] = static_cast<std::int16_t>(dl ? co : ce);
      dec |= static_cast<std::uint64_t>(dl) << j;
      // New state j+32: the input bit flips both outputs, so the branch
      // metrics swap sign.
      const int ch = e - t;
      const int oh = o + t;
      const bool dh = oh < ch;
      nxt[32 + j] = static_cast<std::int16_t>(dh ? oh : ch);
      dec |= static_cast<std::uint64_t>(dh) << (32 + j);
    }
    decisions[step] = dec;
    std::swap(cur, nxt);
    if ((step + 1) % kNormInterval == 0) normalize(cur);
  }
  std::memcpy(final_metric, cur, kNumStates * sizeof(std::int16_t));
}

#if ACORN_VITERBI_SIMD

namespace {

typedef std::int16_t V16 __attribute__((vector_size(32)));
typedef char V32b __attribute__((vector_size(32)));
typedef char V16b __attribute__((vector_size(16)));

// Relabelled state order. The kernel keeps the 64 metrics in four
// 16-lane registers, and lane l = 8*H + 4*W2 + 2*W1 + W0 (H picks the
// 128-bit half). State s (bits s5..s0) lives in register 2*s4 + s0, at
// lane H = s5, W2 = s1, W1 = s2, W0 = s3. Registers 0/1 and 2/3 are then
// the even/odd predecessors of the same butterflies, lane for lane, so
// the ACS reads its inputs with no deinterleave. Its outputs come out
// in the order the step's shift left it (new state j + 32*hi sits in
// register 2*j3 + hi at lane H = j4, W2 = j0, W1 = j1, W0 = j2); one
// in-lane 16-bit interleave and one exchange of 128-bit halves put them
// back into this order for the next step.
constexpr int reg_of(int s) { return ((s >> 4) & 1) << 1 | (s & 1); }
constexpr int lane_of(int s) {
  return ((s >> 5) & 1) << 3 | ((s >> 1) & 1) << 2 | ((s >> 2) & 1) << 1 |
         ((s >> 3) & 1);
}
// Butterfly j whose even predecessor 2j sits at lane `lane` of register
// 2*g: the inverse of reg_of/lane_of on even states.
constexpr int butterfly_of(int g, int lane) {
  return ((lane >> 3) & 1) << 4 | g << 3 | (lane & 1) << 2 |
         ((lane >> 1) & 1) << 1 | ((lane >> 2) & 1);
}

// Branch signs of register pair 0's lanes. Pair 1 holds butterflies
// j + 8, and kS0[j + 8] = -kS0[j], kS1[j + 8] = -kS1[j], so its t is
// pair 0's negated: it takes the same vector with + and - swapped.
struct PairSigns {
  std::int16_t s0[16];
  std::int16_t s1[16];
};
constexpr PairSigns pair0_signs() {
  PairSigns p{};
  for (int l = 0; l < 16; ++l) {
    p.s0[l] = kS0[butterfly_of(0, l)];
    p.s1[l] = kS1[butterfly_of(0, l)];
  }
  return p;
}
constexpr PairSigns kPair0 = pair0_signs();
static_assert(kS0[8] == -kS0[0] && kS1[8] == -kS1[0] &&
              kS0[29] == -kS0[21] && kS1[29] == -kS1[21]);

// Byte b of a register pair's decision mask belongs to new state b (the
// j outputs) or 32 + b (the j + 32 outputs): the low byte of the int16
// compare lane that holds it, in register g = b3 of the pair. Every
// byte stays in its 128-bit half (b4 = H).
struct DecisionBytes {
  int index[32];     // byte of the pair (d0, d1) viewed as 64 bytes
  char packed[32];   // byte of the AVX2 saturating pack, within a half
};
constexpr DecisionBytes decision_bytes() {
  DecisionBytes d{};
  for (int b = 0; b < 32; ++b) {
    const int g = (b >> 3) & 1;
    const int lane = (b >> 4) << 3 | (b & 1) << 2 | ((b >> 1) & 1) << 1 |
                     ((b >> 2) & 1);
    d.index[b] = 32 * g + 2 * lane;
    // The pack puts, in each half, d0's eight lanes, then d1's.
    d.packed[b] = static_cast<char>(8 * g + (lane & 7));
  }
  return d;
}
constexpr DecisionBytes kDecisionBytes = decision_bytes();

using util::vload;
using util::vstore;

// A register pair's 32 decision bits in state order, from its compare
// results (lanes 0 or -1). Generic vectors have no byte movemask, so it
// comes from the x86 builtins. SSE2's takes 16 bytes: the bytes are
// gathered within their halves, and the upper half costs a cross-lane
// extract.
struct DecisionBits128 {
  template <std::size_t... I>
  ACORN_VECTOR_INLINE static V32b gather(V16 d0, V16 d1,
                                         std::index_sequence<I...>) {
    return __builtin_shufflevector(reinterpret_cast<V32b>(d0),
                                   reinterpret_cast<V32b>(d1),
                                   kDecisionBytes.index[I]...);
  }
  ACORN_VECTOR_INLINE std::uint32_t operator()(V16 d0, V16 d1) const {
    const V32b v = gather(d0, d1, std::make_index_sequence<32>{});
    const V16b lo = __builtin_shufflevector(v, v, 0, 1, 2, 3, 4, 5, 6, 7, 8,
                                            9, 10, 11, 12, 13, 14, 15);
    const V16b hi = __builtin_shufflevector(v, v, 16, 17, 18, 19, 20, 21,
                                            22, 23, 24, 25, 26, 27, 28, 29,
                                            30, 31);
    return static_cast<std::uint32_t>(__builtin_ia32_pmovmskb128(lo)) |
           static_cast<std::uint32_t>(__builtin_ia32_pmovmskb128(hi)) << 16;
  }
};

#if ACORN_VECTOR_CLONES
// AVX2: one saturating byte pack, one byte shuffle within halves and one
// 32-byte movemask. Only ever inlined into the AVX2 forward_simd, the
// one place its builtins are expanded.
struct DecisionBits256 {
  ACORN_VECTOR_INLINE std::uint32_t operator()(V16 d0, V16 d1) const {
    typedef short H16 __attribute__((vector_size(32)));
    const V32b packed = __builtin_ia32_packsswb256(reinterpret_cast<H16>(d0),
                                                   reinterpret_cast<H16>(d1));
    const V32b order = vload<V32b>(kDecisionBytes.packed);
    return static_cast<std::uint32_t>(__builtin_ia32_pmovmskb256(
        __builtin_ia32_pshufb256(packed, order)));
  }
};
#endif

ACORN_VECTOR_INLINE V16 vmin(V16 a, V16 b) { return a < b ? a : b; }

ACORN_VECTOR_INLINE std::int16_t hmin(V16 v) {
  v = vmin(v, __builtin_shufflevector(v, v, 8, 9, 10, 11, 12, 13, 14, 15,
                                      0, 1, 2, 3, 4, 5, 6, 7));
  v = vmin(v, __builtin_shufflevector(v, v, 4, 5, 6, 7, 0, 1, 2, 3, 12, 13,
                                      14, 15, 8, 9, 10, 11));
  v = vmin(v, __builtin_shufflevector(v, v, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11,
                                      8, 9, 14, 15, 12, 13));
  v = vmin(v, __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6, 9, 8,
                                      11, 10, 13, 12, 15, 14));
  return v[0];
}

template <typename DecisionBits>
ACORN_VECTOR_INLINE void forward_body(const std::int16_t* levels,
                                      std::size_t steps,
                                      std::uint64_t* decisions,
                                      std::int16_t* final_metric) {
  const DecisionBits decision_bits;
  const V16 s0 = vload<V16>(kPair0.s0);
  const V16 s1 = vload<V16>(kPair0.s1);

  V16 e0;  // even predecessors, pair 0
  V16 o0;  // odd predecessors, pair 0
  V16 e1;
  V16 o1;
  {
    std::int16_t init[kNumStates];
    std::int16_t m[4][16];
    init_metrics(init);
    for (int s = 0; s < kNumStates; ++s) m[reg_of(s)][lane_of(s)] = init[s];
    e0 = vload<V16>(m[0]);
    o0 = vload<V16>(m[1]);
    e1 = vload<V16>(m[2]);
    o1 = vload<V16>(m[3]);
  }

  // One trellis step on the registers above; normalization comes after
  // every kNormInterval-th step, outside the loop below.
  const auto acs = [&](std::size_t step) __attribute__((always_inline)) {
    const std::int16_t l0 = levels[2 * step];
    const std::int16_t l1 = levels[2 * step + 1];
    const V16 t = s0 * l0 + s1 * l1;  // pair 0's t_j; pair 1's is -t_j

    // New state j: even + t vs odd - t; strict < keeps the even
    // predecessor on ties, exactly like the scalar butterfly. New state
    // j + 32: the signs swap. (The j outputs are finished before the
    // j + 32 ones start: that keeps the live vectors within the 16 ymm
    // registers, so the metrics never round-trip through the stack.)
    const V16 ce0 = e0 + t;
    const V16 co0 = o0 - t;
    const V16 ce1 = e1 - t;
    const V16 co1 = o1 + t;
    const std::uint32_t dec_lo = decision_bits(co0 < ce0, co1 < ce1);
    const V16 lo0 = vmin(co0, ce0);
    const V16 lo1 = vmin(co1, ce1);
    const V16 ch0 = e0 - t;
    const V16 oh0 = o0 + t;
    const V16 ch1 = e1 + t;
    const V16 oh1 = o1 - t;
    const std::uint32_t dec_hi = decision_bits(oh0 < ch0, oh1 < ch1);
    decisions[step] = dec_lo | static_cast<std::uint64_t>(dec_hi) << 32;
    const V16 hi0 = vmin(oh0, ch0);
    const V16 hi1 = vmin(oh1, ch1);

    // Back to the relabelled order: interleave the two pairs' lanes,
    // then exchange 128-bit halves between the j and j + 32 outputs.
    const V16 a = __builtin_shufflevector(lo0, lo1, 0, 16, 1, 17, 2, 18, 3,
                                          19, 8, 24, 9, 25, 10, 26, 11, 27);
    const V16 b = __builtin_shufflevector(lo0, lo1, 4, 20, 5, 21, 6, 22, 7,
                                          23, 12, 28, 13, 29, 14, 30, 15,
                                          31);
    const V16 c = __builtin_shufflevector(hi0, hi1, 0, 16, 1, 17, 2, 18, 3,
                                          19, 8, 24, 9, 25, 10, 26, 11, 27);
    const V16 d = __builtin_shufflevector(hi0, hi1, 4, 20, 5, 21, 6, 22, 7,
                                          23, 12, 28, 13, 29, 14, 30, 15,
                                          31);
    e0 = __builtin_shufflevector(a, c, 0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18,
                                 19, 20, 21, 22, 23);
    o0 = __builtin_shufflevector(b, d, 0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18,
                                 19, 20, 21, 22, 23);
    e1 = __builtin_shufflevector(a, c, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25,
                                 26, 27, 28, 29, 30, 31);
    o1 = __builtin_shufflevector(b, d, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25,
                                 26, 27, 28, 29, 30, 31);
  };

  for (std::size_t step = 0; step < steps;) {
    const std::size_t end = std::min(steps, step + kNormInterval);
    for (; step < end; ++step) acs(step);
    if (step % kNormInterval == 0) {
      const std::int16_t lo = hmin(vmin(vmin(e0, o0), vmin(e1, o1)));
      e0 -= lo;
      o0 -= lo;
      e1 -= lo;
      o1 -= lo;
    }
  }

  std::int16_t m[4][16];
  vstore(m[0], e0);
  vstore(m[1], o0);
  vstore(m[2], e1);
  vstore(m[3], o1);
  for (int s = 0; s < kNumStates; ++s) {
    final_metric[s] = m[reg_of(s)][lane_of(s)];
  }
}

// One body in two versions, picked at load time by the same IFUNC
// dispatch as ACORN_TARGET_CLONES; they differ only in how a step's
// compare results become its decision word.
#if ACORN_VECTOR_CLONES
__attribute__((target("avx2"))) void forward_simd(
    const std::int16_t* levels, std::size_t steps, std::uint64_t* decisions,
    std::int16_t* final_metric) {
  forward_body<DecisionBits256>(levels, steps, decisions, final_metric);
}
__attribute__((target("default"))) void forward_simd(
    const std::int16_t* levels, std::size_t steps, std::uint64_t* decisions,
    std::int16_t* final_metric) {
  forward_body<DecisionBits128>(levels, steps, decisions, final_metric);
}
#else
void forward_simd(const std::int16_t* levels, std::size_t steps,
                  std::uint64_t* decisions, std::int16_t* final_metric) {
  forward_body<DecisionBits128>(levels, steps, decisions, final_metric);
}
#endif

}  // namespace

#endif  // ACORN_VITERBI_SIMD

void forward(const std::int16_t* levels, std::size_t steps,
             std::uint64_t* decisions, std::int16_t* final_metric) {
#if ACORN_VITERBI_SIMD
  forward_simd(levels, steps, decisions, final_metric);
#else
  forward_scalar(levels, steps, decisions, final_metric);
#endif
}

bool simd_active() { return ACORN_VITERBI_SIMD != 0; }

void traceback(const std::uint64_t* decisions, std::size_t steps,
               bool terminated, const std::int16_t* final_metric,
               std::span<std::uint8_t> out) {
  int state = 0;
  if (!terminated) {
    // First minimum, to match std::min_element in the reference.
    std::int16_t best = final_metric[0];
    for (int s = 1; s < kNumStates; ++s) {
      if (final_metric[s] < best) {
        best = final_metric[s];
        state = s;
      }
    }
  }
  for (std::size_t step = steps; step-- > 0;) {
    // The newest input bit sits in bit 5 of the state; the decision bit
    // picks the odd/even predecessor of the butterfly.
    if (step < out.size()) {
      out[step] = static_cast<std::uint8_t>(state >> 5);
    }
    const int bit = static_cast<int>((decisions[step] >>
                                      static_cast<unsigned>(state)) & 1u);
    state = ((state & 31) << 1) | bit;
  }
}

void levels_from_hard(std::span<const std::uint8_t> coded,
                      std::int16_t* levels) {
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const std::uint8_t r = coded[i];
    // 2 * hamming_cost(r, o) == 1 - level * sign(o), so the integer
    // metric is an affine transform of the reference Hamming metric:
    // bit-exact decisions. Any byte that is neither 0 nor 1 costs both
    // hypotheses equally in the reference, i.e. acts as an erasure.
    levels[i] = static_cast<std::int16_t>((r == 0) - (r == 1));
  }
}

void levels_from_soft(std::span<const double> llrs, std::int16_t* levels) {
  // Four max accumulators: a single max chain is a loop-carried
  // dependency the compiler cannot reassociate under strict FP, and the
  // serial scan showed up in the soft chain's per-packet profile.
  double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= llrs.size(); i += 4) {
    p0 = std::max(p0, std::abs(llrs[i]));
    p1 = std::max(p1, std::abs(llrs[i + 1]));
    p2 = std::max(p2, std::abs(llrs[i + 2]));
    p3 = std::max(p3, std::abs(llrs[i + 3]));
  }
  for (; i < llrs.size(); ++i) p0 = std::max(p0, std::abs(llrs[i]));
  const double peak = std::max(std::max(p0, p1), std::max(p2, p3));
  if (peak <= 0.0) {
    std::memset(levels, 0, llrs.size() * sizeof(std::int16_t));
    return;
  }
  const double scale = static_cast<double>(kSoftLevelMax) / peak;
  for (std::size_t k = 0; k < llrs.size(); ++k) {
    const long q = std::lrint(llrs[k] * scale);
    levels[k] = static_cast<std::int16_t>(
        std::clamp<long>(q, -kSoftLevelMax, kSoftLevelMax));
  }
}

}  // namespace acorn::baseband::viterbi
