#include "baseband/viterbi_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

// The SIMD kernel needs __builtin_shufflevector (GCC >= 12, any Clang)
// and the little-endian byte order the decision packer assumes. The
// scalar butterfly below is the fallback everywhere else, or when
// ACORN_VITERBI_FORCE_SCALAR is defined (used to bench/test the
// fallback on SIMD-capable hosts).
#if !defined(ACORN_VITERBI_FORCE_SCALAR) && \
    (defined(__clang__) || (defined(__GNUC__) && __GNUC__ >= 12)) && \
    defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
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

// The generic 16-lane vectors lower to SSE2 pairs on baseline x86-64;
// target_clones adds an AVX2 clone picked by the dynamic linker at load
// time, so one portable binary still uses the full 256-bit units where
// they exist. GCC's -Wpsabi ABI note about 32-byte vector returns is
// irrelevant here (every vector-typed helper is internal to this
// translation unit) and is silenced per-file in CMakeLists.txt.
// target_clones dispatches through an IFUNC resolver that the dynamic
// loader runs before sanitizer runtimes initialize — ThreadSanitizer
// binaries segfault on it — so clone only in uninstrumented builds.
#if defined(__SANITIZE_THREAD__)
#define ACORN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ACORN_TSAN 1
#endif
#endif
#if defined(__x86_64__) && defined(__GLIBC__) && !defined(ACORN_TSAN)
#define ACORN_TARGET_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define ACORN_TARGET_CLONES
#endif

namespace {

typedef std::int16_t V16 __attribute__((vector_size(32)));
typedef std::uint8_t V8 __attribute__((vector_size(16)));

inline V16 load_signs(const std::int16_t* s) {
  V16 v;
  std::memcpy(&v, s, sizeof v);
  return v;
}

// 16-bit mask of the lane sign bits of an int16 comparison result
// (lanes are 0 or -1): narrow to bytes, pick one weight bit per lane,
// fold each 8-byte half with the multiply-accumulate trick (the weights
// are distinct powers of two, so the byte sum cannot carry).
inline std::uint64_t mask16(V16 d) {
  const V8 bytes = __builtin_convertvector(d, V8);
  const V8 w = {1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128};
  const V8 sel = bytes & w;
  std::uint64_t lo;
  std::uint64_t hi;
  std::memcpy(&lo, &sel, 8);
  std::memcpy(&hi, reinterpret_cast<const char*>(&sel) + 8, 8);
  const std::uint64_t fold_lo = (lo * 0x0101010101010101ull) >> 56;
  const std::uint64_t fold_hi = (hi * 0x0101010101010101ull) >> 56;
  return fold_lo | (fold_hi << 8);
}

inline V16 vmin(V16 a, V16 b) { return a < b ? a : b; }

inline std::int16_t hmin(V16 v) {
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

ACORN_TARGET_CLONES
void forward_simd(const std::int16_t* levels, std::size_t steps,
                  std::uint64_t* decisions, std::int16_t* final_metric) {
  const V16 s0a = load_signs(kS0);
  const V16 s0b = load_signs(kS0 + 16);
  const V16 s1a = load_signs(kS1);
  const V16 s1b = load_signs(kS1 + 16);

  alignas(32) std::int16_t init[kNumStates];
  init_metrics(init);
  V16 c0;
  V16 c1;
  V16 c2;
  V16 c3;
  std::memcpy(&c0, init, 32);
  std::memcpy(&c1, init + 16, 32);
  std::memcpy(&c2, init + 32, 32);
  std::memcpy(&c3, init + 48, 32);

  for (std::size_t step = 0; step < steps; ++step) {
    const std::int16_t l0 = levels[2 * step];
    const std::int16_t l1 = levels[2 * step + 1];
    const V16 ta = s0a * l0 + s1a * l1;  // t_j, butterflies 0..15
    const V16 tb = s0b * l0 + s1b * l1;  // t_j, butterflies 16..31

    // Deinterleave old metrics into even (state 2j) and odd (2j+1).
    const V16 ea = __builtin_shufflevector(c0, c1, 0, 2, 4, 6, 8, 10, 12,
                                           14, 16, 18, 20, 22, 24, 26, 28,
                                           30);
    const V16 oa = __builtin_shufflevector(c0, c1, 1, 3, 5, 7, 9, 11, 13,
                                           15, 17, 19, 21, 23, 25, 27, 29,
                                           31);
    const V16 eb = __builtin_shufflevector(c2, c3, 0, 2, 4, 6, 8, 10, 12,
                                           14, 16, 18, 20, 22, 24, 26, 28,
                                           30);
    const V16 ob = __builtin_shufflevector(c2, c3, 1, 3, 5, 7, 9, 11, 13,
                                           15, 17, 19, 21, 23, 25, 27, 29,
                                           31);

    // New states j (low half): even + t vs odd - t; strict < keeps the
    // even predecessor on ties, exactly like the scalar butterfly.
    const V16 ce_a = ea + ta;
    const V16 co_a = oa - ta;
    const V16 dl_a = co_a < ce_a;
    c0 = vmin(co_a, ce_a);
    const V16 ce_b = eb + tb;
    const V16 co_b = ob - tb;
    const V16 dl_b = co_b < ce_b;
    c1 = vmin(co_b, ce_b);
    // New states j+32 (high half): signs swap.
    const V16 ch_a = ea - ta;
    const V16 oh_a = oa + ta;
    const V16 dh_a = oh_a < ch_a;
    c2 = vmin(oh_a, ch_a);
    const V16 ch_b = eb - tb;
    const V16 oh_b = ob + tb;
    const V16 dh_b = oh_b < ch_b;
    c3 = vmin(oh_b, ch_b);

    decisions[step] = mask16(dl_a) | (mask16(dl_b) << 16) |
                      (mask16(dh_a) << 32) | (mask16(dh_b) << 48);

    if ((step + 1) % kNormInterval == 0) {
      const std::int16_t lo = hmin(vmin(vmin(c0, c1), vmin(c2, c3)));
      c0 -= lo;
      c1 -= lo;
      c2 -= lo;
      c3 -= lo;
    }
  }

  std::memcpy(final_metric, &c0, 32);
  std::memcpy(final_metric + 16, &c1, 32);
  std::memcpy(final_metric + 32, &c2, 32);
  std::memcpy(final_metric + 48, &c3, 32);
}

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
