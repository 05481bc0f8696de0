#include "baseband/fft.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "util/vector_kernel.hpp"

namespace acorn::baseband {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

namespace {

typedef double V2 __attribute__((vector_size(16)));
typedef double V4 __attribute__((vector_size(32)));

using util::vload;
using util::vstore;

// A vector holds two complex points, (re, im, re, im). Every lane does
// the IEEE operations of the one-lane reference butterfly, in its order.
// The inverse's 1/N multiplies the last stage's outputs as they are
// stored: the same products as the reference's separate pass over them.

// n == 2: one butterfly.
template <bool kScale>
ACORN_VECTOR_INLINE void single_stage(double* d, V2 scale) {
  const V2 a = vload<V2>(d);
  const V2 b = vload<V2>(d + 2);
  V2 x = a + b;
  V2 y = a - b;
  if constexpr (kScale) {
    x *= scale;
    y *= scale;
  }
  vstore(d, x);
  vstore(d + 2, y);
}

// Stages 1 and 2 on each block of four points. Their twiddles are 1 and
// -i (+i for the inverse), so the only multiplies are the rotation's
// +/-1, as in the reference: v = (conj * im, -conj * re).
template <bool kScale>
ACORN_VECTOR_INLINE void first_two_stages(double* d, std::size_t n, V4 rot,
                                          V4 scale) {
  for (std::size_t i = 0; i < 2 * n; i += 8) {
    const V4 x = vload<V4>(d + i);      // points 0, 1
    const V4 y = vload<V4>(d + i + 4);  // points 2, 3
    const V4 a = __builtin_shufflevector(x, y, 0, 1, 4, 5);  // 0, 2
    const V4 b = __builtin_shufflevector(x, y, 2, 3, 6, 7);  // 1, 3
    const V4 s = a + b;  // stage 1: s0 = p0 + p1, s2 = p2 + p3
    const V4 t = a - b;  //          s1 = p0 - p1, s3 = p2 - p3
    const V4 r = __builtin_shufflevector(t, t, 3, 2, 3, 2) * rot;
    const V4 lo = __builtin_shufflevector(s, t, 0, 1, 4, 5);  // s0, s1
    const V4 hi = __builtin_shufflevector(s, r, 2, 3, 4, 5);  // s2, v
    V4 u = lo + hi;
    V4 w = lo - hi;
    if constexpr (kScale) {
      u *= scale;
      w *= scale;
    }
    vstore(d + i, u);
    vstore(d + i + 4, w);
  }
}

// One stage of span 2 * half >= 8, two butterflies (k, k + 1) per
// vector: v = b * w as (br*wr - bi*wi, br*wi + bi*wr), from `w` holding
// (wr_k, wi_k) pairs and `ws` the same twiddles swapped.
template <bool kScale>
ACORN_VECTOR_INLINE void stage(double* d, std::size_t n, std::size_t half,
                               const double* w, V4 scale) {
  const double* const ws = w + 2 * half;
  for (std::size_t i = 0; i < 2 * n; i += 4 * half) {
    double* const lo = d + i;
    double* const hi = lo + 2 * half;
    for (std::size_t k = 0; k < 2 * half; k += 4) {
      const V4 b = vload<V4>(hi + k);
      const V4 br = __builtin_shufflevector(b, b, 0, 0, 2, 2);
      const V4 bi = __builtin_shufflevector(b, b, 1, 1, 3, 3);
      const V4 p = br * vload<V4>(w + k);   // br*wr, br*wi
      const V4 q = bi * vload<V4>(ws + k);  // bi*wi, bi*wr
      const V4 v = __builtin_shufflevector(p - q, p + q, 0, 5, 2, 7);
      const V4 a = vload<V4>(lo + k);
      V4 x = a + v;
      V4 y = a - v;
      if constexpr (kScale) {
        x *= scale;
        y *= scale;
      }
      vstore(lo + k, x);
      vstore(hi + k, y);
    }
  }
}

ACORN_TARGET_CLONES
void transform_kernel(double* d, std::size_t n, const std::uint32_t* swaps,
                      std::size_t n_swaps, const double* tw, bool inverse) {
  for (std::size_t s = 0; s < n_swaps; s += 2) {
    double* const a = d + 2 * swaps[s];
    double* const b = d + 2 * swaps[s + 1];
    const V2 t = vload<V2>(a);
    vstore(a, vload<V2>(b));
    vstore(b, t);
  }
  const double conj = inverse ? -1.0 : 1.0;
  const double sc = 1.0 / static_cast<double>(n);
  const V4 scale = {sc, sc, sc, sc};
  if (n == 1) {
    if (inverse) vstore(d, vload<V2>(d) * V2{sc, sc});
    return;
  }
  if (n == 2) {
    if (inverse) {
      single_stage<true>(d, V2{sc, sc});
    } else {
      single_stage<false>(d, V2{sc, sc});
    }
    return;
  }
  const V4 rot = {conj, -conj, conj, -conj};
  if (inverse && n == 4) {
    first_two_stages<true>(d, n, rot, scale);
  } else {
    first_two_stages<false>(d, n, rot, scale);
  }
  for (std::size_t half = 4; half < n; half <<= 1) {
    if (inverse && 2 * half == n) {
      stage<true>(d, n, half, tw, scale);
    } else {
      stage<false>(d, n, half, tw, scale);
    }
    tw += 4 * half;
  }
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("FFT size must be a power of two");
  }
  const int bits = std::countr_zero(n);
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < bits; ++b) r |= ((i >> b) & 1u) << (bits - 1 - b);
    if (i < r) {
      swaps_.push_back(static_cast<std::uint32_t>(i));
      swaps_.push_back(static_cast<std::uint32_t>(r));
    }
  }
  for (int dir = 0; dir < 2; ++dir) {
    // The reference conjugates each twiddle as conj * wi; so does this.
    const double conj = dir == 0 ? 1.0 : -1.0;
    std::vector<double>& tw = twiddles_[dir];
    for (std::size_t len = 8; len <= n; len <<= 1) {
      const std::size_t half = len / 2;
      const std::size_t base = tw.size();
      tw.resize(base + 2 * len);
      for (std::size_t k = 0; k < half; ++k) {
        const double angle =
            -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(len);
        const Cx w(std::cos(angle), std::sin(angle));
        const double wi = conj * w.imag();
        tw[base + 2 * k] = w.real();
        tw[base + 2 * k + 1] = wi;
        tw[base + len + 2 * k] = wi;
        tw[base + len + 2 * k + 1] = w.real();
      }
    }
  }
}

void FftPlan::transform(std::span<Cx> data, bool inverse) const {
  if (data.size() != n_) {
    throw std::invalid_argument("data size does not match the FFT plan");
  }
  transform_kernel(reinterpret_cast<double*>(data.data()), n_,
                   swaps_.data(), swaps_.size(), twiddles_[inverse].data(),
                   inverse);
}

void FftPlan::forward(std::span<Cx> data) const {
  transform(data, /*inverse=*/false);
}

void FftPlan::inverse(std::span<Cx> data) const {
  transform(data, /*inverse=*/true);
}

namespace {

// Plan cache: one slot per power of two, filled on first use. Lookup is
// a single acquire load, so concurrent packet workers never contend
// after warm-up; the mutex only guards construction. The owner vector
// frees the plans at process exit (keeps the ASan leak check clean).
std::array<std::atomic<const FftPlan*>, 64> g_plan_slots{};
std::mutex g_plan_mutex;
std::vector<std::unique_ptr<const FftPlan>>& plan_owner() {
  static std::vector<std::unique_ptr<const FftPlan>> owner;
  return owner;
}

}  // namespace

const FftPlan& fft_plan(std::size_t n) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("FFT size must be a power of two");
  }
  const int idx = std::countr_zero(n);
  const FftPlan* plan =
      g_plan_slots[static_cast<std::size_t>(idx)].load(std::memory_order_acquire);
  if (plan == nullptr) {
    std::lock_guard<std::mutex> lock(g_plan_mutex);
    plan = g_plan_slots[static_cast<std::size_t>(idx)].load(
        std::memory_order_relaxed);
    if (plan == nullptr) {
      auto fresh = std::make_unique<const FftPlan>(n);
      plan = fresh.get();
      plan_owner().push_back(std::move(fresh));
      g_plan_slots[static_cast<std::size_t>(idx)].store(
          plan, std::memory_order_release);
    }
  }
  return *plan;
}

void fft_in_place(std::span<Cx> data) { fft_plan(data.size()).forward(data); }

void ifft_in_place(std::span<Cx> data) { fft_plan(data.size()).inverse(data); }

std::vector<Cx> fft(std::span<const Cx> data) {
  std::vector<Cx> out(data.begin(), data.end());
  fft_in_place(out);
  return out;
}

std::vector<Cx> ifft(std::span<const Cx> data) {
  std::vector<Cx> out(data.begin(), data.end());
  ifft_in_place(out);
  return out;
}

}  // namespace acorn::baseband
