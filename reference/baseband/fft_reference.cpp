#include "baseband/fft_reference.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace acorn::baseband::reference {

ScalarFftPlan::ScalarFftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("FFT size must be a power of two");
  }
  bitrev_.resize(n);
  const int bits = std::countr_zero(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < bits; ++b) r |= ((i >> b) & 1u) << (bits - 1 - b);
    bitrev_[i] = static_cast<std::uint32_t>(r);
  }
  twiddle_.resize(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t k = 0; k < half; ++k) {
      const double angle =
          -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(len);
      twiddle_[half - 1 + k] = Cx(std::cos(angle), std::sin(angle));
    }
  }
}

void ScalarFftPlan::transform(std::span<Cx> data, bool inverse) const {
  if (data.size() != n_) {
    throw std::invalid_argument("data size does not match the FFT plan");
  }
  // Work on flat double pairs through raw pointers (the array-oriented
  // access std::complex guarantees): both std::span indexing and 16-byte
  // std::complex loads/stores keep GCC from tightening the butterfly
  // loop — together they cost ~7x here.
  const std::size_t n = n_;
  Cx* const d = data.data();
  double* const dd = reinterpret_cast<double*>(data.data());
  const std::uint32_t* const br = bitrev_.data();
  const double* const tw = reinterpret_cast<const double*>(twiddle_.data());
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = br[i];
    if (i < j) std::swap(d[i], d[j]);
  }
  // Manual real/imag arithmetic: std::complex operator* carries NaN
  // fix-up branches that roughly double the butterfly cost.
  const double conj = inverse ? -1.0 : 1.0;
  // The first two stages use twiddles 1 and -i only (+i when inverse),
  // so their butterflies are pure add/sub/swap — a third of all
  // butterflies with no multiplies at all.
  if (n >= 2) {
    for (std::size_t i = 0; i < 2 * n; i += 4) {
      const double ar = dd[i];
      const double ai = dd[i + 1];
      const double br_ = dd[i + 2];
      const double bi_ = dd[i + 3];
      dd[i] = ar + br_;
      dd[i + 1] = ai + bi_;
      dd[i + 2] = ar - br_;
      dd[i + 3] = ai - bi_;
    }
  }
  if (n >= 4) {
    for (std::size_t i = 0; i < 2 * n; i += 8) {
      const double a0r = dd[i];
      const double a0i = dd[i + 1];
      const double b0r = dd[i + 4];
      const double b0i = dd[i + 5];
      dd[i] = a0r + b0r;
      dd[i + 1] = a0i + b0i;
      dd[i + 4] = a0r - b0r;
      dd[i + 5] = a0i - b0i;
      const double a1r = dd[i + 2];
      const double a1i = dd[i + 3];
      const double vr = conj * dd[i + 7];
      const double vi = -conj * dd[i + 6];
      dd[i + 2] = a1r + vr;
      dd[i + 3] = a1i + vi;
      dd[i + 6] = a1r - vr;
      dd[i + 7] = a1i - vi;
    }
  }
  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* const w = tw + 2 * (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      double* const lo = dd + 2 * i;
      double* const hi = dd + 2 * (i + half);
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = w[2 * k];
        const double wi = conj * w[2 * k + 1];
        const double br_ = hi[2 * k];
        const double bi_ = hi[2 * k + 1];
        const double vr = br_ * wr - bi_ * wi;
        const double vi = br_ * wi + bi_ * wr;
        const double ar = lo[2 * k];
        const double ai = lo[2 * k + 1];
        lo[2 * k] = ar + vr;
        lo[2 * k + 1] = ai + vi;
        hi[2 * k] = ar - vr;
        hi[2 * k + 1] = ai - vi;
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) dd[i] *= scale;
  }
}

void ScalarFftPlan::forward(std::span<Cx> data) const {
  transform(data, /*inverse=*/false);
}

void ScalarFftPlan::inverse(std::span<Cx> data) const {
  transform(data, /*inverse=*/true);
}

}  // namespace acorn::baseband::reference
