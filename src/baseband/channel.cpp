#include "baseband/channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.hpp"
#include "util/vector_kernel.hpp"

namespace acorn::baseband {

FadingChannel::FadingChannel(const ChannelConfig& config, util::Rng& rng)
    : config_(config) {
  if (config_.num_taps < 1) throw std::invalid_argument("num_taps < 1");
  if (config_.sample_rate_hz <= 0.0) {
    throw std::invalid_argument("sample_rate_hz <= 0");
  }
  redraw(rng);
}

void FadingChannel::redraw(util::Rng& rng) {
  const int L = config_.num_taps;
  // Exponential PDP weights are a closed form of l — no scratch needed.
  const auto pdp = [&](int l) {
    return L == 1 ? 1.0
                  : std::exp(-static_cast<double>(l) /
                             config_.delay_spread_samples);
  };
  double total = 0.0;
  for (int l = 0; l < L; ++l) total += pdp(l);
  const double gain = util::db_to_lin(-config_.path_loss_db);
  taps_.resize(static_cast<std::size_t>(L));
  for (int l = 0; l < L; ++l) {
    const double power = gain * pdp(l) / total;
    if (config_.rayleigh) {
      // CN(0, power): each component N(0, power/2).
      const double s = std::sqrt(power / 2.0);
      taps_[static_cast<std::size_t>(l)] = Cx(rng.normal(0.0, s),
                                              rng.normal(0.0, s));
    } else {
      taps_[static_cast<std::size_t>(l)] = Cx(std::sqrt(power), 0.0);
    }
  }
}

double FadingChannel::noise_variance_mw() const {
  const double psd_dbm =
      config_.noise_psd_dbm_per_hz + config_.noise_figure_db;
  return util::dbm_to_mw(psd_dbm) * config_.sample_rate_hz;
}

namespace {

typedef double V4 __attribute__((vector_size(32)));

using util::vload;
using util::vstore;

// x * h for two complex samples (re, im, re, im) and one tap
// hv = (hr, hi, hr, hi): (xr*hr - xi*hi, xr*hi + xi*hr), the scalar
// product's operations in its order.
ACORN_VECTOR_INLINE V4 cmul2(V4 x, V4 hv) {
  const V4 hs = __builtin_shufflevector(hv, hv, 1, 0, 3, 2);
  const V4 p = __builtin_shufflevector(x, x, 0, 0, 2, 2) * hv;
  const V4 q = __builtin_shufflevector(x, x, 1, 1, 3, 3) * hs;
  return __builtin_shufflevector(p - q, p + q, 0, 5, 2, 7);
}

// Output m = sum over taps l with 0 <= m - l < n_tx of x[m - l] * h[l],
// accumulated in increasing l: ((x[m]*h0 + x[m-1]*h1) + x[m-2]*h2) ...
// An output past the input's end starts from +0.0 instead of x[m]*h0.
// This is the order in which tap-major passes (a product pass for h0
// over a zero-filled tail, then one += pass per further tap) build it,
// so the result equals theirs bit for bit; here each output is
// accumulated in registers, two at a time.
ACORN_TARGET_CLONES
void fir_kernel(const double* x, std::size_t n_tx, const double* h,
                std::size_t nt, double* o) {
  const std::size_t n_out = n_tx + nt - 1;
  const auto one = [&](std::size_t m) {
    const std::size_t l_end = std::min(m + 1, nt);
    std::size_t l = m < n_tx ? 0 : m - n_tx + 1;
    double re = 0.0;
    double im = 0.0;
    if (l == 0) {
      re = x[2 * m] * h[0] - x[2 * m + 1] * h[1];
      im = x[2 * m] * h[1] + x[2 * m + 1] * h[0];
      l = 1;
    }
    for (; l < l_end; ++l) {
      const double xr = x[2 * (m - l)];
      const double xi = x[2 * (m - l) + 1];
      re += xr * h[2 * l] - xi * h[2 * l + 1];
      im += xr * h[2 * l + 1] + xi * h[2 * l];
    }
    o[2 * m] = re;
    o[2 * m + 1] = im;
  };
  // Outputs nt - 1 .. n_tx - 1 see every tap.
  std::size_t m = 0;
  for (; m < nt - 1 && m < n_out; ++m) one(m);
  for (; m + 1 < n_tx; m += 2) {
    V4 acc = cmul2(vload<V4>(x + 2 * m), V4{h[0], h[1], h[0], h[1]});
    for (std::size_t l = 1; l < nt; ++l) {
      acc += cmul2(vload<V4>(x + 2 * (m - l)), V4{h[2 * l], h[2 * l + 1],
                                                  h[2 * l], h[2 * l + 1]});
    }
    vstore(o + 2 * m, acc);
  }
  for (; m < n_out; ++m) one(m);
}

}  // namespace

void FadingChannel::propagate_into(std::span<const Cx> tx,
                                   std::span<Cx> out) const {
  if (out.size() != tx.size() + taps_.size() - 1) {
    throw std::invalid_argument("output size must be tx + taps - 1");
  }
  fir_kernel(reinterpret_cast<const double*>(tx.data()), tx.size(),
             reinterpret_cast<const double*>(taps_.data()), taps_.size(),
             reinterpret_cast<double*>(out.data()));
}

std::vector<Cx> FadingChannel::propagate(std::span<const Cx> tx) const {
  std::vector<Cx> out(tx.size() + taps_.size() - 1);
  propagate_into(tx, out);
  return out;
}

void FadingChannel::transmit_into(std::span<const Cx> tx, std::span<Cx> out,
                                  util::Rng& rng) const {
  propagate_into(tx, out);
  add_awgn(out, noise_variance_mw(), rng);
}

std::vector<Cx> FadingChannel::transmit(std::span<const Cx> tx,
                                        util::Rng& rng) const {
  std::vector<Cx> out = propagate(tx);
  add_awgn(out, noise_variance_mw(), rng);
  return out;
}

void FadingChannel::frequency_response_into(std::span<Cx> out) const {
  if (!is_power_of_two(out.size())) {
    throw std::invalid_argument("fft_size must be a power of two");
  }
  if (taps_.size() > out.size()) {
    throw std::invalid_argument("more taps than FFT bins");
  }
  std::copy(taps_.begin(), taps_.end(), out.begin());
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(taps_.size()),
            out.end(), Cx{});
  fft_in_place(out);
}

std::vector<Cx> FadingChannel::frequency_response(std::size_t fft_size) const {
  std::vector<Cx> padded(fft_size);
  frequency_response_into(padded);
  return padded;
}

void add_awgn(std::span<Cx> samples, double variance_mw, util::Rng& rng) {
  if (variance_mw < 0.0) throw std::invalid_argument("negative variance");
  const double s = std::sqrt(variance_mw / 2.0);
  // Batched ziggurat draws (fill_normals) rather than per-sample
  // Box-Muller: this loop consumes two Gaussians per received sample and
  // dominates the non-FFT cost of every Monte-Carlo sweep. The chunk
  // buffer lives on the stack so the path stays allocation-free.
  constexpr std::size_t kChunk = 64;  // samples per batch
  double noise[2 * kChunk];
  double* d = reinterpret_cast<double*>(samples.data());
  std::size_t remaining = samples.size();
  while (remaining > 0) {
    const std::size_t take = std::min(kChunk, remaining);
    rng.fill_normals(std::span<double>(noise, 2 * take));
    for (std::size_t i = 0; i < 2 * take; ++i) d[i] += s * noise[i];
    d += 2 * take;
    remaining -= take;
  }
}

}  // namespace acorn::baseband
