// Iterative radix-2 FFT/IFFT used by the OFDM sample chain (64-point for
// 20 MHz, 128-point for 40 MHz channels) and the Welch PSD estimator.
//
// Transforms run through an FftPlan: the bit-reversal swap list and the
// twiddle tables are precomputed once per size. Each twiddle is
// evaluated directly (cos/sin of the exact angle) rather than
// accumulated with `w *= wlen`, so long butterflies do not drift — a
// 4096-point round trip stays at ~1e-13 instead of ~1e-9. The kernel
// runs two complex butterflies per 32-byte vector and is bit-identical
// to the one-lane transform kept in reference/baseband/fft_reference.
// Plans are immutable after construction; the process-wide cache hands
// out shared plans and is safe to use from the parallel packet drivers.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace acorn::baseband {

using Cx = std::complex<double>;

/// True when n is a power of two (and > 0).
bool is_power_of_two(std::size_t n);

/// Precomputed tables for one transform size (a power of two).
class FftPlan {
 public:
  /// Throws std::invalid_argument unless n is a power of two.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place decimation-in-time radix-2 FFT. `data.size()` must equal
  /// size(); throws std::invalid_argument otherwise.
  void forward(std::span<Cx> data) const;

  /// In-place inverse FFT with 1/N normalization.
  void inverse(std::span<Cx> data) const;

 private:
  void transform(std::span<Cx> data, bool inverse) const;

  std::size_t n_;
  // The bit reversal as index pairs (i, j = bit-reversed i), i < j.
  std::vector<std::uint32_t> swaps_;
  // Per direction (0 forward, 1 inverse), the twiddles of the stages
  // with butterfly span len >= 8, stage after stage: len doubles
  // (wr_k, wi_k), then len doubles (wi_k, wr_k), for k in [0, len/2),
  // where wr + i*wi = exp(-2*pi*i*k/len), conjugated for the inverse.
  std::vector<double> twiddles_[2];
};

/// Shared plan for size n from the process-wide cache (created on first
/// use, thread-safe). The reference stays valid for the process
/// lifetime.
const FftPlan& fft_plan(std::size_t n);

/// In-place transforms through the shared plan cache. `data.size()` must
/// be a power of two; throws std::invalid_argument otherwise.
void fft_in_place(std::span<Cx> data);
void ifft_in_place(std::span<Cx> data);

/// Out-of-place convenience wrappers.
std::vector<Cx> fft(std::span<const Cx> data);
std::vector<Cx> ifft(std::span<const Cx> data);

}  // namespace acorn::baseband
