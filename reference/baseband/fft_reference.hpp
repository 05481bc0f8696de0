// The one-lane radix-2 FFT, kept as the oracle for the vector kernel in
// baseband/fft.cpp.
//
// This is the transform FftPlan ran before its butterflies went two to a
// vector: the same tables (bit reversal, one twiddle per butterfly from
// cos/sin of the exact angle), the bit reversal as a swap walk, a
// multiply-free first pair of stages, one scalar complex butterfly at a
// time from stage 3 on, and the inverse's 1/N as a separate pass. The
// production plan must return the same bytes for every input.
// Test/bench use only (acorn_reference, which nothing under src/ links).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "baseband/fft.hpp"

namespace acorn::baseband::reference {

class ScalarFftPlan {
 public:
  /// Throws std::invalid_argument unless n is a power of two.
  explicit ScalarFftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// Same contracts as FftPlan::forward and FftPlan::inverse.
  void forward(std::span<Cx> data) const;
  void inverse(std::span<Cx> data) const;

 private:
  void transform(std::span<Cx> data, bool inverse) const;

  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;  // bitrev_[i] = bit-reversed i
  // Forward twiddles for every stage, concatenated: the stage with
  // butterfly span `len` owns entries [len/2 - 1, len - 1), holding
  // exp(-2*pi*i*k/len) for k in [0, len/2). The inverse transform
  // conjugates on the fly.
  std::vector<Cx> twiddle_;
};

}  // namespace acorn::baseband::reference
