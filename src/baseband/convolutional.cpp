#include "baseband/convolutional.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "baseband/viterbi_kernel.hpp"

namespace acorn::baseband {

namespace {

// Puncturing patterns over one period of rate-1/2 output pairs. A `1`
// keeps the bit; bits are ordered (A0, B0, A1, B1, ...) where A/B are the
// two generator outputs per input bit.
constexpr std::array<std::uint8_t, 2> kPattern12 = {1, 1};
constexpr std::array<std::uint8_t, 4> kPattern23 = {1, 1, 1, 0};
constexpr std::array<std::uint8_t, 6> kPattern34 = {1, 1, 1, 0, 0, 1};
constexpr std::array<std::uint8_t, 10> kPattern56 = {1, 1, 1, 0, 0,
                                                     1, 1, 0, 0, 1};

std::span<const std::uint8_t> pattern(phy::CodeRate rate) {
  switch (rate) {
    case phy::CodeRate::kRate12: return kPattern12;
    case phy::CodeRate::kRate23: return kPattern23;
    case phy::CodeRate::kRate34: return kPattern34;
    case phy::CodeRate::kRate56: return kPattern56;
  }
  throw std::invalid_argument("unknown code rate");
}

// Whole pattern periods at a time: within a period, where each kept
// bit goes (or each erased one comes from) is a compile-time constant,
// so a period is a few straight-line moves instead of a pattern walk.
template <const auto& kPattern>
struct Period {
  static constexpr std::size_t kSize = kPattern.size();
  static constexpr std::size_t kKept = [] {
    std::size_t n = 0;
    for (const std::uint8_t keep : kPattern) n += keep;
    return n;
  }();
  // kSource[k]: the punctured position feeding coded position k, or -1.
  static constexpr std::array<int, kSize> kSource = [] {
    std::array<int, kSize> src{};
    int n = 0;
    for (std::size_t k = 0; k < kSize; ++k) src[k] = kPattern[k] ? n++ : -1;
    return src;
  }();
};

template <const auto& kPattern, typename T>
void puncture_periods(const T* in, std::size_t periods, T* out) {
  using P = Period<kPattern>;
  for (std::size_t p = 0; p < periods; ++p) {
#pragma GCC unroll 16
    for (std::size_t k = 0; k < P::kSize; ++k) {
      if (P::kSource[k] >= 0) out[P::kSource[k]] = in[k];
    }
    in += P::kSize;
    out += P::kKept;
  }
}

template <const auto& kPattern, typename T>
void depuncture_periods(const T* in, std::size_t periods, T* out,
                        T erased) {
  using P = Period<kPattern>;
  for (std::size_t p = 0; p < periods; ++p) {
#pragma GCC unroll 16
    for (std::size_t k = 0; k < P::kSize; ++k) {
      out[k] = P::kSource[k] >= 0 ? in[P::kSource[k]] : erased;
    }
    in += P::kKept;
    out += P::kSize;
  }
}

// Puncture (or depuncture, when `restore`) `coded_len` rate-1/2
// positions: whole periods through the templates above, then the
// partial period at the end by walking the pattern.
template <typename T>
void apply_pattern(const T* in, phy::CodeRate rate, std::size_t coded_len,
                   T* out, bool restore, T erased) {
  const auto pat = pattern(rate);
  const std::size_t periods = coded_len / pat.size();
  const auto whole = [&]<const auto& kPattern>() {
    if (restore) {
      depuncture_periods<kPattern>(in, periods, out, erased);
    } else {
      puncture_periods<kPattern>(in, periods, out);
    }
  };
  switch (rate) {
    case phy::CodeRate::kRate12: whole.template operator()<kPattern12>(); break;
    case phy::CodeRate::kRate23: whole.template operator()<kPattern23>(); break;
    case phy::CodeRate::kRate34: whole.template operator()<kPattern34>(); break;
    case phy::CodeRate::kRate56: whole.template operator()<kPattern56>(); break;
  }
  std::size_t cursor = punctured_length(periods * pat.size(), rate);
  for (std::size_t i = periods * pat.size(), k = 0; i < coded_len; ++i, ++k) {
    if (restore) {
      out[i] = pat[k] ? in[cursor++] : erased;
    } else if (pat[k]) {
      out[cursor++] = in[i];
    }
  }
}

// Eight bytes as a word with p[j] in bits 8j..8j+7, and back.
inline std::uint64_t load8(const std::uint8_t* p) {
  std::uint64_t x = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&x, p, sizeof x);
  } else {
    for (int j = 0; j < 8; ++j) {
      x |= static_cast<std::uint64_t>(p[j]) << (8 * j);
    }
  }
  return x;
}

inline void store8(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (int j = 0; j < 8; ++j) p[j] = static_cast<std::uint8_t>(v >> (8 * j));
  }
}

// Bit i of the result is p[i] & 1, for eight bytes: the multiply moves
// byte i's low bit to bit 56 + i, and no two partial products meet there.
inline std::uint64_t pack8(const std::uint8_t* p) {
  return ((load8(p) & 0x0101010101010101ull) * 0x0102040810204080ull) >> 56;
}

// kSpreadNibble[v] has bit k of v in byte 2k: the even bytes of four
// output pairs.
constexpr std::array<std::uint64_t, 16> kSpreadNibble = [] {
  std::array<std::uint64_t, 16> t{};
  for (unsigned v = 0; v < 16; ++v) {
    for (unsigned k = 0; k < 4; ++k) {
      t[v] |= static_cast<std::uint64_t>((v >> k) & 1u) << (16 * k);
    }
  }
  return t;
}();

std::size_t checked_steps(std::size_t in_size, std::size_t out_size,
                          bool terminated, const char* what) {
  if (in_size % 2 != 0) {
    throw std::invalid_argument(std::string(what) +
                                " stream must have even length");
  }
  const std::size_t steps = in_size / 2;
  const auto tail =
      static_cast<std::size_t>(ConvolutionalCode::kConstraint - 1);
  if (terminated && steps < tail) {
    throw std::invalid_argument("terminated stream shorter than the tail");
  }
  if (out_size != steps - (terminated ? tail : 0)) {
    throw std::invalid_argument("decoded output size mismatch");
  }
  return steps;
}

}  // namespace

void ConvolutionalCode::encode_into(std::span<const std::uint8_t> bits,
                                    std::span<std::uint8_t> out,
                                    bool terminate) const {
  if (out.size() != encoded_length(bits.size(), terminate)) {
    throw std::invalid_argument("encoded output size mismatch");
  }
  // 64 trellis steps per word: bit i of `w` is input bit 64k + i (each
  // byte's low bit; zero past the payload, which is also the tail), and
  // `prev` holds the word before. Generator g's output at step n is the
  // XOR of u[n - d] over its taps d, i.e. of the input word delayed by d.
  const std::size_t n_bits = bits.size();
  const std::size_t steps = out.size() / 2;
  const std::uint8_t* in = bits.data();
  std::uint8_t* dst = out.data();
  std::uint64_t prev = 0;
  for (std::size_t base = 0; base < steps; base += 64) {
    std::uint64_t w = 0;
    if (base + 64 <= n_bits) {
      for (int c = 0; c < 8; ++c) w |= pack8(in + base + 8 * c) << (8 * c);
    } else {
      for (std::size_t i = base; i < n_bits; ++i) {
        w |= static_cast<std::uint64_t>(in[i] & 1u) << (i - base);
      }
    }
    const auto delayed = [&](int d) { return w << d | prev >> (64 - d); };
    // 0133: taps at delays 0, 2, 3, 5, 6; 0171: delays 0, 1, 2, 3, 6.
    const std::uint64_t a = w ^ delayed(2) ^ delayed(3) ^ delayed(5) ^
                            delayed(6);
    const std::uint64_t b = w ^ delayed(1) ^ delayed(2) ^ delayed(3) ^
                            delayed(6);
    static_assert(kG0 == 0133 && kG1 == 0171);
    const std::size_t count = std::min<std::size_t>(64, steps - base);
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
      // Eight steps' output pairs (a_i, b_i, a_i+1, ...) as 16 bytes.
      const auto a8 = static_cast<unsigned>(a >> i) & 0xFFu;
      const auto b8 = static_cast<unsigned>(b >> i) & 0xFFu;
      store8(dst, kSpreadNibble[a8 & 15u] | kSpreadNibble[b8 & 15u] << 8);
      store8(dst + 8, kSpreadNibble[a8 >> 4] | kSpreadNibble[b8 >> 4] << 8);
      dst += 16;
    }
    for (; i < count; ++i) {
      *dst++ = static_cast<std::uint8_t>((a >> i) & 1u);
      *dst++ = static_cast<std::uint8_t>((b >> i) & 1u);
    }
    prev = w;
  }
}

std::vector<std::uint8_t> ConvolutionalCode::encode(
    std::span<const std::uint8_t> bits, bool terminate) const {
  std::vector<std::uint8_t> out(encoded_length(bits.size(), terminate));
  encode_into(bits, out, terminate);
  return out;
}

void ConvolutionalCode::decode_into(std::span<const std::uint8_t> coded,
                                    std::span<std::uint8_t> out,
                                    ViterbiWorkspace& ws,
                                    bool terminated) const {
  const std::size_t steps =
      checked_steps(coded.size(), out.size(), terminated, "coded");
  ws.decisions_.resize(steps);
  ws.levels_.resize(2 * steps);
  viterbi::levels_from_hard(coded, ws.levels_.data());
  std::array<std::int16_t, kNumStates> metric;
  viterbi::forward(ws.levels_.data(), steps, ws.decisions_.data(),
                   metric.data());
  viterbi::traceback(ws.decisions_.data(), steps, terminated, metric.data(),
                     out);
}

std::vector<std::uint8_t> ConvolutionalCode::decode(
    std::span<const std::uint8_t> coded, bool terminated) const {
  if (coded.size() % 2 != 0) {
    throw std::invalid_argument("coded stream must have even length");
  }
  const std::size_t steps = coded.size() / 2;
  const auto tail = static_cast<std::size_t>(kConstraint - 1);
  if (terminated && steps < tail) {
    throw std::invalid_argument("terminated stream shorter than the tail");
  }
  std::vector<std::uint8_t> bits(decoded_length(coded.size(), terminated));
  ViterbiWorkspace ws;
  decode_into(coded, bits, ws, terminated);
  return bits;
}

void ConvolutionalCode::decode_soft_into(std::span<const double> llrs,
                                         std::span<std::uint8_t> out,
                                         ViterbiWorkspace& ws,
                                         bool terminated) const {
  const std::size_t steps =
      checked_steps(llrs.size(), out.size(), terminated, "soft");
  ws.decisions_.resize(steps);
  ws.levels_.resize(2 * steps);
  // Correlation metric, quantized: hypothesizing bit 1 against a
  // positive (bit-0-favoring) LLR costs that LLR, and vice versa.
  viterbi::levels_from_soft(llrs, ws.levels_.data());
  std::array<std::int16_t, kNumStates> metric;
  viterbi::forward(ws.levels_.data(), steps, ws.decisions_.data(),
                   metric.data());
  viterbi::traceback(ws.decisions_.data(), steps, terminated, metric.data(),
                     out);
}

std::vector<std::uint8_t> ConvolutionalCode::decode_soft(
    std::span<const double> llrs, bool terminated) const {
  if (llrs.size() % 2 != 0) {
    throw std::invalid_argument("soft stream must have even length");
  }
  const std::size_t steps = llrs.size() / 2;
  const auto tail = static_cast<std::size_t>(kConstraint - 1);
  if (terminated && steps < tail) {
    throw std::invalid_argument("terminated stream shorter than the tail");
  }
  std::vector<std::uint8_t> bits(decoded_length(llrs.size(), terminated));
  ViterbiWorkspace ws;
  decode_soft_into(llrs, bits, ws, terminated);
  return bits;
}

void depuncture_soft_into(std::span<const double> punctured,
                          phy::CodeRate rate, std::span<double> out) {
  if (punctured_length(out.size(), rate) != punctured.size()) {
    throw std::invalid_argument("punctured length does not match coded_len");
  }
  apply_pattern(punctured.data(), rate, out.size(), out.data(),
                /*restore=*/true, 0.0);
}

std::vector<double> depuncture_soft(std::span<const double> punctured,
                                    phy::CodeRate rate,
                                    std::size_t coded_len) {
  std::vector<double> out(coded_len);
  depuncture_soft_into(punctured, rate, out);
  return out;
}

std::size_t punctured_length(std::size_t coded_len, phy::CodeRate rate) {
  const auto pat = pattern(rate);
  std::size_t ones = 0;
  for (const std::uint8_t p : pat) ones += p;
  std::size_t kept = (coded_len / pat.size()) * ones;
  for (std::size_t k = 0; k < coded_len % pat.size(); ++k) kept += pat[k];
  return kept;
}

void puncture_into(std::span<const std::uint8_t> coded, phy::CodeRate rate,
                   std::span<std::uint8_t> out) {
  if (out.size() != punctured_length(coded.size(), rate)) {
    throw std::invalid_argument("punctured output size mismatch");
  }
  apply_pattern(coded.data(), rate, coded.size(), out.data(),
                /*restore=*/false, std::uint8_t{0});
}

std::vector<std::uint8_t> puncture(std::span<const std::uint8_t> coded,
                                   phy::CodeRate rate) {
  std::vector<std::uint8_t> out(punctured_length(coded.size(), rate));
  puncture_into(coded, rate, out);
  return out;
}

void depuncture_into(std::span<const std::uint8_t> punctured,
                     phy::CodeRate rate, std::span<std::uint8_t> out) {
  if (punctured_length(out.size(), rate) != punctured.size()) {
    throw std::invalid_argument("punctured length does not match coded_len");
  }
  apply_pattern(punctured.data(), rate, out.size(), out.data(),
                /*restore=*/true, kErasedBit);
}

std::vector<std::uint8_t> depuncture(
    std::span<const std::uint8_t> punctured, phy::CodeRate rate,
    std::size_t coded_len) {
  std::vector<std::uint8_t> out(coded_len);
  depuncture_into(punctured, rate, out);
  return out;
}

}  // namespace acorn::baseband
