// Whole-value numeric parsing for command-line flags, endpoint strings
// and deployment-file fields: the entire text must be one number inside
// the range, so "80x", "", "-1" for a count or "inf" for a period are
// rejected rather than truncated to a prefix, wrapped around or turned
// into 0.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>

namespace acorn::util {

/// The whole of `text` as a base-10 integer or a finite double in
/// [lo, hi], else nullopt.
template <class T>
std::optional<T> parse_number(std::string_view text, T lo, T hi) {
  const char* end = text.data() + text.size();
  T v{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < lo ||
      v > hi) {
    return std::nullopt;
  }
  return v;
}

/// Prints `<prog>: invalid value '<text>' for <flag>: expected
/// <expected>` to stderr and exits with status 2.
[[noreturn]] inline void bad_flag_value(const char* prog, const char* flag,
                                        const char* text,
                                        const char* expected) {
  std::fprintf(stderr, "%s: invalid value '%s' for %s: expected %s\n", prog,
               text, flag, expected);
  std::exit(2);
}

/// The argument after the flag at argv[i], advancing i to it. A flag
/// with nothing after it prints `<prog>: missing value for <flag>` to
/// stderr and exits with status 2.
inline const char* next_flag_value(const char* prog, int argc, char** argv,
                                   int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s: missing value for %s\n", prog, argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

/// A flag's value through parse_number, or bad_flag_value.
template <class T>
T flag_value(const char* prog, const char* flag, const char* text, T lo,
             T hi, const char* expected) {
  const std::optional<T> v = parse_number<T>(text, lo, hi);
  if (!v) bad_flag_value(prog, flag, text, expected);
  return *v;
}

}  // namespace acorn::util
