// Checked numeric flag values for the example and bench binaries: the
// whole text must parse, or the binary exits 1 with a message naming the
// flag (atoi and atof would read "abc" as 0).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <type_traits>

namespace hpmmap {

/// A count flag's value: digits only, at least `min`.
template <class T = unsigned>
T parse_count(const char* flag, const char* text, std::type_identity_t<T> min) {
  T value = 0;
  const auto [ptr, ec] = std::from_chars(text, text + std::strlen(text), value);
  if (ec != std::errc{} || *ptr != '\0' || value < min) {
    std::fprintf(stderr, "%s needs an integer >= %llu (got '%s')\n", flag,
                 static_cast<unsigned long long>(min), text);
    std::exit(1);
  }
  return value;
}

/// A real flag's value: a finite number greater than zero.
inline double parse_real(const char* flag, const char* text) {
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text, text + std::strlen(text), value);
  if (ec != std::errc{} || *ptr != '\0' || !std::isfinite(value) || value <= 0.0) {
    std::fprintf(stderr, "%s needs a number > 0 (got '%s')\n", flag, text);
    std::exit(1);
  }
  return value;
}

} // namespace hpmmap
