// Strict parsing of numeric command-line flag values, shared by nck_cli and
// nck_serve: a value that is not exactly a number of the asked kind is a
// usage error, never an exception and never a silent wrap (std::stoull
// reads "-1" as 2^64 - 1).
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <type_traits>

namespace nck {

/// Decimal digits only (no sign, space or suffix) of a value that fits in
/// `Unsigned`. Leaves `*out` alone on failure.
template <class Unsigned>
bool parse_count(std::string_view text, Unsigned* out) {
  static_assert(std::is_unsigned_v<Unsigned>);
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// A finite decimal number and nothing after it (no "nan", "inf", hex or
/// trailing characters). Leaves `*out` alone on failure.
inline bool parse_finite(std::string_view text, double* out) {
  double x = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, x);
  if (ec != std::errc() || ptr != end || !std::isfinite(x)) return false;
  *out = x;
  return true;
}

}  // namespace nck
