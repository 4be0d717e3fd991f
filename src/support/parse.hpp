#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "support/types.hpp"

/// The one reader for numbers in untrusted text: grid files, bench
/// reports, serve requests, CLI flags and `GRIDCAST_*` variables.
///
/// Each call reads a whole token, so a leading or trailing space, a `+`
/// sign or trailing junk is refused.  Every refusal is one InvalidInput
/// line that names the field, `<field> must be ..., got '<token>'`; the
/// caller adds its position (grid record, JSON offset, request-log line).
namespace gridcast {

namespace detail {
[[nodiscard]] std::uint64_t parse_count(std::string_view token,
                                        std::string_view field,
                                        std::uint64_t max);
}  // namespace detail

/// A count: plain decimal digits with no sign, point or exponent, no
/// larger than T holds.  It is read as an integer, never through a
/// double, so every value up to 2^64 - 1 is exact.
template <std::unsigned_integral T = std::uint64_t>
[[nodiscard]] T parse_count(std::string_view token, std::string_view field) {
  return static_cast<T>(
      detail::parse_count(token, field, std::numeric_limits<T>::max()));
}

/// A finite decimal number: an optional '-', digits with an optional
/// point and exponent (`0.5`, `.5`, `1e-06`).  Hex, `inf`, `nan` and
/// values that overflow or underflow a double are refused.
[[nodiscard]] double parse_decimal(std::string_view token,
                                   std::string_view field);

/// A message size: plain bytes, a count ("262144"), or a K/KiB/M/MiB-
/// suffixed decimal ("256K", "4.25MiB", case-insensitive); either way at
/// least one byte.
[[nodiscard]] Bytes parse_size(const std::string& token);

}  // namespace gridcast
