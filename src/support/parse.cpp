#include "support/parse.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <string>

#include "support/error.hpp"

namespace gridcast {

namespace {

[[noreturn]] void refuse(std::string_view field, const std::string& want,
                         std::string_view token) {
  throw InvalidInput(std::string(field) + " must be " + want + ", got '" +
                     std::string(token) + "'");
}

}  // namespace

std::uint64_t detail::parse_count(std::string_view token,
                                  std::string_view field, std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc{} || ptr != end || v > max)
    refuse(field, "a decimal integer in [0, " + std::to_string(max) + "]",
           token);
  return v;
}

double parse_decimal(std::string_view token, std::string_view field) {
  double v = 0.0;
  const char* end = token.data() + token.size();
  // from_chars reads `inf` and `nan` too; no field can hold either.
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v))
    refuse(field, "a finite decimal number", token);
  return v;
}

Bytes parse_size(const std::string& token) {
  const auto too_small = [&] {
    return InvalidInput("size must be at least one byte, got '" + token +
                        "'");
  };
  const std::size_t unit_at = token.find_first_not_of("0123456789.");
  if (unit_at == std::string::npos) {
    // Plain bytes are a count, read exactly (2^53 + 1 stays itself).
    const auto b = parse_count<Bytes>(token, "size");
    if (b == 0) throw too_small();
    return b;
  }
  std::string unit = token.substr(unit_at);
  for (char& c : unit)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  double scale = 0.0;
  if (unit == "k" || unit == "kib")
    scale = 1024.0;
  else if (unit == "m" || unit == "mib")
    scale = 1048576.0;
  else
    throw InvalidInput("size '" + token + "': unknown unit '" + unit +
                       "' (use K/KiB/M/MiB)");
  const double bytes = parse_decimal(token.substr(0, unit_at), "size") * scale;
  // A sub-byte size like "0.5K" would truncate to 0 and only die much
  // later on a message-size assertion; the upper bound keeps the cast to
  // Bytes defined.
  if (bytes < 1.0) throw too_small();
  if (bytes >= 0x1p64)
    throw InvalidInput("size must be below 2^64 bytes, got '" + token + "'");
  return static_cast<Bytes>(bytes);
}

}  // namespace gridcast
