#include "support/parse.hpp"

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

}  // namespace gridcast
