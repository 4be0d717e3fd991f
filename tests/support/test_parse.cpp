#include "support/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "support/error.hpp"

namespace gridcast {
namespace {

/// What `reader` makes of `token` as the field "f": its value (doubles at
/// 17 significant digits) or the refusal's message.
std::string outcome(const std::string& reader, const std::string& token) {
  try {
    if (reader == "count") return std::to_string(parse_count(token, "f"));
    if (reader == "count32")
      return std::to_string(parse_count<std::uint32_t>(token, "f"));
    std::ostringstream os;
    os.precision(17);
    os << parse_decimal(token, "f");
    return os.str();
  } catch (const InvalidInput& e) {
    return e.what();
  }
}

TEST(Parse, OneStrictReaderForEveryNumber) {
  const std::string count =
      "f must be a decimal integer in [0, 18446744073709551615], got '";
  const std::string count32 =
      "f must be a decimal integer in [0, 4294967295], got '";
  const std::string decimal = "f must be a finite decimal number, got '";
  struct Row {
    std::string reader, token, want;
  };
  const Row rows[] = {
      // Accepted.
      {"count", "0", "0"},
      {"count", "18446744073709551615", "18446744073709551615"},
      // 2^53 + 1: a read through a double would give 2^53.
      {"count", "9007199254740993", "9007199254740993"},
      {"count32", "4294967295", "4294967295"},
      {"decimal", "0", "0"},
      {"decimal", ".5", "0.5"},
      {"decimal", "1e-310", "9.9999999999999694e-311"},  // subnormal
      {"decimal", "1e+20", "1e+20"},
      {"decimal", "-0.25", "-0.25"},
      // Refused, each with the one wording that names the field.
      {"count", "", count + "'"},
      {"count", " 1", count + " 1'"},
      {"count", "1 ", count + "1 '"},
      {"count", "+1", count + "+1'"},
      {"count", "-1", count + "-1'"},
      {"count", "0x10", count + "0x10'"},
      {"count", "1e3", count + "1e3'"},
      {"count", "1.0", count + "1.0'"},
      {"count", "18446744073709551616", count + "18446744073709551616'"},
      {"count32", "4294967296", count32 + "4294967296'"},
      {"decimal", "", decimal + "'"},
      {"decimal", " 1", decimal + " 1'"},
      {"decimal", "1 ", decimal + "1 '"},
      {"decimal", "+1", decimal + "+1'"},
      {"decimal", "0x10", decimal + "0x10'"},
      {"decimal", "1e400", decimal + "1e400'"},
      {"decimal", "1e-400", decimal + "1e-400'"},
      {"decimal", "inf", decimal + "inf'"},
      {"decimal", "INF", decimal + "INF'"},
      {"decimal", "nan", decimal + "nan'"},
      {"decimal", "1e", decimal + "1e'"},
  };
  for (const Row& row : rows)
    EXPECT_EQ(outcome(row.reader, row.token), row.want)
        << row.reader << " '" << row.token << "'";
  EXPECT_EQ(parse_count("9007199254740993", "f"), 9007199254740993u);
  EXPECT_EQ(parse_decimal("1e-310", "f"), 1e-310);
}

}  // namespace
}  // namespace gridcast
