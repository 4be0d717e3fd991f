#include <charconv>
#include <string_view>
// The one home for number reads: parse.* may call std::from_chars.
namespace gridcast {
double parse_decimal(std::string_view token) {
  double v = 0.0;
  std::from_chars(token.data(), token.data() + token.size(), v);
  return v;
}
}  // namespace gridcast
