#include <string>
namespace gridcast::io {
double latency(const std::string& token) {
  return std::stod(token);
}
}  // namespace gridcast::io
