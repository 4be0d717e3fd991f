#include "support/options.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "support/error.hpp"
#include "support/parse.hpp"
#include "support/thread_pool.hpp"

namespace gridcast {

std::optional<std::string> env_str(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const auto s = env_str(name);
  return s ? parse_count(*s, name) : fallback;
}

bool env_bool(const char* name, bool fallback) {
  auto s = env_str(name);
  if (!s) return fallback;
  std::string v = *s;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw InvalidInput(std::string(name) + " is not a boolean: '" + *s + "'");
}

BenchOptions BenchOptions::from_env(std::uint64_t default_iters) {
  BenchOptions o;
  o.iterations = env_u64("GRIDCAST_ITERS", default_iters);
  if (o.iterations == 0)
    throw InvalidInput("GRIDCAST_ITERS must be >= 1, got '0'");
  o.seed = env_u64("GRIDCAST_SEED", 42);
  o.threads = static_cast<std::size_t>(env_u64(
      "GRIDCAST_THREADS",
      static_cast<std::uint64_t>(ThreadPool::default_workers())));
  o.csv = env_bool("GRIDCAST_CSV", false);
  return o;
}

}  // namespace gridcast
