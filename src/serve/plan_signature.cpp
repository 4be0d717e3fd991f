#include "serve/plan_signature.hpp"

#include <bit>

#include "io/grid_io.hpp"
#include "sched/order_memo.hpp"
#include "support/error.hpp"

namespace gridcast::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t h = kFnvOffset) noexcept {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Fixed-width lowercase hex — field widths in `encode()` must not vary
/// with the value or two encodings could alias across field boundaries.
std::string hex16(std::uint64_t v) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = "0123456789abcdef"[v & 15];
  return out;
}

}  // namespace

std::string PlanSignature::encode() const {
  std::string out;
  out.reserve(64);
  out += "g=";
  out += hex16(grid_hash);
  out += ";v=";
  out += collective::verb_name(verb);
  out += ";r=";
  out += std::to_string(root);
  out += ";b=";
  out += std::to_string(size_bucket);
  out += ";s=";
  out += hex16(sched_rev);
  return out;
}

std::uint64_t PlanSignature::hash() const { return fnv1a(encode()); }

std::uint64_t grid_fingerprint(const topology::Grid& grid) {
  return fnv1a(io::grid_to_string(grid));
}

std::uint32_t size_bucket_of(Bytes m) {
  if (m == 0) throw InvalidInput("size bucket: message size must be >= 1");
  const auto msb = static_cast<std::uint32_t>(std::bit_width(m) - 1);
  // Sizes 1-3 are whole buckets of their own: an octave below 4 bytes has
  // fewer than four integer sizes, so quarters would be empty or alias.
  if (msb < 2) return static_cast<std::uint32_t>(m - 1);
  const auto quarter =
      static_cast<std::uint32_t>((m - (Bytes{1} << msb)) >> (msb - 2));
  return 4 * msb + quarter;
}

Bytes bucket_floor(std::uint32_t bucket) {
  if (bucket < 3) return Bytes{bucket} + 1;
  const std::uint32_t msb = bucket / 4;
  const std::uint32_t quarter = bucket % 4;
  // Buckets 3-7 (octaves below 4 bytes have no quarters) and anything
  // past bucket 255 (msb of a 64-bit size is at most 63) are unreachable.
  if (msb < 2 || bucket > 255)
    throw InvalidInput("size bucket " + std::to_string(bucket) +
                       " is unreachable (no size maps to it)");
  return (Bytes{1} << msb) + Bytes{quarter} * (Bytes{1} << (msb - 2));
}

std::uint64_t scheduler_set_revision(
    const std::vector<sched::Scheduler>& competitors) {
  std::uint64_t h = kFnvOffset;
  for (const auto& comp : competitors) {
    h = fnv1a(sched::entry_key(comp.entry()), h);
    h = fnv1a(";", h);
  }
  return h;
}

}  // namespace gridcast::serve
