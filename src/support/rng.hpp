#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "support/error.hpp"

/// Deterministic, splittable random number generation.
///
/// Monte-Carlo experiments are split across worker threads; to make results
/// independent of the thread count (and reproducible under a single seed),
/// every iteration derives its own statistically independent stream via
/// `Rng::stream(seed, iteration)` instead of sharing one sequential
/// generator.  The core generator is SplitMix64 (Steele et al., "Fast
/// Splittable Pseudorandom Number Generators"), which passes BigCrush and is
/// trivially seedable from a hash of (seed, stream).
namespace gridcast {

/// The SplitMix64 finalizer: a bijective 64-bit mix, the dispersion step
/// of `Rng` and of every seed derived from (seed, coordinates).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The standard 64-bit FNV offset basis.
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// 64-bit FNV-1a of `s`, continuing from `h`, so a caller can fold several
/// strings into one hash.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view s, std::uint64_t h = kFnvBasis) noexcept {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over a name: stable across platforms, and a seed derived from it
/// follows a series by name, not by its position in a competitor list.
/// The basis is not the standard one, but every sweep cell seed and race
/// draw derives from it, so it stays.
[[nodiscard]] constexpr std::uint64_t name_hash(std::string_view s) noexcept {
  return fnv1a(s, 1469598103934665603ULL);
}

/// 64-bit splittable PRNG with uniform helpers.
class Rng {
 public:
  /// Seed a root stream.
  explicit Rng(std::uint64_t seed) noexcept : state_(mix_seed(seed)) {}

  /// Derive the generator for an independent stream (e.g. one Monte-Carlo
  /// iteration).  Streams for distinct `stream_id` are decorrelated by a
  /// double SplitMix64 finalizer over the (seed, id) pair.
  [[nodiscard]] static Rng stream(std::uint64_t seed,
                                  std::uint64_t stream_id) noexcept {
    Rng r(seed ^ mix64(stream_id + 0x9e3779b97f4a7c15ULL));
    r.next();  // decouple from the raw seed mix
    return r;
  }

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    return mix64(z);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 random mantissa bits → uniform on [0,1) without rounding bias.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).  Requires lo <= hi.
  double uniform(double lo, double hi) {
    GRIDCAST_ASSERT(lo <= hi, "uniform(lo,hi) requires lo <= hi");
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).  Requires n > 0.  Uses Lemire's unbiased
  /// multiply-shift rejection method.
  std::uint64_t below(std::uint64_t n) {
    GRIDCAST_ASSERT(n > 0, "below(n) requires n > 0");
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    GRIDCAST_ASSERT(lo <= hi, "between(lo,hi) requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Standard normal via the Marsaglia-Bray polar method (SIAM Review
  /// 6(3), 1964), for link jitter.  Each accepted candidate pair yields two
  /// normals: this call returns the first and keeps the second for the next.
  double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    Polar p = polar_candidate();
    while (!p.accepted()) p = polar_candidate();
    const double f = p.scale();
    spare_ = p.v * f;
    have_spare_ = true;
    return p.u * f;
  }

  /// The normals that successive normal() calls would return from here,
  /// drawn a block at a time: takes N/2 polar candidates (another N/2 while
  /// none is accepted), keeps the accepted ones without a branch, then
  /// transforms them.  Writes out[0, k) and returns k, an even count >= 2.
  /// Must start at a pair boundary: no normal() spare may be pending.
  template <std::size_t N>
  std::size_t normal_block(std::array<double, N>& out) {
    static_assert(N >= 2 && N % 2 == 0, "normals come in pairs");
    GRIDCAST_ASSERT(!have_spare_, "normal_block with a normal() spare pending");
    constexpr std::size_t kPairs = N / 2;
    Polar kept[kPairs]{};
    std::size_t m = 0;
    do {
      for (std::size_t i = 0; i < kPairs; ++i) {
        kept[m] = polar_candidate();
        m += kept[m].accepted();
      }
    } while (m == 0);
    for (std::size_t i = 0; i < m; ++i) {
      const double f = kept[i].scale();
      out[2 * i] = kept[i].u * f;
      out[2 * i + 1] = kept[i].v * f;
    }
    return 2 * m;
  }

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Fisher-Yates shuffle of a random-access range.
  template <typename Range>
  void shuffle(Range& r) {
    const auto n = static_cast<std::uint64_t>(r.size());
    for (std::uint64_t i = n; i > 1; --i) {
      const auto j = below(i);
      using std::swap;
      swap(r[i - 1], r[j]);
    }
  }

 private:
  [[nodiscard]] static std::uint64_t mix_seed(std::uint64_t seed) noexcept {
    return mix64(seed + 0x2545f4914f6cdd1dULL);
  }

  /// One candidate point (u, v) of the polar method, uniform on
  /// [-1, 1)^2, with its squared radius s.
  struct Polar {
    double u, v, s;

    /// Inside the unit circle and off the origin (s == 0 would be log(0)).
    /// Evaluates both compares, so a caller can count acceptances
    /// without a branch.
    [[nodiscard]] bool accepted() const noexcept {
      return (s < 1.0) & (s != 0.0);
    }
    /// For an accepted point, u * scale() and v * scale() are two
    /// independent standard normals.
    [[nodiscard]] double scale() const noexcept {
      return __builtin_sqrt(-2.0 * __builtin_log(s) / s);
    }
  };

  Polar polar_candidate() noexcept {
    const double u = 2.0 * uniform() - 1.0;
    const double v = 2.0 * uniform() - 1.0;
    return {u, v, u * u + v * v};
  }

  std::uint64_t state_;
  double spare_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace gridcast
