#pragma once

#include <cstdint>
#include <optional>
#include <string>

/// Environment-variable driven configuration for bench binaries.
///
/// The benchmark suite is executed unattended (`for b in build/bench/*`),
/// so every knob must have a sensible default and be overridable without
/// command-line plumbing: `GRIDCAST_ITERS`, `GRIDCAST_SEED`,
/// `GRIDCAST_THREADS`, `GRIDCAST_CSV`.
namespace gridcast {

/// Read an environment variable; empty optional when unset or empty.
[[nodiscard]] std::optional<std::string> env_str(const char* name);

/// Read a count environment variable (support/parse rules); `fallback`
/// when unset or empty.  A malformed value throws InvalidInput, so a typo
/// never silently falls back.
[[nodiscard]] std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Read a boolean env var ("1"/"true"/"yes" → true, "0"/"false"/"no" →
/// false, case-insensitive); `fallback` when unset.
[[nodiscard]] bool env_bool(const char* name, bool fallback);

/// Standard experiment knobs resolved once per bench binary.
struct BenchOptions {
  std::uint64_t iterations;  ///< Monte-Carlo iterations per configuration.
  std::uint64_t seed;        ///< Root RNG seed.
  std::size_t threads;       ///< Worker threads (0 = inline).
  bool csv;                  ///< Emit CSV instead of aligned tables.

  /// Resolve from the GRIDCAST_* environment with the given default
  /// iteration count (figures differ: Fig. 1 is cheap, Fig. 4 is not).
  /// Throws InvalidInput for a malformed value or GRIDCAST_ITERS=0.
  [[nodiscard]] static BenchOptions from_env(std::uint64_t default_iters);
};

}  // namespace gridcast
