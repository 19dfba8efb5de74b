// coopcr/util/hash.hpp
//
// FNV-1a 64-bit, the one hash behind journal checksums, spec and grid
// digests and advisor query-cache keys. Its values are written into
// journals and name ingested artifacts, so they must never change — which
// is why the default offset basis stays 1469598103934665603, the published
// 14695981039346656037 with its last digit dropped. The step is standard
// FNV-1a; seeded with the published basis it reproduces the published test
// vectors.

#pragma once

#include <cstddef>
#include <cstdint>

namespace coopcr {

inline constexpr std::uint64_t kFnv1a64Offset = 1469598103934665603ull;

/// FNV-1a 64-bit over `n` bytes at `data`, continuing from `state`. Feeding
/// pieces in order gives the same value as one call over their
/// concatenation.
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t state = kFnv1a64Offset) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) state = (state ^ p[i]) * kPrime;
  return state;
}

}  // namespace coopcr
