// coopcr/util/hash.hpp
//
// FNV-1a 64-bit with the published offset basis and prime, the one hash
// behind journal checksums and spec and grid digests. Journals carry its
// values, so a change to it is a journal format change
// (dist/journal.hpp kJournalFormatVersion).

#pragma once

#include <cstddef>
#include <cstdint>

namespace coopcr {

inline constexpr std::uint64_t kFnv1a64Offset = 14695981039346656037ull;

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
