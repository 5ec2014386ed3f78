// Stable, platform-independent hashing. std::hash makes no cross-platform
// (or even cross-run) guarantees, so anything persisted or sharded — the
// runtime's EvalCache keys in particular — goes through these instead.
#pragma once

#include <cstdint>
#include <string_view>

namespace rsp::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over a byte string; same input → same value on every platform.
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// splitmix64 finalizer: decorrelates near-identical hash values so they
/// spread uniformly over hash-table shards (see StripedMemoCache::shard_for).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace rsp::util
