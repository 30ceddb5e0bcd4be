/// \file
/// Stable 128-bit structural hashing for the content-addressed analysis
/// store (src/store/).
///
/// Keys must be *stable*: the same analysis inputs hash to the same key in
/// every process, on every platform, forever — on-disk artifacts written by
/// one run are looked up by later runs, and a silent drift would turn every
/// cache into a miss (or worse, a wrong hit under a colliding scheme). The
/// mixer is therefore defined here bit for bit: no std::hash, no pointer
/// values, no iteration over unordered containers; strings are mixed as a
/// length prefix plus little-endian 64-bit chunks, doubles by their
/// IEEE-754 bit pattern. tests/store_test.cpp pins golden key values so any
/// accidental change to the algorithm fails loudly.
///
/// Collisions: keys are 128 bits of a well-mixed (splitmix64-based) state,
/// so accidental collisions are negligible (~2^-64 at a billion entries);
/// the store treats equal keys as equal inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.hpp"

namespace pwcet {

class Program;
struct CacheConfig;

/// A 128-bit content key. Ordered lexicographically (hi, lo) so keys can
/// drive deterministic orderings (e.g. the runner's cache-aware group
/// order) as well as hash-map lookups.
struct StoreKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// 32 lowercase hex digits, `hi` first (used as artifact file names).
  std::string hex() const;

  friend bool operator==(const StoreKey&, const StoreKey&) = default;
  friend auto operator<=>(const StoreKey&, const StoreKey&) = default;
};

/// Parses the 32-hex-digit spelling produced by StoreKey::hex() (artifact
/// file names) back into a key; false on any other input. Lets tooling
/// that scans a cache directory (pwcet merge) recover the key of an
/// artifact from its file name and re-validate the file through the
/// ArtifactStore header check.
bool store_key_from_hex(std::string_view hex, StoreKey& key);

/// Hash functor for unordered containers. `lo` is already uniformly mixed,
/// so it serves as the bucket hash directly.
struct StoreKeyHash {
  std::size_t operator()(const StoreKey& key) const {
    return static_cast<std::size_t>(key.lo);
  }
};

/// Incremental mixer producing a StoreKey. Every key starts from a domain
/// tag so values of different kinds ("fmm-rows" vs "pwcet-result") can
/// never alias even if their field streams coincide.
class KeyHasher {
 public:
  explicit KeyHasher(std::string_view domain);

  KeyHasher& mix_u64(std::uint64_t value);
  KeyHasher& mix_i64(std::int64_t value);
  /// IEEE-754 bit pattern; distinguishes -0.0 from 0.0 by design (the
  /// inputs hashed here never produce either from the other).
  KeyHasher& mix_double(double value);
  /// Length-prefixed, so consecutive strings cannot alias across their
  /// boundary ("ab","c" != "a","bc").
  KeyHasher& mix_string(std::string_view value);
  KeyHasher& mix_doubles(const std::vector<double>& values);
  /// Chains a previously computed key (prefix-key composition).
  KeyHasher& mix_key(const StoreKey& key);

  StoreKey finish() const;

 private:
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
  std::uint64_t count_ = 0;  ///< mixed words, folded into finish()
};

/// Structural content hash of a built task: CFG blocks (addresses,
/// instruction counts, data addresses), edges, loop metadata (bounds,
/// membership, back/entry edges) and the structure tree. The task *name*
/// is deliberately excluded — two differently named but structurally
/// identical programs analyze identically, and content addressing lets
/// them share every cached sub-result.
StoreKey hash_program(const Program& program);

/// All geometry and timing fields of a cache configuration.
StoreKey hash_cache_config(const CacheConfig& config);

/// The fault model's sole parameter (cell failure probability), by bits.
StoreKey hash_fault_model(Probability pfail);

}  // namespace pwcet
