/// \file
/// On-disk artifact tier of the content-addressed analysis store.
///
/// Artifacts are versioned JSONL files under a cache directory, one file
/// per (kind, key): the first line is a header object naming the format
/// version, kind, key and the payload's content hash; payload lines
/// follow. Loads validate all of it and return nothing on any mismatch
/// (missing file, version bump, kind or key collision, truncation, or
/// value-level corruption anywhere in the payload) — a corrupt or stale
/// cache degrades to a recompute, never to a wrong answer.
///
/// Byte-identity contract: what store_distribution writes, load_distribution
/// reconstructs *exactly* (values are 64-bit integers; probabilities are
/// printed with "%.17g", which round-trips IEEE doubles bit for bit through
/// strtod). tests/store_test.cpp asserts the round-trip.
///
/// Writes go to a unique temp file in the cache directory and are renamed
/// into place, so concurrent writers (pool threads, parallel processes)
/// race benignly: both write identical bytes and the last rename wins.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "prob/discrete_distribution.hpp"
#include "store/key.hpp"

namespace pwcet {

class ArtifactStore {
 public:
  /// Bump when the header or any payload schema changes; old files then
  /// read as misses instead of being misparsed.
  static constexpr int kFormatVersion = 1;

  struct Options {
    std::string directory = ".pwcet-cache";
  };

  explicit ArtifactStore(Options options);

  const std::string& directory() const { return options_.directory; }

  /// Payload of artifact (kind, key), or nothing if absent/invalid.
  std::optional<std::string> load_text(std::string_view kind,
                                       const StoreKey& key) const;

  /// Persists a payload; false on I/O failure (callers treat the store as
  /// best-effort and continue).
  bool store_text(std::string_view kind, const StoreKey& key,
                  std::string_view payload) const;

  /// pWCET distributions, one atom per payload line. Invalid payloads
  /// (unparsable line, non-increasing values, non-positive probability)
  /// load as nothing.
  std::optional<DiscreteDistribution> load_distribution(
      const StoreKey& key) const;
  bool store_distribution(const StoreKey& key,
                          const DiscreteDistribution& distribution) const;

  /// Removes "<key>.jsonl.tmp*" temp files older than `min_age` — the
  /// debris of writers that died between creating their temp file and
  /// renaming it into place. Live writers are protected by the age floor
  /// (a write is milliseconds; the default floor is an hour), so the sweep
  /// is safe to run while other processes — e.g. concurrent campaign
  /// shards sharing one cache directory — are still writing. Returns the
  /// number of orphans removed; a missing directory sweeps zero.
  std::size_t sweep_orphans(
      std::chrono::seconds min_age = std::chrono::seconds(3600)) const;

  std::uint64_t disk_hits() const { return disk_hits_.load(); }
  std::uint64_t disk_misses() const { return disk_misses_.load(); }
  std::uint64_t disk_writes() const { return disk_writes_.load(); }

 private:
  std::string path_of(std::string_view kind, const StoreKey& key) const;
  std::string header_line(std::string_view kind, const StoreKey& key,
                          std::string_view payload) const;

  Options options_;
  mutable std::atomic<std::uint64_t> disk_hits_{0};
  mutable std::atomic<std::uint64_t> disk_misses_{0};
  mutable std::atomic<std::uint64_t> disk_writes_{0};
};

}  // namespace pwcet
