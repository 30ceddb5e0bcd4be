/// \file
/// Process-wide metrics registry: named monotonic counters and duration
/// histograms, exportable as one deterministic-shaped JSON snapshot.
///
/// Same contracts as the tracer (obs/tracer.hpp): disabled by default and
/// a single relaxed atomic load when disabled; observation only, so every
/// campaign report is byte-identical with metrics on or off; thread-safe
/// (counters and histogram buckets are atomics, the name index is behind
/// a shared mutex and instruments are never removed, so returned
/// references stay valid for the registry's lifetime).
///
/// Naming convention (the full taxonomy lives in docs/observability.md):
/// dot-separated lowercase paths, coarse-to-fine —
/// `store.memo.<layer>.hits`, `engine.pool.steals`, `phase.convolve`.
/// *Counter* values for a fixed spec at one thread with a cold store are
/// deterministic (they count structural events: jobs, memo lookups,
/// pool tasks); histogram *durations* of course are not — consumers that
/// diff snapshots compare the counters section only.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pwcet::obs {

/// Monotonic counter. Additions are relaxed atomics: totals are exact,
/// cross-counter ordering is not promised.
class Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Duration histogram over nanoseconds: count/sum/min/max plus
/// power-of-two buckets (bucket i counts samples with bit_width(ns) == i,
/// i.e. ns in [2^(i-1), 2^i)), which spans 1 ns to ~584 years in 64
/// buckets — no configuration, no unbounded memory.
class DurationHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe_ns(std::uint64_t ns);

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::uint64_t min_ns = 0;  ///< 0 when count == 0
    std::uint64_t max_ns = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside
    /// the power-of-two bucket holding the target rank, clamped to the
    /// exact [min_ns, max_ns] envelope (so a single-valued histogram
    /// returns that value exactly, and q=0 / q=1 return min / max).
    /// 0 when the histogram is empty. This is what the JSON snapshot's
    /// derived p50_ns/p90_ns/p99_ns fields and the --profile table
    /// surface instead of raw bucket arrays.
    double quantile_ns(double q) const;
  };
  Snapshot snapshot() const;

  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

class MetricsRegistry {
 public:
  /// The process-wide registry every instrumentation site records into.
  static MetricsRegistry& instance();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Named instruments, created on first use. References stay valid for
  /// the registry's lifetime (instruments are never removed; clear() only
  /// zeroes values), so hot sites may cache them.
  Counter& counter(const std::string& name);
  DurationHistogram& histogram(const std::string& name);

  /// Enabled-gated convenience recorders — the form instrumentation
  /// sites use: a disabled registry costs one relaxed load, nothing else.
  void add(const char* name, std::uint64_t delta = 1) {
    if (enabled()) counter(name).add(delta);
  }
  void add(const std::string& name, std::uint64_t delta = 1) {
    if (enabled()) counter(name).add(delta);
  }
  void observe_ns(const char* name, std::uint64_t ns) {
    if (enabled()) histogram(name).observe_ns(ns);
  }

  /// All counters / histograms, sorted by name (deterministic order).
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  struct NamedHistogram {
    std::string name;
    DurationHistogram::Snapshot snapshot;
  };
  std::vector<NamedHistogram> histograms() const;

  /// One JSON document:
  /// `{"counters":{name:value,...},"histograms":{name:{"count":..,
  /// "sum_ns":..,"min_ns":..,"max_ns":..,"mean_ns":..,
  /// "buckets":[{"le_ns":..,"count":..},...]},...}}`
  /// Names sorted; only non-empty buckets are listed. Counter values are
  /// deterministic for a fixed single-threaded cold-store run; durations
  /// are wall-clock and are not.
  std::string json_snapshot() const;

  /// Writes json_snapshot() to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

  /// Zeroes every instrument (names and references survive).
  void clear();

 private:
  MetricsRegistry() = default;

  std::atomic<bool> enabled_{false};
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<DurationHistogram>> histograms_;
};

/// Bumps `store.<...>` counters without the call site spelling the full
/// path: `count_store(\"memo\", layer, \"hits\")` →
/// `store.memo.<layer>.hits`. Builds the name only when enabled.
void count_store(std::string_view tier, std::string_view layer,
                 std::string_view event, std::uint64_t delta = 1);

}  // namespace pwcet::obs
