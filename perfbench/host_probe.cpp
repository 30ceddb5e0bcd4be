/// \file
/// Host speed probe of the repository benchmark (see perfbench/README.md).
///
/// Runs a fixed amount of work that shares nothing with src/ and prints how
/// long it took. perfbench/run.py runs it between the timed `pwcet run`
/// processes, with the workload's number of threads, and scales the run's
/// median times by the probe's median: the host this benchmark runs on is
/// shared, and its speed drifts by tens of percent over minutes, which a
/// median over one run's samples cannot remove.
///
/// The work imitates the program's mix: sorting and merging weighted
/// points (the prob layer's convolution), an LRU cache simulation over a
/// pseudo-random address stream (sim, fault, cache classification) and
/// hash-map inserts and lookups (the analysis store). It is seeded by a
/// constant, so every run does exactly the same work; the checksum it
/// prints must not change from run to run.
///
/// Usage:
///   perfbench_probe --threads N
/// Prints one line: "<wall seconds> <checksum>". Each of the N threads runs
/// the whole work; the wall time is from the first thread's start to the
/// last thread's end. A warm-up round on the main thread comes first and
/// is not timed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t& state) {
  return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
}

using Points = std::vector<std::pair<std::int64_t, double>>;

Points random_points(std::uint64_t& state, int n) {
  Points points(n);
  for (auto& [value, prob] : points) {
    value = static_cast<std::int64_t>(splitmix(state) % 4096);
    prob = unit(state);
  }
  return points;
}

/// All n*m sums, sorted by value and merged: the shape of a convolution.
std::uint64_t convolve(const Points& a, const Points& b) {
  Points out;
  out.reserve(a.size() * b.size());
  for (const auto& [va, pa] : a)
    for (const auto& [vb, pb] : b) out.emplace_back(va + vb, pa * pb);
  std::sort(out.begin(), out.end());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (kept > 0 && out[kept - 1].first == out[i].first)
      out[kept - 1].second += out[i].second;
    else
      out[kept++] = out[i];
  }
  double mass = 0;
  for (std::size_t i = 0; i < kept; ++i) mass += out[i].second;
  return kept ^ static_cast<std::uint64_t>(mass);
}

/// Misses of a 64-set, 4-way LRU cache over a looping address stream.
std::uint64_t simulate(std::uint64_t& state, int accesses) {
  constexpr int kSets = 64, kWays = 4;
  std::int64_t tags[kSets][kWays];
  std::memset(tags, -1, sizeof tags);
  std::vector<std::uint32_t> loop(512);
  for (auto& address : loop)
    address = static_cast<std::uint32_t>(splitmix(state) % (1u << 14));
  std::uint64_t misses = 0;
  for (int i = 0; i < accesses; ++i) {
    std::uint32_t address = loop[i % loop.size()] + (i / 2048) * 16;
    std::uint32_t line = address / 16;
    auto* set = tags[line % kSets];
    std::int64_t tag = line / kSets;
    int way = 0;
    while (way < kWays && set[way] != tag) ++way;
    if (way == kWays) {
      ++misses;
      way = kWays - 1;
    }
    for (; way > 0; --way) set[way] = set[way - 1];
    set[0] = tag;
  }
  return misses;
}

/// Inserts and lookups of a hash map keyed like a content store.
std::uint64_t memoize(std::uint64_t& state, int operations) {
  std::unordered_map<std::uint64_t, double> memo;
  std::uint64_t hits = 0;
  for (int i = 0; i < operations; ++i) {
    std::uint64_t key = splitmix(state) % (operations / 2);
    auto [it, inserted] = memo.try_emplace(key, unit(state));
    if (!inserted) hits += static_cast<std::uint64_t>(it->second > 0.5);
  }
  return hits ^ memo.size();
}

std::uint64_t work(int rounds) {
  std::uint64_t state = 0x5eed5eedULL;
  std::uint64_t sum = 0;
  for (int round = 0; round < rounds; ++round) {
    Points a = random_points(state, 220), b = random_points(state, 220);
    sum = sum * 31 + convolve(a, b);
    sum = sum * 31 + simulate(state, 250000);
    sum = sum * 31 + memoize(state, 40000);
  }
  return sum;
}

constexpr int kRounds = 5;

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: perfbench_probe --threads N\n");
      return 2;
    }
  }
  if (threads < 1) threads = 1;
  // One untimed round first, so that page faults and the allocator's
  // first growth fall outside the timed work.
  work(1);
  std::vector<std::uint64_t> sums(threads);
  auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t)
    pool.emplace_back([&sums, t] { sums[t] = work(kRounds); });
  sums[0] = work(kRounds);
  for (auto& thread : pool) thread.join();
  std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - started;
  for (std::uint64_t sum : sums) {
    if (sum != sums[0]) {
      std::fprintf(stderr, "perfbench_probe: threads disagree\n");
      return 1;
    }
  }
  std::printf("%.9f %llu\n", wall.count(),
              static_cast<unsigned long long>(sums[0]));
  return 0;
}
