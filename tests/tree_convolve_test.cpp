// Tests for the pairwise (tree-reduction) convolution
// convolve_all_tree_shared: bit-identity of its leaf-sharing tree with a
// plain pairwise tree over the expanded leaf list, agreement with the
// serial left fold and with the exact (uncoalesced) convolution. With no
// coalescing pressure the two orders agree exactly; under coalescing the
// tree result must keep the conservative-upper-bound contract of
// prob/discrete_distribution.hpp (exceedance >= exact, pointwise) and
// should stay at least as tight as the fold on long chains.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "engine/thread_pool.hpp"
#include "prob/discrete_distribution.hpp"
#include "support/rng.hpp"

namespace pwcet {
namespace {

/// Random small distribution: 2-5 atoms, values in [0, 400], normalized.
DiscreteDistribution random_part(Rng& rng) {
  const std::size_t atoms = 2 + rng.next_below(4);
  std::vector<ProbabilityAtom> raw;
  double mass = 0.0;
  for (std::size_t i = 0; i < atoms; ++i) {
    const double weight = rng.next_double() + 1e-3;
    raw.push_back({static_cast<Cycles>(rng.next_below(401)), weight});
    mass += weight;
  }
  for (ProbabilityAtom& atom : raw) atom.probability /= mass;
  return DiscreteDistribution::from_atoms(std::move(raw));
}

std::vector<DiscreteDistribution> random_parts(Rng& rng, std::size_t count) {
  std::vector<DiscreteDistribution> parts;
  parts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) parts.push_back(random_part(rng));
  return parts;
}

constexpr std::size_t kNoCoalescing = 1u << 20;

/// Reference pairwise tree over an explicit leaf list: each round
/// convolves neighbour pairs (0,1), (2,3), ... and coalesces; an odd
/// trailing leaf passes through unchanged; the root honours the budget.
DiscreteDistribution expanded_tree(std::vector<DiscreteDistribution> level,
                                   std::size_t max_points) {
  if (level.empty()) return DiscreteDistribution();
  while (level.size() > 1) {
    std::vector<DiscreteDistribution> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(level[i].convolve(level[i + 1]).coalesce_up(max_points));
    if (level.size() % 2 != 0) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return level.front().coalesce_up(max_points);
}

/// The tree over `parts` as leaves, each its own id.
DiscreteDistribution tree(const std::vector<DiscreteDistribution>& parts,
                          std::size_t max_points) {
  std::vector<std::uint32_t> ids(parts.size());
  std::iota(ids.begin(), ids.end(), 0u);
  return convolve_all_tree_shared(parts, ids, max_points);
}

/// As many leaves as `parts`, each of its first half used twice in a row
/// (leaf k is parts[k / 2]) — once as shared ids into `parts` and once
/// expanded.
struct RepeatedLeaves {
  std::vector<std::uint32_t> ids;
  std::vector<DiscreteDistribution> expanded;
};

RepeatedLeaves pair_up_leaves(const std::vector<DiscreteDistribution>& parts) {
  RepeatedLeaves leaves;
  for (std::uint32_t k = 0; k < parts.size(); ++k) {
    leaves.ids.push_back(k / 2);
    leaves.expanded.push_back(parts[k / 2]);
  }
  return leaves;
}

TEST(TreeConvolve, SharedTreeMatchesExpandedTree) {
  // The deduplicating tree must be bit-identical to the plain tree on the
  // expanded leaf list, for every leaf multiplicity pattern — odd counts
  // included (the pass-through leg) — serial and pooled.
  ThreadPool pool(3);
  Rng rng(0xdedu);
  for (int trial = 0; trial < 50; ++trial) {
    const auto distinct = random_parts(rng, 1 + rng.next_below(5));
    const std::size_t leaves = 1 + rng.next_below(33);
    std::vector<std::uint32_t> ids;
    std::vector<DiscreteDistribution> expanded;
    for (std::size_t s = 0; s < leaves; ++s) {
      ids.push_back(
          static_cast<std::uint32_t>(rng.next_below(distinct.size())));
      expanded.push_back(distinct[ids.back()]);
    }
    const std::size_t max_points = 2 + rng.next_below(64);
    const DiscreteDistribution reference =
        expanded_tree(expanded, max_points);
    ASSERT_EQ(convolve_all_tree_shared(distinct, ids, max_points), reference);
    ASSERT_EQ(convolve_all_tree_shared(distinct, ids, max_points, &pool),
              reference);
  }
}

TEST(TreeConvolve, MatchesFoldExactlyWithoutCoalescing) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const auto parts = random_parts(rng, 1 + rng.next_below(10));
    const auto fold = convolve_all(parts, kNoCoalescing);
    const auto reduced = tree(parts, kNoCoalescing);
    // Convolution is associative; without coalescing both orders give the
    // same support. Compare supports exactly and probabilities to within
    // reordering round-off.
    ASSERT_EQ(reduced.size(), fold.size());
    for (std::size_t i = 0; i < reduced.size(); ++i) {
      EXPECT_EQ(reduced.atoms()[i].value, fold.atoms()[i].value);
      EXPECT_NEAR(reduced.atoms()[i].probability,
                  fold.atoms()[i].probability, 1e-12);
    }
  }
}

TEST(TreeConvolve, DominatesExactUnderCoalescing) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto parts = random_parts(rng, 2 + rng.next_below(12));
    // Identity ids, then repeated ids.
    const RepeatedLeaves paired = pair_up_leaves(parts);
    const DiscreteDistribution exact_plain =
        convolve_all(parts, kNoCoalescing);
    const DiscreteDistribution exact_paired =
        convolve_all(paired.expanded, kNoCoalescing);
    for (const std::size_t max_points : {8u, 16u, 64u}) {
      for (const bool repeated : {false, true}) {
        const DiscreteDistribution& exact =
            repeated ? exact_paired : exact_plain;
        const auto reduced =
            repeated ? convolve_all_tree_shared(parts, paired.ids, max_points)
                     : tree(parts, max_points);
        EXPECT_LE(reduced.size(), max_points);
        // The coalescing contract: the kept exceedance function is a
        // pointwise upper bound of the exact one.
        EXPECT_TRUE(reduced.dominates(exact, 1e-9))
            << "trial " << trial << " max_points " << max_points
            << " repeated " << repeated;
        // Mass moves, it is never created or destroyed.
        EXPECT_NEAR(reduced.total_mass(), 1.0, 1e-9);
        EXPECT_GE(reduced.mean(), exact.mean() - 1e-9);
        // The maximum is preserved exactly (coalescing keeps the top atom).
        EXPECT_EQ(reduced.max_value(), exact.max_value());
      }
    }
  }
}

TEST(TreeConvolve, FoldAlsoDominatesExact) {
  // Sanity for the comparison baseline: the serial fold honours the same
  // contract, so either reduction order is sound for pWCET bounds.
  Rng rng(11);
  const auto parts = random_parts(rng, 12);
  const auto exact = convolve_all(parts, kNoCoalescing);
  const auto fold = convolve_all(parts, 16);
  EXPECT_TRUE(fold.dominates(exact, 1e-9));
}

TEST(TreeConvolve, TreeQuantilesNoLooserThanFoldOnLongChains) {
  // O(log n) coalescing steps per leaf-to-root path (tree) vs O(n) on the
  // fold's spine: on long chains the tree's tail quantiles should not be
  // (materially) more conservative. Both dominate the exact result, so
  // compare their 1e-9..1e-15 quantiles directly.
  Rng rng(13);
  double tree_total = 0.0, fold_total = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto parts = random_parts(rng, 32);
    const auto reduced = tree(parts, 64);
    const auto fold = convolve_all(parts, 64);
    for (const double p : {1e-9, 1e-12, 1e-15}) {
      tree_total += static_cast<double>(reduced.quantile_exceedance(p));
      fold_total += static_cast<double>(fold.quantile_exceedance(p));
    }
  }
  EXPECT_LE(tree_total, fold_total * 1.001);
}

TEST(TreeConvolve, EdgeCases) {
  // Empty input: neutral element (all mass at zero), with or without
  // distinct distributions on offer.
  Rng rng(3);
  const auto part = random_part(rng);
  for (const auto& distinct :
       {std::vector<DiscreteDistribution>{},
        std::vector<DiscreteDistribution>{part}}) {
    const auto empty = convolve_all_tree_shared(distinct, {}, 16);
    EXPECT_EQ(empty.size(), 1u);
    EXPECT_EQ(empty.max_value(), 0);
  }

  // Single leaf: returned as-is (subject to the budget), whichever of the
  // distinct distributions it names.
  EXPECT_EQ(tree({part}, kNoCoalescing), part);
  const auto other = random_part(rng);
  EXPECT_EQ(convolve_all_tree_shared({other, part}, {1}, kNoCoalescing),
            part);

  // Odd count: the unpaired distribution must not be dropped — also when
  // it repeats an id already paired in the same round.
  const std::vector<DiscreteDistribution> three{
      DiscreteDistribution::degenerate(1),
      DiscreteDistribution::degenerate(2),
      DiscreteDistribution::degenerate(4)};
  const auto sum = tree(three, kNoCoalescing);
  EXPECT_EQ(sum.size(), 1u);
  EXPECT_EQ(sum.max_value(), 7);
  const auto repeated =
      convolve_all_tree_shared(three, {2, 2, 2}, kNoCoalescing);
  EXPECT_EQ(repeated.size(), 1u);
  EXPECT_EQ(repeated.max_value(), 12);
}

}  // namespace
}  // namespace pwcet
