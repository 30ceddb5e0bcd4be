// Unit and property tests for src/prob: binomial law (paper Eq. 2-3) and
// the discrete penalty distributions with conservative coalescing
// (paper Fig. 1.b).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "prob/binomial.hpp"
#include "prob/discrete_distribution.hpp"
#include "support/rng.hpp"

namespace pwcet {
namespace {

TEST(Binomial, CoefficientSmallCases) {
  EXPECT_NEAR(std::exp(log_binomial_coefficient(4, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(4, 1)), 4.0, 1e-12);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(4, 2)), 6.0, 1e-12);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(10, 5)), 252.0, 1e-9);
}

TEST(Binomial, PmfMatchesDirectFormula) {
  const double p = 0.3;
  for (unsigned k = 0; k <= 4; ++k) {
    double direct = 1.0;
    // n = 4 direct computation.
    const double choose[] = {1, 4, 6, 4, 1};
    direct = choose[k] * std::pow(p, k) * std::pow(1 - p, 4 - k);
    EXPECT_NEAR(binomial_pmf(4, k, p), direct, 1e-12);
  }
}

TEST(Binomial, PmfVectorSumsToOne) {
  for (double p : {0.0, 1e-10, 1e-4, 0.01, 0.5, 0.99, 1.0}) {
    const auto pmf = binomial_pmf_vector(4, p);
    ASSERT_EQ(pmf.size(), 5u);
    double sum = 0.0;
    for (double x : pmf) sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-9) << "p=" << p;
  }
}

TEST(Binomial, ExtremeTailStaysAccurate) {
  // pbf ~ 1.3e-2 for pfail = 1e-4 (paper); pwf(4) = pbf^4 ~ 2.6e-8 must not
  // round to zero, nor should far smaller tails.
  const double pbf = 0.0127182;
  EXPECT_NEAR(binomial_pmf(4, 4, pbf), std::pow(pbf, 4), 1e-14);
  const double tiny = binomial_pmf(4, 4, 1e-10);
  EXPECT_GT(tiny, 0.0);
  EXPECT_NEAR(tiny, 1e-40, 1e-45);
}

TEST(Binomial, DegenerateP) {
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 2, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 4, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 1, 1.0), 0.0);
}

TEST(Distribution, DefaultIsZeroPoint) {
  const DiscreteDistribution d;
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.min_value(), 0);
  EXPECT_DOUBLE_EQ(d.total_mass(), 1.0);
}

TEST(Distribution, FromAtomsMergesAndSorts) {
  const auto d = DiscreteDistribution::from_atoms(
      {{5, 0.25}, {1, 0.5}, {5, 0.25}});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d.atoms()[0].value, 1);
  EXPECT_DOUBLE_EQ(d.atoms()[0].probability, 0.5);
  EXPECT_EQ(d.atoms()[1].value, 5);
  EXPECT_DOUBLE_EQ(d.atoms()[1].probability, 0.5);
}

TEST(Distribution, FromAtomsSumsTiedValuesInInputOrder) {
  // 17 atoms on one value — a 16-way pwf has ways + 1 = 17 — are more than
  // the 16 below which introsort falls back to insertion sort, so an
  // unstable sort permutes the ties and the merged sum moves in its last
  // bits. The merge must add the probabilities in input order.
  std::vector<ProbabilityAtom> atoms;
  for (int i = 1; i <= 17; ++i) atoms.push_back({7, i / 153.0});
  Probability input_order = atoms[0].probability;
  for (std::size_t i = 1; i < atoms.size(); ++i)
    input_order += atoms[i].probability;
  const auto d = DiscreteDistribution::from_atoms(atoms);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.atoms()[0], (ProbabilityAtom{7, input_order}));
}

TEST(Distribution, DropsZeroProbabilityAtoms) {
  const auto d =
      DiscreteDistribution::from_atoms({{1, 1.0}, {7, 0.0}});
  EXPECT_EQ(d.size(), 1u);
}

TEST(Distribution, ExceedanceStepFunction) {
  const auto d = DiscreteDistribution::from_atoms({{10, 0.7}, {20, 0.3}});
  EXPECT_DOUBLE_EQ(d.exceedance(9), 1.0);
  EXPECT_DOUBLE_EQ(d.exceedance(10), 0.3);
  EXPECT_DOUBLE_EQ(d.exceedance(19), 0.3);
  EXPECT_DOUBLE_EQ(d.exceedance(20), 0.0);
}

TEST(Distribution, QuantileExceedance) {
  const auto d = DiscreteDistribution::from_atoms({{10, 0.7}, {20, 0.3}});
  // P[X > 10] = 0.3 <= 0.5, and any v < 10 has exceedance 1.0.
  EXPECT_EQ(d.quantile_exceedance(0.5), 10);
  EXPECT_EQ(d.quantile_exceedance(0.3), 10);   // 0.3 <= 0.3 holds at 10
  EXPECT_EQ(d.quantile_exceedance(0.29), 20);  // need the top atom
  EXPECT_EQ(d.quantile_exceedance(0.0), 20);
}

TEST(Distribution, QuantileOfDegenerate) {
  const auto d = DiscreteDistribution::degenerate(42);
  EXPECT_EQ(d.quantile_exceedance(1e-15), 42);
  EXPECT_EQ(d.quantile_exceedance(0.9), 42);
}

TEST(Distribution, ConvolveTwoDice) {
  std::vector<ProbabilityAtom> die;
  for (int v = 1; v <= 6; ++v) die.push_back({v, 1.0 / 6.0});
  const auto d = DiscreteDistribution::from_atoms(die);
  const auto sum = d.convolve(d);
  ASSERT_EQ(sum.size(), 11u);  // 2..12
  EXPECT_EQ(sum.min_value(), 2);
  EXPECT_EQ(sum.max_value(), 12);
  EXPECT_NEAR(sum.total_mass(), 1.0, 1e-12);
  // P[sum = 7] = 6/36.
  EXPECT_NEAR(sum.exceedance(6) - sum.exceedance(7), 6.0 / 36.0, 1e-12);
}

TEST(Distribution, ConvolveWithZeroIsIdentity) {
  const auto d = DiscreteDistribution::from_atoms({{3, 0.4}, {9, 0.6}});
  const auto same = d.convolve(DiscreteDistribution::degenerate(0));
  EXPECT_EQ(same, d);
}

TEST(Distribution, Shift) {
  const auto d = DiscreteDistribution::from_atoms({{1, 0.5}, {2, 0.5}});
  const auto shifted = d.shift(100);
  EXPECT_EQ(shifted.min_value(), 101);
  EXPECT_EQ(shifted.max_value(), 102);
}

TEST(Distribution, MeanLinearity) {
  const auto d = DiscreteDistribution::from_atoms({{2, 0.5}, {6, 0.5}});
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  EXPECT_DOUBLE_EQ(d.shift(10).mean(), 14.0);
}

TEST(Distribution, CoalesceKeepsMassAndBounds) {
  std::vector<ProbabilityAtom> atoms;
  for (int v = 0; v < 100; ++v) atoms.push_back({v, 0.01});
  const auto d = DiscreteDistribution::from_atoms(atoms);
  const auto c = d.coalesce_up(10);
  EXPECT_LE(c.size(), 10u);
  EXPECT_NEAR(c.total_mass(), 1.0, 1e-12);
  EXPECT_EQ(c.max_value(), d.max_value());  // top atom always preserved
}

TEST(Distribution, CoalesceIsConservative) {
  // The coalesced distribution must stochastically dominate the original:
  // moving mass upward can only increase exceedance probabilities.
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ProbabilityAtom> atoms;
    double total = 0.0;
    const int n = 20 + static_cast<int>(rng.next_below(80));
    for (int i = 0; i < n; ++i) {
      const double p = rng.next_double() + 1e-3;
      atoms.push_back({static_cast<Cycles>(rng.next_below(100000)), p});
      total += p;
    }
    for (auto& a : atoms) a.probability /= total;
    const auto d = DiscreteDistribution::from_atoms(atoms);
    const auto c = d.coalesce_up(8);
    EXPECT_TRUE(c.dominates(d)) << "trial " << trial;
    EXPECT_NEAR(c.total_mass(), 1.0, 1e-9);
  }
}

TEST(Distribution, CoalesceBreaksCostTiesByLowestIndex) {
  // 64 equally likely, evenly spaced atoms: all 63 merge candidates cost
  // the same — far more than the 16 below which introsort falls back to
  // insertion sort, so an unstable ranking would pick an arbitrary subset.
  // The total order (cost, index) must merge the 24 lowest atoms upward.
  std::vector<ProbabilityAtom> atoms;
  for (Cycles v = 0; v < 64; ++v) atoms.push_back({v, 1.0 / 64.0});
  const auto d = DiscreteDistribution::from_atoms(atoms);
  const auto c = d.coalesce_up(40);
  ASSERT_EQ(c.size(), 40u);
  EXPECT_EQ(c.atoms()[0], (ProbabilityAtom{24, 25.0 / 64.0}));
  for (std::size_t i = 1; i < c.size(); ++i)
    EXPECT_EQ(c.atoms()[i],
              (ProbabilityAtom{static_cast<Cycles>(24 + i), 1.0 / 64.0}))
        << i;
}

TEST(Distribution, DominatesIsReflexiveAndDetectsViolation) {
  const auto a = DiscreteDistribution::from_atoms({{1, 0.5}, {10, 0.5}});
  const auto b = DiscreteDistribution::from_atoms({{1, 0.4}, {10, 0.6}});
  EXPECT_TRUE(a.dominates(a));
  EXPECT_TRUE(b.dominates(a));   // b has more mass up high
  EXPECT_FALSE(a.dominates(b));
}

TEST(Distribution, ConvolveAllWithCoalescing) {
  // 16 independent 3-point distributions (like 16 cache sets).
  std::vector<DiscreteDistribution> parts;
  for (int s = 0; s < 16; ++s) {
    parts.push_back(DiscreteDistribution::from_atoms(
        {{0, 0.9}, {100 * (s + 1), 0.09}, {1000 * (s + 1), 0.01}}));
  }
  const auto all = convolve_all(parts, 512);
  EXPECT_LE(all.size(), 512u);
  EXPECT_NEAR(all.total_mass(), 1.0, 1e-9);
  // Maximum penalty = sum of the per-part maxima (coalescing keeps the top).
  Cycles expected_max = 0;
  for (int s = 0; s < 16; ++s) expected_max += 1000 * (s + 1);
  EXPECT_EQ(all.max_value(), expected_max);
  // All-zero outcome has probability 0.9^16.
  EXPECT_NEAR(1.0 - all.exceedance(0), std::pow(0.9, 16), 1e-9);
}

TEST(Distribution, PaperFigure1Example) {
  // Paper Fig. 1.b: sets 0 and 1 with FMM rows {10, 130} and {14, 164}
  // (W = 2), combined by convolution. Probabilities pwf(0), pwf(1), pwf(2).
  const double pbf = 0.1;
  const auto pwf = binomial_pmf_vector(2, pbf);
  const auto set0 = DiscreteDistribution::from_atoms(
      {{0, pwf[0]}, {10, pwf[1]}, {130, pwf[2]}});
  const auto set1 = DiscreteDistribution::from_atoms(
      {{0, pwf[0]}, {14, pwf[1]}, {164, pwf[2]}});
  const auto combined = set0.convolve(set1);
  // 9 combinations, all distinct sums here.
  EXPECT_EQ(combined.size(), 9u);
  EXPECT_EQ(combined.max_value(), 130 + 164);
  EXPECT_NEAR(combined.exceedance(293), pwf[2] * pwf[2], 1e-15);
  // P[penalty = 24] = pwf(1)^2 (one faulty block in each set).
  EXPECT_NEAR(combined.exceedance(23) - combined.exceedance(24),
              pwf[1] * pwf[1], 1e-12);
}

TEST(Distribution, ExceedanceAccumulatesTinyTails) {
  // Summing from the top must retain 1e-30-scale tail atoms.
  const auto d = DiscreteDistribution::from_atoms(
      {{0, 1.0 - 1e-30}, {1000, 1e-30}});
  EXPECT_NEAR(d.exceedance(500), 1e-30, 1e-36);
}

// ---- the convolve fast path ------------------------------------------------

/// The historical convolve, verbatim: generate all pair products a-major /
/// b-minor, stable-sort by value, accumulate left to right. The shipped
/// implementation (dense lattice buckets / streaming k-way merge) claims
/// bit-identity with this ordering; these tests hold it to that.
DiscreteDistribution reference_convolve(const DiscreteDistribution& a,
                                        const DiscreteDistribution& b) {
  std::vector<ProbabilityAtom> products;
  products.reserve(a.size() * b.size());
  for (const auto& x : a.atoms())
    for (const auto& y : b.atoms())
      products.push_back({x.value + y.value, x.probability * y.probability});
  std::stable_sort(products.begin(), products.end(),
                   [](const ProbabilityAtom& x, const ProbabilityAtom& y) {
                     return x.value < y.value;
                   });
  std::vector<ProbabilityAtom> atoms;
  for (const auto& product : products) {
    if (!atoms.empty() && atoms.back().value == product.value)
      atoms.back().probability += product.probability;
    else
      atoms.push_back(product);
  }
  std::erase_if(atoms,
                [](const ProbabilityAtom& a) { return a.probability == 0.0; });
  return DiscreteDistribution::from_canonical_atoms(std::move(atoms));
}

/// A random distribution on the lattice {base + stride * k}; mimics the
/// penalty shapes the analysis produces (values = multiples of the miss
/// penalty).
DiscreteDistribution random_lattice_distribution(Rng& rng, Cycles stride,
                                                 std::size_t max_atoms) {
  const std::size_t count = 1 + rng.next_below(max_atoms);
  std::vector<ProbabilityAtom> atoms;
  double mass = 0.0;
  Cycles value = static_cast<Cycles>(rng.next_below(50)) * stride;
  for (std::size_t i = 0; i < count; ++i) {
    const double p = rng.next_double() + 1e-3;
    atoms.push_back({value, p});
    mass += p;
    value += static_cast<Cycles>(1 + rng.next_below(20)) * stride;
  }
  for (auto& a : atoms) a.probability /= mass;
  return DiscreteDistribution::from_atoms(std::move(atoms));
}

TEST(Distribution, ConvolveBitIdenticalToReferenceOnLattices) {
  // The dense-bucket path (lattice supports, the analysis workload).
  Rng rng(0xc0417e5);
  for (int trial = 0; trial < 200; ++trial) {
    const Cycles stride = static_cast<Cycles>(1 + rng.next_below(40));
    const auto a = random_lattice_distribution(rng, stride, 64);
    const auto b = random_lattice_distribution(rng, stride, 64);
    ASSERT_EQ(a.convolve(b), reference_convolve(a, b));
  }
}

TEST(Distribution, ConvolveBitIdenticalToReferenceOffLattice) {
  // Mixed strides (gcd collapses to small values or 1) still bucket
  // densely; the scatter path must match the reference too.
  Rng rng(0x0ffb347);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = random_lattice_distribution(
        rng, static_cast<Cycles>(1 + rng.next_below(7)), 48);
    const auto b = random_lattice_distribution(
        rng, static_cast<Cycles>(1 + rng.next_below(5)), 48);
    ASSERT_EQ(a.convolve(b), reference_convolve(a, b));
  }
}

TEST(Distribution, ConvolveAdversariallyWideInputs) {
  // Values spread over a 2^40 range with gcd 1: a dense accumulator would
  // need ~10^12 buckets, so this must take the streaming merge path — the
  // regression test for the old unchecked reserve(n * m), which on inputs
  // like these requested absurd allocations proportional to the product
  // rather than the output. Bit-identity with the reference still holds.
  Rng rng(0x51deb00c);
  std::vector<ProbabilityAtom> wide_a, wide_b;
  double mass_a = 0.0, mass_b = 0.0;
  for (int i = 0; i < 40; ++i) {
    const double pa = rng.next_double() + 1e-3;
    const double pb = rng.next_double() + 1e-3;
    wide_a.push_back(
        {static_cast<Cycles>(rng.next_below(std::uint64_t{1} << 40)), pa});
    wide_b.push_back(
        {static_cast<Cycles>(rng.next_below(std::uint64_t{1} << 40)) | 1,
         pb});
    mass_a += pa;
    mass_b += pb;
  }
  for (auto& a : wide_a) a.probability /= mass_a;
  for (auto& b : wide_b) b.probability /= mass_b;
  const auto a = DiscreteDistribution::from_atoms(std::move(wide_a));
  const auto b = DiscreteDistribution::from_atoms(std::move(wide_b));
  const auto fast = a.convolve(b);
  EXPECT_EQ(fast, reference_convolve(a, b));
  EXPECT_NEAR(fast.total_mass(), 1.0, 1e-9);
  EXPECT_EQ(fast.max_value(), a.max_value() + b.max_value());
}

}  // namespace
}  // namespace pwcet
