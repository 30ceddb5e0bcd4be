// Small numeric statistics helpers shared by the MBPTA module, the
// campaign runner and the validation tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pwcet {

/// Summary statistics of a sample.
struct SampleSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased (n-1) sample variance
  double min = 0.0;
  double max = 0.0;
};

/// Computes count/mean/variance/min/max in one pass (Welford).
SampleSummary summarize(std::span<const double> sample);

/// Empirical quantile with linear interpolation, q in [0, 1].
/// The input does not need to be sorted.
double empirical_quantile(std::span<const double> sample, double q);

/// Empirical exceedance probability P(X > threshold).
double empirical_exceedance(std::span<const double> sample, double threshold);

/// Returns a sorted copy of the sample.
std::vector<double> sorted(std::span<const double> sample);

}  // namespace pwcet
