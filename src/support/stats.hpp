// Small numeric statistics helpers shared by the MBPTA module, the
// validation tests, and the benchmark harnesses.
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

/// Sample median (empirical_quantile at 0.5): the location estimate the
/// benchmark harness reports, robust to scheduler-noise outliers.
double median(std::span<const double> sample);

/// Median absolute deviation around the median — the harness's robust
/// dispersion estimate. Multiply by 1.4826 for a normal-consistent sigma.
double median_abs_deviation(std::span<const double> sample);

}  // namespace pwcet
