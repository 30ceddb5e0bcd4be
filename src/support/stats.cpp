#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"

namespace pwcet {

SampleSummary summarize(std::span<const double> sample) {
  SampleSummary s;
  if (sample.empty()) return s;
  s.count = sample.size();
  s.min = sample.front();
  s.max = sample.front();
  double mean = 0.0;
  double m2 = 0.0;
  std::size_t n = 0;
  for (double x : sample) {
    ++n;
    const double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = mean;
  s.variance = (n > 1) ? m2 / static_cast<double>(n - 1) : 0.0;
  return s;
}

double empirical_quantile(std::span<const double> sample, double q) {
  PWCET_EXPECTS(!sample.empty());
  PWCET_EXPECTS(q >= 0.0 && q <= 1.0);
  std::vector<double> v = sorted(sample);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double empirical_exceedance(std::span<const double> sample, double threshold) {
  PWCET_EXPECTS(!sample.empty());
  std::size_t above = 0;
  for (double x : sample) above += (x > threshold) ? 1 : 0;
  return static_cast<double>(above) / static_cast<double>(sample.size());
}

std::vector<double> sorted(std::span<const double> sample) {
  std::vector<double> v(sample.begin(), sample.end());
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace pwcet
