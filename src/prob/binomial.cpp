#include "prob/binomial.hpp"

#include <cmath>

#include "support/contracts.hpp"

namespace pwcet {

double log_binomial_coefficient(unsigned n, unsigned k) {
  PWCET_EXPECTS(k <= n);
  // Use the symmetric smaller half to limit the number of terms.
  if (k > n - k) k = n - k;
  double log_c = 0.0;
  for (unsigned i = 0; i < k; ++i) {
    log_c += std::log(static_cast<double>(n - i));
    log_c -= std::log(static_cast<double>(i + 1));
  }
  return log_c;
}

Probability binomial_pmf(unsigned n, unsigned k, Probability p) {
  PWCET_EXPECTS(k <= n);
  PWCET_EXPECTS(p >= 0.0 && p <= 1.0);
  if (p == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p == 1.0) return k == n ? 1.0 : 0.0;
  // log1p(-p) keeps (1-p)^(n-k) accurate for tiny p.
  const double log_pmf = log_binomial_coefficient(n, k) +
                         static_cast<double>(k) * std::log(p) +
                         static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

std::vector<Probability> binomial_pmf_vector(unsigned n, Probability p) {
  std::vector<Probability> pmf(n + 1);
  for (unsigned k = 0; k <= n; ++k) pmf[k] = binomial_pmf(n, k, p);
  return pmf;
}

}  // namespace pwcet
