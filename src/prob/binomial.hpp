// Binomial probability computations for the fault model (paper Eq. 1-3).
// Evaluated in log-space so that extreme tails (e.g. pbf^W with pbf ~ 1e-10)
// stay accurate long past where naive products would round to zero.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace pwcet {

/// log(n choose k), exact summation of logs (n is small in this domain).
double log_binomial_coefficient(unsigned n, unsigned k);

/// P[X = k] for X ~ Binomial(n, p).
Probability binomial_pmf(unsigned n, unsigned k, Probability p);

/// The full pmf vector {P[X = 0], ..., P[X = n]}.
std::vector<Probability> binomial_pmf_vector(unsigned n, Probability p);

}  // namespace pwcet
