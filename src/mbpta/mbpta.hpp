// Measurement-based probabilistic timing analysis over a fault population.
//
// Protocol (mirroring what DTM-style MBPTA [7] would do on real degraded
// chips): sample N "chips" (fault maps drawn from the cell failure model),
// execute the task's worst structural path on each chip's cache simulator,
// and fit an extreme-value tail to the observed execution times. The
// resulting pWCET estimate is *not* guaranteed conservative — which is
// precisely the paper's argument for static analysis; the comparison
// campaign (specs/mbpta_vs_spta.json) puts the two side by side.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache_config.hpp"
#include "cfg/program.hpp"
#include "fault/fault_model.hpp"
#include "mbpta/evt.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace pwcet {

struct MbptaOptions {
  std::size_t chips = 400;          ///< fault maps sampled
  std::size_t block_size = 20;      ///< block-maxima window
  std::uint64_t seed = 0x5eed;
};

struct MbptaResult {
  std::vector<double> times;  ///< observed cycles, one per chip
  GumbelFit gumbel;           ///< fit on block maxima
  double observed_max = 0.0;

  /// Measurement-based pWCET estimate at exceedance probability p.
  double pwcet(Probability p) const { return gumbel.quantile_exceedance(p); }
};

/// Runs the measurement protocol for one mechanism.
MbptaResult run_mbpta(const Program& program, const CacheConfig& config,
                      const FaultModel& faults, Mechanism mechanism,
                      const MbptaOptions& options = {});

}  // namespace pwcet
