// IPET (Implicit Path Enumeration Technique) WCET calculation (paper
// §II-B.2, Li & Malik).
//
// Variables are CFG edge execution counts plus one virtual entry edge fixed
// to 1. Constraints: flow conservation per block and one loop-bound
// constraint per loop (sum of back edges <= bound * sum of entry edges).
// The constraint system is built once per program; each cost model is then
// maximized by re-optimizing the shared simplex tableau (one phase-1 per
// program, one phase-2 per objective) — the moral equivalent of handing
// CPLEX a sequence of objectives over one model.
#pragma once

#include <memory>
#include <vector>

#include "cfg/program.hpp"
#include "ilp/simplex.hpp"
#include "wcet/cost_model.hpp"

namespace pwcet {

/// Result of one IPET maximization.
struct IpetSolution {
  double objective = 0.0;               ///< incl. root entry cost
  std::vector<double> edge_counts;      ///< per CFG edge
  std::vector<double> block_counts;     ///< derived per block
};

class IpetCalculator {
 public:
  explicit IpetCalculator(const Program& program);

  /// Maximizes the cost model over all feasible flows. The LP relaxation
  /// optimum is returned: relaxing integrality can only raise a maximum,
  /// so it is a sound upper bound on the integer optimum, and exact
  /// whenever the relaxation is integral (the common case for IPET;
  /// cross_engine_test checks it against the exact loop-tree engine).
  IpetSolution maximize(const CostModel& model);

 private:
  std::vector<double> objective_vector(const CostModel& model) const;
  IpetSolution from_values(const std::vector<double>& values,
                           double objective) const;

  const Program& program_;
  LinearProgram lp_;
  std::unique_ptr<SimplexSolver> solver_;
  VarId virtual_entry_ = -1;
  // lp variable id of each CFG edge (edge id == index).
  std::vector<VarId> edge_var_;
};

}  // namespace pwcet
