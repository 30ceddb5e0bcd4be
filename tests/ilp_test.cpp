// Tests for the in-house LP solver (the CPLEX replacement).
#include <gtest/gtest.h>

#include <cmath>

#include "ilp/simplex.hpp"
#include "support/rng.hpp"

namespace pwcet {
namespace {

LinearConstraint le(std::vector<std::pair<VarId, double>> terms, double rhs) {
  return {std::move(terms), ConstraintSense::kLe, rhs};
}
LinearConstraint ge(std::vector<std::pair<VarId, double>> terms, double rhs) {
  return {std::move(terms), ConstraintSense::kGe, rhs};
}
LinearConstraint eq(std::vector<std::pair<VarId, double>> terms, double rhs) {
  return {std::move(terms), ConstraintSense::kEq, rhs};
}

TEST(Simplex, SimpleTwoVariableMax) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> optimum at (4, 0) = 12.
  LinearProgram lp;
  const VarId x = lp.add_variable();
  const VarId y = lp.add_variable();
  lp.set_objective(x, 3.0);
  lp.set_objective(y, 2.0);
  lp.add_constraint(le({{x, 1}, {y, 1}}, 4));
  lp.add_constraint(le({{x, 1}, {y, 3}}, 6));
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 12.0, 1e-9);
  EXPECT_NEAR(sol.values[size_t(x)], 4.0, 1e-9);
  EXPECT_NEAR(sol.values[size_t(y)], 0.0, 1e-9);
}

TEST(Simplex, InteriorOptimum) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> (4/3, 4/3), value 8/3.
  LinearProgram lp;
  const VarId x = lp.add_variable();
  const VarId y = lp.add_variable();
  lp.set_objective(x, 1.0);
  lp.set_objective(y, 1.0);
  lp.add_constraint(le({{x, 2}, {y, 1}}, 4));
  lp.add_constraint(le({{x, 1}, {y, 2}}, 4));
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 8.0 / 3.0, 1e-9);
}

TEST(Simplex, EqualityConstraints) {
  // max x + 2y s.t. x + y = 3, y <= 2 -> (1, 2), value 5.
  LinearProgram lp;
  const VarId x = lp.add_variable();
  const VarId y = lp.add_variable();
  lp.set_objective(x, 1.0);
  lp.set_objective(y, 2.0);
  lp.add_constraint(eq({{x, 1}, {y, 1}}, 3));
  lp.add_constraint(le({{y, 1}}, 2));
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-9);
  EXPECT_NEAR(sol.values[size_t(x)], 1.0, 1e-9);
  EXPECT_NEAR(sol.values[size_t(y)], 2.0, 1e-9);
}

TEST(Simplex, GreaterEqualAndNegativeRhs) {
  // max -x s.t. x >= 2  -> x = 2. Also exercises -x <= -2 normalization.
  LinearProgram lp;
  const VarId x = lp.add_variable();
  lp.set_objective(x, -1.0);
  lp.add_constraint(le({{x, -1}}, -2));  // -x <= -2  <=>  x >= 2
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.values[size_t(x)], 2.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  LinearProgram lp;
  const VarId x = lp.add_variable();
  lp.set_objective(x, 1.0);
  lp.add_constraint(le({{x, 1}}, 1));
  lp.add_constraint(ge({{x, 1}}, 2));
  EXPECT_EQ(solve_lp(lp).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram lp;
  const VarId x = lp.add_variable();
  lp.set_objective(x, 1.0);
  lp.add_constraint(ge({{x, 1}}, 1));
  EXPECT_EQ(solve_lp(lp).status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeObjectiveCoefficients) {
  // max 2x - 3y s.t. x <= 5, x - y <= 2 -> y = x - 2 when beneficial?
  // Optimum: x = 2 (y = 0) gives 4; x = 5 needs y >= 3 giving 10 - 9 = 1.
  LinearProgram lp;
  const VarId x = lp.add_variable();
  const VarId y = lp.add_variable();
  lp.set_objective(x, 2.0);
  lp.set_objective(y, -3.0);
  lp.add_constraint(le({{x, 1}}, 5));
  lp.add_constraint(le({{x, 1}, {y, -1}}, 2));
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0, 1e-9);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Multiple redundant constraints through one vertex (classic degeneracy).
  LinearProgram lp;
  const VarId x = lp.add_variable();
  const VarId y = lp.add_variable();
  lp.set_objective(x, 1.0);
  lp.set_objective(y, 1.0);
  lp.add_constraint(le({{x, 1}, {y, 1}}, 2));
  lp.add_constraint(le({{x, 1}, {y, 1}}, 2));
  lp.add_constraint(le({{x, 2}, {y, 2}}, 4));
  lp.add_constraint(le({{x, 1}}, 2));
  lp.add_constraint(le({{y, 1}}, 2));
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
}

TEST(Simplex, ReoptimizeMatchesFreshSolves) {
  // One constraint system, many objectives: the warm-started reoptimize
  // path must agree with fresh solves.
  LinearProgram lp;
  const VarId x = lp.add_variable();
  const VarId y = lp.add_variable();
  const VarId z = lp.add_variable();
  lp.add_constraint(le({{x, 1}, {y, 2}, {z, 1}}, 10));
  lp.add_constraint(le({{x, 3}, {y, 1}}, 15));
  lp.add_constraint(le({{y, 1}, {z, 4}}, 8));
  lp.add_constraint(eq({{x, 1}, {y, 1}, {z, 1}}, 7));

  SimplexSolver shared(lp);
  ASSERT_TRUE(shared.feasible());

  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> obj(3);
    for (double& c : obj) c = rng.next_double() * 10.0 - 5.0;
    const auto warm = shared.reoptimize(obj);
    LinearProgram fresh = lp;
    fresh.set_objective_vector(obj);
    const auto cold = solve_lp(fresh);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    if (warm.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "trial " << trial;
    }
  }
}

TEST(Simplex, SolutionSatisfiesConstraints) {
  Rng rng(37);
  for (int trial = 0; trial < 30; ++trial) {
    LinearProgram lp;
    const int nvars = 2 + static_cast<int>(rng.next_below(4));
    for (int v = 0; v < nvars; ++v)
      lp.set_objective(lp.add_variable(), rng.next_double() * 4 - 2);
    const int ncons = 2 + static_cast<int>(rng.next_below(4));
    std::vector<LinearConstraint> cons;
    for (int c = 0; c < ncons; ++c) {
      LinearConstraint lc;
      for (int v = 0; v < nvars; ++v)
        lc.terms.push_back({v, rng.next_double() * 2});
      lc.sense = ConstraintSense::kLe;
      lc.rhs = 1.0 + rng.next_double() * 9.0;
      lp.add_constraint(lc);
      cons.push_back(lc);
    }
    const auto sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    for (const auto& lc : cons) {
      double lhs = 0.0;
      for (const auto& [v, coef] : lc.terms) lhs += coef * sol.values[size_t(v)];
      EXPECT_LE(lhs, lc.rhs + 1e-6);
    }
    for (double v : sol.values) EXPECT_GE(v, -1e-9);
  }
}

}  // namespace
}  // namespace pwcet
