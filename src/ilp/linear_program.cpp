#include "ilp/linear_program.hpp"

#include "support/contracts.hpp"

namespace pwcet {

VarId LinearProgram::add_variable() {
  const VarId id = static_cast<VarId>(objective_.size());
  objective_.push_back(0.0);
  return id;
}

void LinearProgram::set_objective(VarId v, double coefficient) {
  PWCET_EXPECTS(v >= 0 && static_cast<size_t>(v) < objective_.size());
  objective_[size_t(v)] = coefficient;
}

void LinearProgram::set_objective_vector(std::vector<double> objective) {
  PWCET_EXPECTS(objective.size() == objective_.size());
  objective_ = std::move(objective);
}

void LinearProgram::add_constraint(LinearConstraint c) {
  for (const auto& [var, coef] : c.terms) {
    PWCET_EXPECTS(var >= 0 && static_cast<size_t>(var) < objective_.size());
    (void)coef;
  }
  constraints_.push_back(std::move(c));
}

}  // namespace pwcet
