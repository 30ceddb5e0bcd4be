#include "wcet/ipet.hpp"

#include "support/contracts.hpp"

namespace pwcet {

IpetCalculator::IpetCalculator(const Program& program) : program_(program) {
  const ControlFlowGraph& cfg = program.cfg();

  edge_var_.resize(cfg.edge_count());
  for (const CfgEdge& e : cfg.edges())
    edge_var_[size_t(e.id)] = lp_.add_variable();
  virtual_entry_ = lp_.add_variable();

  // Virtual entry executes exactly once.
  {
    LinearConstraint c;
    c.terms = {{virtual_entry_, 1.0}};
    c.sense = ConstraintSense::kEq;
    c.rhs = 1.0;
    lp_.add_constraint(std::move(c));
  }

  // Flow conservation: in-flow == out-flow for every block; the entry block
  // receives the virtual edge, the exit block emits an implicit edge whose
  // count equals the virtual entry (single run).
  for (const BasicBlock& b : cfg.blocks()) {
    LinearConstraint c;
    for (EdgeId e : b.in_edges) c.terms.push_back({edge_var_[size_t(e)], 1.0});
    if (b.id == cfg.entry()) c.terms.push_back({virtual_entry_, 1.0});
    for (EdgeId e : b.out_edges)
      c.terms.push_back({edge_var_[size_t(e)], -1.0});
    if (b.id == cfg.exit()) c.terms.push_back({virtual_entry_, -1.0});
    c.sense = ConstraintSense::kEq;
    c.rhs = 0.0;
    lp_.add_constraint(std::move(c));
  }

  // Loop bounds: sum(back edges) <= bound * sum(entry edges).
  for (const LoopInfo& loop : cfg.loops()) {
    LinearConstraint c;
    for (EdgeId e : loop.back_edges)
      c.terms.push_back({edge_var_[size_t(e)], 1.0});
    for (EdgeId e : loop.entry_edges)
      c.terms.push_back(
          {edge_var_[size_t(e)], -static_cast<double>(loop.bound)});
    c.sense = ConstraintSense::kLe;
    c.rhs = 0.0;
    lp_.add_constraint(std::move(c));
  }

  solver_ = std::make_unique<SimplexSolver>(lp_);
  PWCET_ASSERT(solver_->feasible());
}

std::vector<double> IpetCalculator::objective_vector(
    const CostModel& model) const {
  const ControlFlowGraph& cfg = program_.cfg();
  std::vector<double> obj(lp_.variable_count(), 0.0);

  // Block costs attach to every in-edge of the block (x_b == sum of
  // in-edges, incl. the virtual edge for the entry block).
  for (const BasicBlock& b : cfg.blocks()) {
    const double cost = model.block_cost[size_t(b.id)];
    if (cost == 0.0) continue;
    for (EdgeId e : b.in_edges) obj[size_t(edge_var_[size_t(e)])] += cost;
    if (b.id == cfg.entry()) obj[size_t(virtual_entry_)] += cost;
  }
  // First-miss entry terms attach to the loop entry edges.
  for (const LoopInfo& loop : cfg.loops()) {
    const double cost = model.loop_entry_cost[size_t(loop.id)];
    if (cost == 0.0) continue;
    for (EdgeId e : loop.entry_edges)
      obj[size_t(edge_var_[size_t(e)])] += cost;
  }
  // Whole-program-scope cost rides on the virtual entry (count 1).
  obj[size_t(virtual_entry_)] += model.root_entry_cost;
  return obj;
}

IpetSolution IpetCalculator::from_values(const std::vector<double>& values,
                                         double objective) const {
  const ControlFlowGraph& cfg = program_.cfg();
  IpetSolution sol;
  sol.objective = objective;
  sol.edge_counts.resize(cfg.edge_count());
  for (const CfgEdge& e : cfg.edges())
    sol.edge_counts[size_t(e.id)] = values[size_t(edge_var_[size_t(e.id)])];
  sol.block_counts.assign(cfg.block_count(), 0.0);
  for (const BasicBlock& b : cfg.blocks()) {
    double count = 0.0;
    for (EdgeId e : b.in_edges) count += sol.edge_counts[size_t(e)];
    if (b.id == cfg.entry()) count += 1.0;
    sol.block_counts[size_t(b.id)] = count;
  }
  return sol;
}

IpetSolution IpetCalculator::maximize(const CostModel& model) {
  const auto obj = objective_vector(model);
  const LpSolution lp_sol = solver_->reoptimize(obj);
  PWCET_ASSERT(lp_sol.status == SolveStatus::kOptimal);
  return from_values(lp_sol.values, lp_sol.objective);
}

}  // namespace pwcet
