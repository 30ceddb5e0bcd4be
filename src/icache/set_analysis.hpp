// Per-set cache analysis with parametric effective associativity.
//
// Runs the Must and May fixpoints for the references mapping to a single
// cache set, plus the scope-based persistence test, and combines them into
// CHMCs. The effective associativity parameter models disabled (faulty)
// blocks: a set with f faulty ways behaves as an LRU set of associativity
// W - f (paper §II-A); associativity 0 means the set caches nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/references.hpp"
#include "cfg/cfg.hpp"
#include "icache/chmc.hpp"

namespace pwcet {

/// Classification of every reference to `set` under the given effective
/// associativity. Entries of other sets are left value-initialized
/// (kNotClassified) and must not be consulted.
class SetAnalysis {
 public:
  SetAnalysis(const ControlFlowGraph& cfg, const ReferenceMap& refs,
              SetIndex set, std::uint32_t associativity);

  /// Classification for reference `ref_index` of block `b` (must map to
  /// this set).
  RefClass classification(BlockId b, std::size_t ref_index) const;

  SetIndex set() const { return set_; }
  std::uint32_t associativity() const { return associativity_; }

 private:
  void run_fixpoints(const ControlFlowGraph& cfg, const ReferenceMap& refs);
  void run_persistence(const ControlFlowGraph& cfg, const ReferenceMap& refs);
  void classify(const ControlFlowGraph& cfg, const ReferenceMap& refs);

  SetIndex set_;
  std::uint32_t associativity_;
  // Per block/ref: guaranteed hit before the reference (Must) and possible
  // presence before the reference (May).
  std::vector<std::vector<std::uint8_t>> must_hit_;
  std::vector<std::vector<std::uint8_t>> may_present_;
  // Per block/ref: outermost persistent scope, or sentinel "none".
  static constexpr LoopId kNoScope = -3;
  std::vector<std::vector<LoopId>> persistent_scope_;
  std::vector<std::vector<RefClass>> result_;
  // Distinct line counts per scope: index 0 = whole program, 1 + loop id.
  std::vector<std::size_t> scope_distinct_lines_;
};

}  // namespace pwcet
