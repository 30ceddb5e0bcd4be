// Dominator tree and natural-loop detection.
//
// The program builder registers exact loop metadata, so the analyses never
// *need* loop recovery; this module exists to cross-validate that metadata
// (tests assert that detected natural loops match the registered ones) and
// to support externally supplied CFGs.
#pragma once

#include <vector>

#include "cfg/cfg.hpp"

namespace pwcet {

/// Immediate-dominator tree (Cooper-Harvey-Kennedy iterative algorithm).
class DominatorTree {
 public:
  explicit DominatorTree(const ControlFlowGraph& cfg);

  /// True if `a` dominates `b` (reflexive).
  bool dominates(BlockId a, BlockId b) const;

 private:
  std::vector<BlockId> idom_;
  std::vector<std::int32_t> rpo_index_;
};

/// A natural loop discovered from a back edge (target dominates source).
struct DetectedLoop {
  BlockId header = kNoBlock;
  std::vector<EdgeId> back_edges;
  std::vector<BlockId> blocks;  ///< sorted, includes header
};

/// Finds all natural loops; back edges sharing a header are merged into one
/// loop. Loops are returned sorted by header id.
std::vector<DetectedLoop> detect_natural_loops(const ControlFlowGraph& cfg);

}  // namespace pwcet
