// Basic blocks and control-flow edges of the analyzed task.
//
// The instruction-cache analysis only needs, per basic block, the contiguous
// range of instruction addresses it fetches; individual opcodes are
// irrelevant. This mirrors what a binary decoder (the paper uses MIPS
// R2000/R3000 binaries) would hand to the timing analyzer.
#pragma once

#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace pwcet {

/// Fixed instruction width (MIPS-style RISC encoding).
inline constexpr Address kInstructionBytes = 4;

using BlockId = std::int32_t;
using EdgeId = std::int32_t;
using LoopId = std::int32_t;

inline constexpr BlockId kNoBlock = -1;
inline constexpr LoopId kNoLoop = -1;

/// A maximal straight-line fetch sequence.
struct BasicBlock {
  BlockId id = kNoBlock;
  Address first_address = 0;        ///< address of the first instruction
  std::uint32_t instruction_count = 0;  ///< 0 allowed (synthetic join blocks)
  /// Data addresses this block loads, in program order (the data-cache
  /// extension of the paper's future work, §VI). Restricted to statically
  /// known addresses — scalars and lookup tables; input-dependent accesses
  /// are out of scope and must not be recorded here.
  std::vector<Address> data_addresses;
  /// Data addresses this block stores to, in program order. Same static
  /// restriction as `data_addresses`; consumed by the write-back D-cache
  /// domain (dirty-line state) and by the unified TLB/L2 streams.
  std::vector<Address> store_addresses;
  std::vector<EdgeId> out_edges;
  std::vector<EdgeId> in_edges;
};

/// A directed control-flow edge.
struct CfgEdge {
  EdgeId id = -1;
  BlockId source = kNoBlock;
  BlockId target = kNoBlock;
};

}  // namespace pwcet
