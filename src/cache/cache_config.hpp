// Instruction-cache geometry and timing parameters.
#pragma once

#include <cstdint>

#include "cfg/basic_block.hpp"
#include "support/contracts.hpp"
#include "support/types.hpp"

namespace pwcet {

/// Set-associative LRU instruction cache (paper §II-A): S sets, W ways,
/// line size in bytes (the paper's K is the line size in *bits*).
struct CacheConfig {
  std::uint32_t sets = 16;
  std::uint32_t ways = 4;
  std::uint32_t line_bytes = 16;
  Cycles hit_latency = 1;     ///< cycles per fetch that hits
  Cycles miss_penalty = 100;  ///< extra cycles per fetch that misses

  /// Paper default: 1 KB, 4-way, 16 B lines, 1-cycle hit, 100-cycle miss.
  static CacheConfig paper_default() { return CacheConfig{}; }

  /// K of Eq. (1): bits per cache block.
  std::uint32_t block_bits() const { return line_bytes * 8; }

  LineAddress line_of(Address a) const { return a / line_bytes; }

  SetIndex set_of_line(LineAddress line) const {
    return static_cast<SetIndex>(line % sets);
  }

  void validate() const {
    PWCET_EXPECTS(sets > 0 && ways > 0 && line_bytes > 0);
    PWCET_EXPECTS(line_bytes % kInstructionBytes == 0);
    PWCET_EXPECTS(hit_latency >= 0 && miss_penalty >= 0);
  }
};

}  // namespace pwcet
