#include "store/key.hpp"

#include <bit>

#include "cache/cache_config.hpp"
#include "cfg/program.hpp"

namespace pwcet {
namespace {

/// splitmix64 finalizer: a full-avalanche 64-bit permutation. The store's
/// stability contract rests on this exact function; do not "improve" it
/// without migrating the artifact format version.
std::uint64_t mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

std::uint64_t rotl(std::uint64_t x, int k) { return std::rotl(x, k); }

// Fractional bits of sqrt(2) and sqrt(3): nothing-up-my-sleeve initial
// lanes, distinct so the two halves of the key decorrelate immediately.
constexpr std::uint64_t kLaneA = 0x6a09e667f3bcc908ULL;
constexpr std::uint64_t kLaneB = 0xbb67ae8584caa73bULL;
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

}  // namespace

std::string StoreKey::hex() const {
  static const char digits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i)
    out[size_t(15 - i)] = digits[(hi >> (4 * i)) & 0xf];
  for (int i = 0; i < 16; ++i)
    out[size_t(31 - i)] = digits[(lo >> (4 * i)) & 0xf];
  return out;
}

bool store_key_from_hex(std::string_view hex, StoreKey& key) {
  if (hex.size() != 32) return false;
  std::uint64_t words[2] = {0, 0};
  for (std::size_t i = 0; i < 32; ++i) {
    const char c = hex[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;  // uppercase is rejected: hex() never emits it
    }
    words[i / 16] = (words[i / 16] << 4) | digit;
  }
  key.hi = words[0];
  key.lo = words[1];
  return true;
}

KeyHasher::KeyHasher(std::string_view domain) : a_(kLaneA), b_(kLaneB) {
  mix_string(domain);
}

KeyHasher& KeyHasher::mix_u64(std::uint64_t value) {
  a_ = mix64(a_ ^ value);
  b_ = mix64(b_ + rotl(value, 32) + kGolden);
  ++count_;
  return *this;
}

KeyHasher& KeyHasher::mix_i64(std::int64_t value) {
  return mix_u64(static_cast<std::uint64_t>(value));
}

KeyHasher& KeyHasher::mix_double(double value) {
  return mix_u64(std::bit_cast<std::uint64_t>(value));
}

KeyHasher& KeyHasher::mix_string(std::string_view value) {
  mix_u64(value.size());
  // Little-endian 8-byte chunks assembled byte by byte, so the stream is
  // identical on any host endianness; the trailing partial chunk is
  // zero-padded (safe because the length prefix disambiguates).
  std::uint64_t chunk = 0;
  int filled = 0;
  for (const char c : value) {
    chunk |= std::uint64_t(static_cast<unsigned char>(c)) << (8 * filled);
    if (++filled == 8) {
      mix_u64(chunk);
      chunk = 0;
      filled = 0;
    }
  }
  if (filled != 0) mix_u64(chunk);
  return *this;
}

KeyHasher& KeyHasher::mix_doubles(const std::vector<double>& values) {
  mix_u64(values.size());
  for (const double v : values) mix_double(v);
  return *this;
}

KeyHasher& KeyHasher::mix_key(const StoreKey& key) {
  mix_u64(key.hi);
  return mix_u64(key.lo);
}

StoreKey KeyHasher::finish() const {
  StoreKey key;
  key.hi = mix64(a_ + rotl(b_, 32) + count_ * kGolden);
  key.lo = mix64(b_ ^ rotl(a_, 17) ^ mix64(count_));
  return key;
}

StoreKey hash_program(const Program& program) {
  KeyHasher h("pwcet-program-v1");
  const ControlFlowGraph& cfg = program.cfg();

  h.mix_u64(cfg.block_count());
  for (const BasicBlock& block : cfg.blocks()) {
    h.mix_i64(block.id);
    h.mix_u64(block.first_address);
    h.mix_u64(block.instruction_count);
    h.mix_u64(block.data_addresses.size());
    for (const Address a : block.data_addresses) h.mix_u64(a);
    // Store addresses are mixed only when present, behind a marker word:
    // programs without stores keep their pre-store hash bit-for-bit, so
    // every artifact persisted before the write-back extension stays warm.
    if (!block.store_addresses.empty()) {
      h.mix_u64(0x5701e5u);  // store-list marker
      h.mix_u64(block.store_addresses.size());
      for (const Address a : block.store_addresses) h.mix_u64(a);
    }
    // Adjacency is recoverable from the edge list; hashing it here too
    // would only re-encode the same structure.
  }

  h.mix_u64(cfg.edge_count());
  for (const CfgEdge& edge : cfg.edges()) {
    h.mix_i64(edge.source);
    h.mix_i64(edge.target);
  }
  h.mix_i64(cfg.entry());
  h.mix_i64(cfg.exit());

  h.mix_u64(cfg.loops().size());
  for (const LoopInfo& loop : cfg.loops()) {
    h.mix_i64(loop.id);
    h.mix_i64(loop.parent);
    h.mix_i64(loop.header);
    h.mix_i64(loop.bound);
    h.mix_u64(loop.blocks.size());
    for (const BlockId b : loop.blocks) h.mix_i64(b);
    h.mix_u64(loop.back_edges.size());
    for (const EdgeId e : loop.back_edges) h.mix_i64(e);
    h.mix_u64(loop.entry_edges.size());
    for (const EdgeId e : loop.entry_edges) h.mix_i64(e);
  }

  // The structure tree drives the loop-tree WCET engine; same-CFG programs
  // with a different tree decomposition are different analysis inputs.
  h.mix_u64(program.tree().size());
  for (const TreeNode& node : program.tree()) {
    h.mix_u64(static_cast<std::uint64_t>(node.kind));
    h.mix_i64(node.block);
    h.mix_i64(node.bound);
    h.mix_i64(node.loop);
    h.mix_u64(node.children.size());
    for (const TreeId t : node.children) h.mix_i64(t);
  }
  h.mix_i64(program.tree_root());
  return h.finish();
}

StoreKey hash_cache_config(const CacheConfig& config) {
  KeyHasher h("pwcet-cache-config-v1");
  h.mix_u64(config.sets);
  h.mix_u64(config.ways);
  h.mix_u64(config.line_bytes);
  h.mix_i64(config.hit_latency);
  h.mix_i64(config.miss_penalty);
  return h.finish();
}

StoreKey hash_fault_model(Probability pfail) {
  KeyHasher h("pwcet-fault-model-v1");
  h.mix_double(pfail);
  return h.finish();
}

}  // namespace pwcet
