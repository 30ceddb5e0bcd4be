/// \file
/// Minimal JSON document model + strict recursive-descent parser, shared
/// by every JSON *reader* in the tree (engine/spec_io.cpp's campaign-spec
/// loader, engine/shard.cpp's fragment meta line, the CLI's `cache stats
/// --metrics` renderer, tests validating trace/metrics exports) so the
/// accepted grammar cannot drift between them.
///
/// Values remember the line their first token started on, which is what
/// lets semantic diagnostics downstream ("bad enum value", "must be
/// positive") point at the offending line rather than just the offending
/// key. Numbers keep both the double and, when the token is a plain
/// integer that fits, the exact 64-bit value — so values larger than 2^53
/// (e.g. campaign seeds) survive without rounding.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pwcet {

/// Error raised for malformed JSON text. what() is a ready-to-print,
/// single-line diagnostic of the form `<source>:<line>: <problem>`.
class JsonParseError : public std::runtime_error {
 public:
  explicit JsonParseError(const std::string& message)
      : std::runtime_error(message) {}
};

/// One parsed JSON value (a whole document is just the root value).
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  bool integral = false;      ///< token was plain digits and fits uint64
  bool integer_overflow = false;  ///< token was plain digits but > 2^64-1
  std::uint64_t integer = 0;      ///< meaningful only when `integral`
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;  ///< insertion order
  int line = 1;

  const char* type_name() const {
    switch (type) {
      case Type::kNull: return "null";
      case Type::kBool: return "a boolean";
      case Type::kNumber: return "a number";
      case Type::kString: return "a string";
      case Type::kArray: return "an array";
      case Type::kObject: return "an object";
    }
    return "?";
  }

  /// Object member by key, or nullptr when `this` is not an object or has
  /// no such key. Convenience for read-only consumers (the schema-mapping
  /// loaders keep their own stricter walkers).
  const Json* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [name, value] : object)
      if (name == key) return &value;
    return nullptr;
  }
};

/// Parses one JSON document (rejecting trailing content). `source` names
/// the origin in diagnostics (a file path, or "<inline>" for tests).
/// Duplicate object keys are rejected — every reader here treats objects
/// as maps, and a silently-dropped duplicate would hide user error.
/// Containers nesting deeper than 256 levels and numbers overflowing a
/// double (e.g. `1e999`) are rejected with a diagnostic rather than
/// risking a parser stack overflow or a silent infinity downstream.
/// \throws JsonParseError on any syntax problem.
Json parse_json(const std::string& text, const std::string& source);

}  // namespace pwcet
