#include "engine/spec_io.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "cfg/basic_block.hpp"
#include "engine/names.hpp"
#include "support/json.hpp"
#include "support/json_doc.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

// The JSON document model + parser live in support/json_doc.{hpp,cpp}
// (shared with the CLI's metrics renderer and the observability tests);
// this file keeps only the campaign-spec schema mapping over it.

[[noreturn]] void fail(const std::string& source, int line,
                       const std::string& message, const std::string& path) {
  std::string out = source;
  out += ':';
  out += std::to_string(line);
  out += ": ";
  out += message;
  if (!path.empty()) {
    out += " (field \"";
    out += path;
    out += "\")";
  }
  throw SpecError(out);
}

// ---------------------------------------------------------------------------
// Schema mapping: Json document -> SpecDocument, with field-path context.
// ---------------------------------------------------------------------------

/// Levenshtein distance, used only for "did you mean" hints on unknown
/// keys/values — inputs are tiny, the quadratic DP is fine.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = up;
    }
  }
  return row[b.size()];
}

std::string closest_match(const std::string& word,
                          const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_distance = std::max<std::size_t>(2, word.size() / 3) + 1;
  for (const std::string& candidate : candidates) {
    const std::size_t d = edit_distance(word, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string joined(const std::vector<std::string>& values) {
  std::string out;
  for (const std::string& v : values) {
    if (!out.empty()) out += ", ";
    out += v;
  }
  return out;
}

class SpecReader {
 public:
  explicit SpecReader(const std::string& source) : source_(source) {}

  SpecDocument read(const Json& root) {
    if (root.type != Json::Type::kObject)
      fail(source_, root.line,
           std::string("a campaign spec must be a JSON object, got ") +
               root.type_name(),
           "");

    static const std::vector<std::string> kKnownKeys = {
        "name",          "notes",
        "tasks",         "geometries",
        "dcaches",       "tlbs",
        "l2s",           "pfails",
        "mechanisms",    "dcache_mechanisms",
        "engines",       "kinds",
        "sample_counts", "target_exceedance",
        "ccdf_exceedances", "max_distribution_points",
        "mbpta",         "simulation_chips",
        "base_seed"};

    SpecDocument doc;
    CampaignSpec& spec = doc.spec;  // absent keys keep the C++ defaults

    bool saw_tasks = false, saw_geometries = false, saw_pfails = false;
    bool saw_mechanisms = false;

    for (const auto& [key, value] : root.object) {
      if (key == "name") {
        doc.name = as_string(value, key);
      } else if (key == "notes") {
        doc.notes = as_string(value, key);
      } else if (key == "tasks") {
        spec.tasks = read_tasks(value);
        saw_tasks = true;
      } else if (key == "geometries") {
        spec.geometries = read_geometries(value);
        saw_geometries = true;
      } else if (key == "pfails") {
        spec.pfails = read_pfails(value);
        saw_pfails = true;
      } else if (key == "dcaches") {
        spec.dcaches = read_dcaches(value);
      } else if (key == "tlbs") {
        spec.tlbs = read_tlbs(value);
      } else if (key == "l2s") {
        spec.l2s = read_l2s(value);
      } else if (key == "mechanisms") {
        // All enum axes parse against the axis-name registry
        // (engine/names.hpp), the same tables the reports and `pwcet
        // list` print from.
        spec.mechanisms = read_enums<Mechanism>(
            value, key, axis_name_table(mechanism_names()), "mechanism");
        saw_mechanisms = true;
      } else if (key == "dcache_mechanisms") {
        spec.dcache_mechanisms = read_enums<DcacheMechanism>(
            value, key, axis_name_table(dcache_mechanism_names()),
            "dcache mechanism");
      } else if (key == "engines") {
        spec.engines = read_enums<WcetEngine>(
            value, key, axis_name_table(engine_names()), "engine");
      } else if (key == "kinds") {
        spec.kinds = read_enums<AnalysisKind>(
            value, key, axis_name_table(analysis_kind_names()),
            "analysis kind");
      } else if (key == "sample_counts") {
        spec.sample_counts = read_sample_counts(value);
      } else if (key == "ccdf_exceedances") {
        spec.ccdf_exceedances = read_ccdf_exceedances(value);
      } else if (key == "target_exceedance") {
        spec.target_exceedance = as_number(value, key);
        if (!(spec.target_exceedance > 0.0 && spec.target_exceedance <= 1.0))
          fail(source_, value.line,
               "target_exceedance must be in (0, 1]", key);
      } else if (key == "max_distribution_points") {
        spec.max_distribution_points =
            static_cast<std::size_t>(as_u64(value, key));
        if (spec.max_distribution_points < 2)
          fail(source_, value.line,
               "max_distribution_points must be at least 2", key);
      } else if (key == "mbpta") {
        read_mbpta(value, spec.mbpta);
      } else if (key == "simulation_chips") {
        spec.simulation_chips = static_cast<std::size_t>(as_u64(value, key));
        if (spec.simulation_chips == 0)
          fail(source_, value.line, "simulation_chips must be positive", key);
      } else if (key == "base_seed") {
        spec.base_seed = as_u64(value, key);
      } else {
        std::string message = "unknown key \"" + key + "\" in campaign spec";
        const std::string hint = closest_match(key, kKnownKeys);
        if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
        fail(source_, value.line, message, key);
      }
    }

    if (!saw_tasks)
      fail(source_, root.line, "missing required key \"tasks\"", "tasks");
    if (!saw_geometries)
      fail(source_, root.line, "missing required key \"geometries\"",
           "geometries");
    if (!saw_pfails)
      fail(source_, root.line, "missing required key \"pfails\"", "pfails");
    if (!saw_mechanisms)
      fail(source_, root.line, "missing required key \"mechanisms\"",
           "mechanisms");

    // Cross-field constraints mirrored from CampaignSpec::validate(),
    // which would otherwise abort instead of reporting.
    const auto wants = [&spec](AnalysisKind kind) {
      return std::find(spec.kinds.begin(), spec.kinds.end(), kind) !=
             spec.kinds.end();
    };
    if (wants(AnalysisKind::kMbpta)) {
      if (spec.mbpta.chips < 2 * spec.mbpta.block_size)
        fail(source_, root.line,
             "mbpta.chips must be at least 2 * mbpta.block_size when "
             "\"kinds\" includes \"mbpta\"",
             "mbpta.chips");
      for (std::size_t i = 0; i < spec.sample_counts.size(); ++i)
        if (spec.sample_counts[i] != 0 &&
            spec.sample_counts[i] < 2 * spec.mbpta.block_size)
          fail(source_, root.line,
               "sample_counts entries must be at least 2 * mbpta.block_size "
               "(or 0 for the default) when \"kinds\" includes \"mbpta\"",
               "sample_counts[" + std::to_string(i) + "]");
    }
    bool any_dcache = false;
    for (const DcacheAxis& d : spec.dcaches) any_dcache |= d.enabled;
    if (any_dcache)
      for (const AnalysisKind kind : spec.kinds)
        if (kind != AnalysisKind::kSpta)
          fail(source_, root.line,
               "kind \"" + analysis_kind_name(kind) +
                   "\" does not support a data cache; \"dcaches\" entries "
                   "other than null need kinds = [\"spta\"]",
               "dcaches");
    bool any_tlb = false;
    for (const TlbAxis& t : spec.tlbs) any_tlb |= t.enabled;
    if (any_tlb)
      for (const AnalysisKind kind : spec.kinds)
        if (kind != AnalysisKind::kSpta)
          fail(source_, root.line,
               "kind \"" + analysis_kind_name(kind) +
                   "\" does not support a TLB; \"tlbs\" entries other than "
                   "null need kinds = [\"spta\"]",
               "tlbs");
    bool any_l2 = false;
    for (const L2Axis& l : spec.l2s) any_l2 |= l.enabled;
    if (any_l2)
      for (const AnalysisKind kind : spec.kinds)
        if (kind != AnalysisKind::kSpta)
          fail(source_, root.line,
               "kind \"" + analysis_kind_name(kind) +
                   "\" does not support a shared L2; \"l2s\" entries other "
                   "than null need kinds = [\"spta\"]",
               "l2s");
    if (wants(AnalysisKind::kSlack))
      for (std::size_t i = 0; i < spec.mechanisms.size(); ++i)
        if (spec.mechanisms[i] == Mechanism::kNone)
          fail(source_, root.line,
               "kind \"slack\" measures a reliability mechanism's "
               "conservatism; \"mechanisms\" must contain only \"SRB\" / "
               "\"RW\"",
               "mechanisms[" + std::to_string(i) + "]");

    return doc;
  }

 private:
  const Json& expect_type(const Json& value, Json::Type type,
                          const char* what, const std::string& path) {
    if (value.type != type)
      fail(source_, value.line,
           std::string("expected ") + what + ", got " + value.type_name(),
           path);
    return value;
  }

  std::string as_string(const Json& value, const std::string& path) {
    return expect_type(value, Json::Type::kString, "a string", path).string;
  }

  double as_number(const Json& value, const std::string& path) {
    return expect_type(value, Json::Type::kNumber, "a number", path).number;
  }

  /// Unsigned 64-bit field: a plain integer, or (for values above 2^53,
  /// which JSON numbers cannot carry exactly) a string of decimal digits.
  std::uint64_t as_u64(const Json& value, const std::string& path) {
    if (value.type == Json::Type::kString) {
      const std::string& s = value.string;
      if (!s.empty() &&
          std::all_of(s.begin(), s.end(),
                      [](unsigned char c) { return std::isdigit(c); })) {
        errno = 0;
        char* end = nullptr;
        const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
        if (errno == 0 && end == s.c_str() + s.size())
          return parsed;
      }
      fail(source_, value.line,
           "expected a non-negative integer (number or decimal string)",
           path);
    }
    expect_type(value, Json::Type::kNumber, "a non-negative integer", path);
    if (!value.integral) {
      const char* what =
          "expected a non-negative integer, got a non-integral number";
      if (value.number < 0)
        what = "expected a non-negative integer, got a negative number";
      else if (value.integer_overflow)
        what = "integer does not fit in 64 bits";
      fail(source_, value.line, what, path);
    }
    return value.integer;
  }

  std::uint32_t as_u32(const Json& value, const std::string& path) {
    const std::uint64_t wide = as_u64(value, path);
    if (wide > std::numeric_limits<std::uint32_t>::max())
      fail(source_, value.line, "value does not fit in 32 bits", path);
    return static_cast<std::uint32_t>(wide);
  }

  /// Cycle counts are signed 64-bit downstream; values beyond int64 max
  /// would wrap negative through the cast and trip the abort-style
  /// contract checks this loader promises to shield.
  Cycles as_cycles(const Json& value, const std::string& path) {
    const std::uint64_t wide = as_u64(value, path);
    if (wide > static_cast<std::uint64_t>(std::numeric_limits<Cycles>::max()))
      fail(source_, value.line,
           "value does not fit in a signed 64-bit cycle count", path);
    return static_cast<Cycles>(wide);
  }

  std::vector<std::string> read_tasks(const Json& value) {
    expect_type(value, Json::Type::kArray, "an array of task names", "tasks");
    if (value.array.empty())
      fail(source_, value.line, "\"tasks\" must not be empty", "tasks");
    const std::vector<std::string> known = workloads::all_names();
    std::vector<std::string> tasks;
    tasks.reserve(value.array.size());
    for (std::size_t i = 0; i < value.array.size(); ++i) {
      const std::string path = "tasks[" + std::to_string(i) + "]";
      const std::string task = as_string(value.array[i], path);
      if (std::find(known.begin(), known.end(), task) == known.end()) {
        std::string message = "unknown task \"" + task + "\"";
        const std::string hint = closest_match(task, known);
        if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
        message += " (`pwcet list` prints the built-in tasks)";
        fail(source_, value.array[i].line, message, path);
      }
      tasks.push_back(task);
    }
    return tasks;
  }

  std::vector<CacheConfig> read_geometries(const Json& value) {
    expect_type(value, Json::Type::kArray, "an array of geometry objects",
                "geometries");
    if (value.array.empty())
      fail(source_, value.line, "\"geometries\" must not be empty",
           "geometries");
    std::vector<CacheConfig> out;
    out.reserve(value.array.size());
    for (std::size_t i = 0; i < value.array.size(); ++i)
      out.push_back(read_geometry(value.array[i],
                                  "geometries[" + std::to_string(i) + "]"));
    return out;
  }

  CacheConfig read_geometry(const Json& value, const std::string& path) {
    expect_type(value, Json::Type::kObject, "a geometry object", path);
    static const std::vector<std::string> kKeys = {
        "sets", "ways", "line_bytes", "hit_latency", "miss_penalty"};
    CacheConfig config;
    bool saw_sets = false, saw_ways = false, saw_line_bytes = false;
    for (const auto& [key, field] : value.object) {
      const std::string field_path = path + "." + key;
      if (key == "sets") {
        config.sets = as_u32(field, field_path);
        saw_sets = true;
      } else if (key == "ways") {
        config.ways = as_u32(field, field_path);
        saw_ways = true;
      } else if (key == "line_bytes") {
        config.line_bytes = as_u32(field, field_path);
        saw_line_bytes = true;
      } else if (key == "hit_latency") {
        config.hit_latency = as_cycles(field, field_path);
      } else if (key == "miss_penalty") {
        config.miss_penalty = as_cycles(field, field_path);
      } else {
        std::string message = "unknown key \"" + key + "\" in geometry";
        const std::string hint = closest_match(key, kKeys);
        if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
        fail(source_, field.line, message, field_path);
      }
    }
    if (!saw_sets)
      fail(source_, value.line, "geometry is missing \"sets\"", path + ".sets");
    if (!saw_ways)
      fail(source_, value.line, "geometry is missing \"ways\"", path + ".ways");
    if (!saw_line_bytes)
      fail(source_, value.line, "geometry is missing \"line_bytes\"",
           path + ".line_bytes");
    if (config.sets == 0)
      fail(source_, value.line, "sets must be positive", path + ".sets");
    if (config.ways == 0)
      fail(source_, value.line, "ways must be positive", path + ".ways");
    if (config.line_bytes == 0 || config.line_bytes % kInstructionBytes != 0)
      fail(source_, value.line,
           "line_bytes must be a positive multiple of " +
               std::to_string(kInstructionBytes) + " (the instruction size)",
           path + ".line_bytes");
    return config;
  }

  WritePolicy read_write_policy(const Json& field, const std::string& path) {
    const std::string name = as_string(field, path);
    const std::string folded = lowercase(name);
    std::vector<std::string> names;
    for (const AxisName<WritePolicy>& entry : write_policy_names()) {
      if (folded == lowercase(entry.name)) return entry.value;
      names.push_back(entry.name);
    }
    fail(source_, field.line,
         "unknown write policy \"" + name + "\"; valid values: " +
             joined(names),
         path);
  }

  /// The data-cache axis: each entry is `null` (data cache off, the
  /// default analysis) or a geometry object, optionally extended with
  /// `"policy": "write_back"` and a `writeback_penalty` (cycles charged
  /// per dirty eviction; the analysis folds it into the miss penalty —
  /// see analysis/writeback_dcache_domain.hpp for why that is sound).
  std::vector<DcacheAxis> read_dcaches(const Json& value) {
    expect_type(value, Json::Type::kArray,
                "an array of null (off) or geometry objects", "dcaches");
    if (value.array.empty())
      fail(source_, value.line, "\"dcaches\" must not be empty", "dcaches");
    static const std::vector<std::string> kGeometryKeys = {
        "sets", "ways", "line_bytes", "hit_latency", "miss_penalty"};
    static const std::vector<std::string> kKeys = {
        "sets",        "ways",   "line_bytes",        "hit_latency",
        "miss_penalty", "policy", "writeback_penalty"};
    std::vector<DcacheAxis> out;
    out.reserve(value.array.size());
    for (std::size_t i = 0; i < value.array.size(); ++i) {
      const std::string path = "dcaches[" + std::to_string(i) + "]";
      const Json& entry = value.array[i];
      DcacheAxis axis;
      if (entry.type == Json::Type::kNull) {
        out.push_back(axis);  // disabled
        continue;
      }
      if (entry.type != Json::Type::kObject)
        fail(source_, entry.line,
             std::string("expected null (data cache off) or a geometry "
                         "object, got ") +
                 entry.type_name(),
             path);
      axis.enabled = true;
      // Split the entry: the policy fields are handled here, everything
      // else flows through read_geometry so the geometry diagnostics
      // (required keys, line_bytes alignment) stay in one place.
      Json geometry = entry;
      geometry.object.clear();
      bool saw_penalty = false;
      for (const auto& [key, field] : entry.object) {
        const std::string field_path = path + "." + key;
        if (key == "policy") {
          axis.policy = read_write_policy(field, field_path);
        } else if (key == "writeback_penalty") {
          axis.writeback_penalty = as_cycles(field, field_path);
          saw_penalty = true;
        } else if (std::find(kGeometryKeys.begin(), kGeometryKeys.end(),
                             key) != kGeometryKeys.end()) {
          geometry.object.emplace_back(key, field);
        } else {
          std::string message =
              "unknown key \"" + key + "\" in data-cache entry";
          const std::string hint = closest_match(key, kKeys);
          if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
          fail(source_, field.line, message, field_path);
        }
      }
      axis.geometry = read_geometry(geometry, path);
      if (saw_penalty && axis.policy != WritePolicy::kWriteBack)
        fail(source_, entry.line,
             "\"writeback_penalty\" needs \"policy\": \"write_back\" (a "
             "write-through data cache never writes lines back)",
             path + ".writeback_penalty");
      out.push_back(axis);
    }
    return out;
  }

  /// The TLB axis: each entry is `null` (TLB off) or an object with
  /// `entries`, `ways`, `page_bytes` and an optional `miss_penalty`.
  std::vector<TlbAxis> read_tlbs(const Json& value) {
    expect_type(value, Json::Type::kArray,
                "an array of null (off) or TLB objects", "tlbs");
    if (value.array.empty())
      fail(source_, value.line, "\"tlbs\" must not be empty", "tlbs");
    static const std::vector<std::string> kKeys = {"entries", "ways",
                                                   "page_bytes",
                                                   "miss_penalty"};
    std::vector<TlbAxis> out;
    out.reserve(value.array.size());
    for (std::size_t i = 0; i < value.array.size(); ++i) {
      const std::string path = "tlbs[" + std::to_string(i) + "]";
      const Json& entry = value.array[i];
      TlbAxis axis;
      if (entry.type == Json::Type::kNull) {
        out.push_back(axis);  // disabled
        continue;
      }
      if (entry.type != Json::Type::kObject)
        fail(source_, entry.line,
             std::string("expected null (TLB off) or a TLB object, got ") +
                 entry.type_name(),
             path);
      axis.enabled = true;
      bool saw_entries = false, saw_ways = false, saw_page_bytes = false;
      for (const auto& [key, field] : entry.object) {
        const std::string field_path = path + "." + key;
        if (key == "entries") {
          axis.entries = as_u32(field, field_path);
          saw_entries = true;
        } else if (key == "ways") {
          axis.ways = as_u32(field, field_path);
          saw_ways = true;
        } else if (key == "page_bytes") {
          axis.page_bytes = as_u32(field, field_path);
          saw_page_bytes = true;
        } else if (key == "miss_penalty") {
          axis.miss_penalty = as_cycles(field, field_path);
        } else {
          std::string message = "unknown key \"" + key + "\" in TLB entry";
          const std::string hint = closest_match(key, kKeys);
          if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
          fail(source_, field.line, message, field_path);
        }
      }
      if (!saw_entries)
        fail(source_, entry.line, "TLB entry is missing \"entries\"",
             path + ".entries");
      if (!saw_ways)
        fail(source_, entry.line, "TLB entry is missing \"ways\"",
             path + ".ways");
      if (!saw_page_bytes)
        fail(source_, entry.line, "TLB entry is missing \"page_bytes\"",
             path + ".page_bytes");
      if (axis.ways == 0)
        fail(source_, entry.line, "ways must be positive", path + ".ways");
      if (axis.entries == 0 || axis.entries % axis.ways != 0)
        fail(source_, entry.line,
             "entries must be a positive multiple of ways (the TLB is "
             "modeled as entries/ways sets of `ways` translations)",
             path + ".entries");
      if (axis.page_bytes == 0 ||
          axis.page_bytes % kInstructionBytes != 0)
        fail(source_, entry.line,
             "page_bytes must be a positive multiple of " +
                 std::to_string(kInstructionBytes) +
                 " (the instruction size)",
             path + ".page_bytes");
      out.push_back(axis);
    }
    return out;
  }

  /// The shared-L2 axis: each entry is `null` (no L2) or a geometry
  /// object (the L2 is lookup-through; hit_latency/miss_penalty price
  /// the *incremental* L2 cost per reference).
  std::vector<L2Axis> read_l2s(const Json& value) {
    expect_type(value, Json::Type::kArray,
                "an array of null (off) or geometry objects", "l2s");
    if (value.array.empty())
      fail(source_, value.line, "\"l2s\" must not be empty", "l2s");
    std::vector<L2Axis> out;
    out.reserve(value.array.size());
    for (std::size_t i = 0; i < value.array.size(); ++i) {
      const std::string path = "l2s[" + std::to_string(i) + "]";
      const Json& entry = value.array[i];
      L2Axis axis;
      if (entry.type == Json::Type::kNull) {
        out.push_back(axis);  // disabled
        continue;
      }
      if (entry.type != Json::Type::kObject)
        fail(source_, entry.line,
             std::string("expected null (no shared L2) or a geometry "
                         "object, got ") +
                 entry.type_name(),
             path);
      axis.enabled = true;
      axis.geometry = read_geometry(entry, path);
      out.push_back(axis);
    }
    return out;
  }

  std::vector<std::size_t> read_sample_counts(const Json& value) {
    expect_type(value, Json::Type::kArray, "an array of sample counts",
                "sample_counts");
    if (value.array.empty())
      fail(source_, value.line, "\"sample_counts\" must not be empty",
           "sample_counts");
    std::vector<std::size_t> out;
    out.reserve(value.array.size());
    for (std::size_t i = 0; i < value.array.size(); ++i) {
      const std::string path = "sample_counts[" + std::to_string(i) + "]";
      out.push_back(static_cast<std::size_t>(as_u64(value.array[i], path)));
    }
    return out;
  }

  std::vector<Probability> read_ccdf_exceedances(const Json& value) {
    expect_type(value, Json::Type::kArray,
                "an array of exceedance probabilities", "ccdf_exceedances");
    std::vector<Probability> out;
    out.reserve(value.array.size());
    for (std::size_t i = 0; i < value.array.size(); ++i) {
      const std::string path = "ccdf_exceedances[" + std::to_string(i) + "]";
      const double p = as_number(value.array[i], path);
      if (!(p > 0.0 && p <= 1.0))
        fail(source_, value.array[i].line,
             "exceedance probability must be in (0, 1]", path);
      out.push_back(p);
    }
    return out;
  }

  std::vector<Probability> read_pfails(const Json& value) {
    expect_type(value, Json::Type::kArray, "an array of probabilities",
                "pfails");
    if (value.array.empty())
      fail(source_, value.line, "\"pfails\" must not be empty", "pfails");
    std::vector<Probability> out;
    out.reserve(value.array.size());
    for (std::size_t i = 0; i < value.array.size(); ++i) {
      const std::string path = "pfails[" + std::to_string(i) + "]";
      const double p = as_number(value.array[i], path);
      if (!(p >= 0.0 && p <= 1.0))
        fail(source_, value.array[i].line,
             "cell failure probability must be in [0, 1]", path);
      out.push_back(p);
    }
    return out;
  }

  template <typename Enum>
  std::vector<Enum> read_enums(
      const Json& value, const std::string& key,
      const std::vector<std::pair<std::string, Enum>>& table,
      const char* what) {
    expect_type(value, Json::Type::kArray,
                (std::string("an array of ") + what + " names").c_str(), key);
    if (value.array.empty())
      fail(source_, value.line, "\"" + key + "\" must not be empty", key);
    std::vector<std::string> names;
    names.reserve(table.size());
    for (const auto& [name, unused] : table) {
      (void)unused;
      names.push_back(name);
    }
    std::vector<Enum> out;
    out.reserve(value.array.size());
    for (std::size_t i = 0; i < value.array.size(); ++i) {
      const std::string path = key + "[" + std::to_string(i) + "]";
      const std::string name = as_string(value.array[i], path);
      const std::string folded = lowercase(name);
      bool found = false;
      for (const auto& [candidate, enumerator] : table) {
        if (folded == lowercase(candidate)) {
          out.push_back(enumerator);
          found = true;
          break;
        }
      }
      if (!found)
        fail(source_, value.array[i].line,
             std::string("unknown ") + what + " \"" + name +
                 "\"; valid values: " + joined(names),
             path);
    }
    return out;
  }

  void read_mbpta(const Json& value, MbptaOptions& options) {
    expect_type(value, Json::Type::kObject, "an object", "mbpta");
    static const std::vector<std::string> kKeys = {"chips", "block_size",
                                                   "seed"};
    for (const auto& [key, field] : value.object) {
      const std::string path = "mbpta." + key;
      if (key == "chips") {
        options.chips = static_cast<std::size_t>(as_u64(field, path));
        if (options.chips == 0)
          fail(source_, field.line, "mbpta.chips must be positive", path);
      } else if (key == "block_size") {
        options.block_size = static_cast<std::size_t>(as_u64(field, path));
        if (options.block_size == 0)
          fail(source_, field.line, "mbpta.block_size must be positive", path);
      } else if (key == "seed") {
        options.seed = as_u64(field, path);
      } else {
        std::string message = "unknown key \"" + key + "\" in mbpta options";
        const std::string hint = closest_match(key, kKeys);
        if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
        fail(source_, field.line, message, path);
      }
    }
  }

  const std::string& source_;
};

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

/// Shortest decimal string that parses back to exactly `value` — nicer to
/// read than a flat %.17g (1e-15 stays "1e-15") while still bit-exact, which
/// the spec -> JSON -> spec round-trip (campaign_spec_key equality) needs.
std::string fmt_shortest_exact(double value) {
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) return buf;
  }
  return buf;
}

std::string fmt_u64_json(std::uint64_t value) {
  // Values above 2^53 would be rounded by double-based JSON readers (and
  // by our own parser's strtod fallback); ship them as decimal strings.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  if (value > (std::uint64_t{1} << 53)) return std::string("\"") + buf + "\"";
  return buf;
}

template <typename T, typename Fn>
std::string json_array(const std::vector<T>& values, Fn&& render) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += render(values[i]);
  }
  out += ']';
  return out;
}

}  // namespace

SpecDocument parse_spec(const std::string& text, const std::string& source) {
  // Syntax errors surface as SpecError like every other spec problem; the
  // shared parser's diagnostics already carry source and line.
  Json root;
  try {
    root = parse_json(text, source);
  } catch (const JsonParseError& e) {
    throw SpecError(e.what());
  }
  SpecDocument doc = SpecReader(source).read(root);
  // The reader enforces a superset of validate()'s conditions with real
  // diagnostics; this call is a belt-and-braces check that the two never
  // drift (it aborts, so it must be unreachable for parsed specs).
  doc.spec.validate();
  return doc;
}

SpecDocument load_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SpecError(path + ": cannot open spec file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw SpecError(path + ": error reading spec file");
  return parse_spec(buffer.str(), path);
}

std::string spec_to_json(const CampaignSpec& spec, const std::string& name,
                         const std::string& notes) {
  std::string out = "{\n";
  auto field = [&out](const std::string& key, const std::string& value,
                      bool last = false) {
    out += "  ";
    out += json_quote(key);
    out += ": ";
    out += value;
    if (!last) out += ',';
    out += '\n';
  };

  const auto geometry_json = [](const CacheConfig& g) {
    return "{\"sets\": " + std::to_string(g.sets) +
           ", \"ways\": " + std::to_string(g.ways) +
           ", \"line_bytes\": " + std::to_string(g.line_bytes) +
           ", \"hit_latency\": " + std::to_string(g.hit_latency) +
           ", \"miss_penalty\": " + std::to_string(g.miss_penalty) + "}";
  };

  if (!name.empty()) field("name", json_quote(name));
  if (!notes.empty()) field("notes", json_quote(notes));
  field("tasks", json_array(spec.tasks, json_quote));
  std::string geometries = "[\n";
  for (std::size_t i = 0; i < spec.geometries.size(); ++i) {
    geometries += "    " + geometry_json(spec.geometries[i]);
    geometries += i + 1 < spec.geometries.size() ? ",\n" : "\n";
  }
  geometries += "  ]";
  field("geometries", geometries);
  field("dcaches", json_array(spec.dcaches, [&](const DcacheAxis& d) {
          if (!d.enabled) return std::string("null");
          std::string entry = geometry_json(d.geometry);
          if (d.policy == WritePolicy::kWriteBack) {
            entry.pop_back();  // reopen the geometry object
            entry += ", \"policy\": " + json_quote(write_policy_name(d.policy)) +
                     ", \"writeback_penalty\": " +
                     std::to_string(d.writeback_penalty) + "}";
          }
          return entry;
        }));
  field("tlbs", json_array(spec.tlbs, [](const TlbAxis& t) {
          if (!t.enabled) return std::string("null");
          return "{\"entries\": " + std::to_string(t.entries) +
                 ", \"ways\": " + std::to_string(t.ways) +
                 ", \"page_bytes\": " + std::to_string(t.page_bytes) +
                 ", \"miss_penalty\": " + std::to_string(t.miss_penalty) +
                 "}";
        }));
  field("l2s", json_array(spec.l2s, [&](const L2Axis& l) {
          return l.enabled ? geometry_json(l.geometry) : std::string("null");
        }));
  field("pfails", json_array(spec.pfails, fmt_shortest_exact));
  field("mechanisms", json_array(spec.mechanisms, [](Mechanism m) {
          return json_quote(mechanism_name(m));
        }));
  field("dcache_mechanisms",
        json_array(spec.dcache_mechanisms, [](DcacheMechanism m) {
          return json_quote(dcache_mechanism_name(m));
        }));
  field("engines", json_array(spec.engines, [](WcetEngine e) {
          return json_quote(engine_name(e));
        }));
  field("kinds", json_array(spec.kinds, [](AnalysisKind k) {
          return json_quote(analysis_kind_name(k));
        }));
  field("sample_counts",
        json_array(spec.sample_counts, [](std::size_t n) {
          return std::to_string(n);
        }));
  field("target_exceedance", fmt_shortest_exact(spec.target_exceedance));
  field("ccdf_exceedances",
        json_array(spec.ccdf_exceedances, fmt_shortest_exact));
  field("max_distribution_points",
        std::to_string(spec.max_distribution_points));
  field("mbpta", "{\"chips\": " + std::to_string(spec.mbpta.chips) +
                     ", \"block_size\": " +
                     std::to_string(spec.mbpta.block_size) +
                     ", \"seed\": " + fmt_u64_json(spec.mbpta.seed) + "}");
  field("simulation_chips", std::to_string(spec.simulation_chips));
  field("base_seed", fmt_u64_json(spec.base_seed), /*last=*/true);
  out += "}\n";
  return out;
}

}  // namespace pwcet
