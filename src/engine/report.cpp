#include "engine/report.hpp"

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>

#include "support/json.hpp"
#include "support/json_doc.hpp"

namespace pwcet {
namespace {

/// Shortest decimal that round-trips the double exactly — deterministic
/// for identical bits, which the determinism tests rely on.
std::string fmt_exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string fmt_u64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Single source of truth for column names and their JSON type, so the
/// quoting decision cannot drift from the column order.
///
/// The numeric tail (wcet_ff .. bound_misses_1) is also read back, by
/// name, by parse_campaign_report_rows below when a persisted campaign
/// report or a shard fragment is loaded; renaming one of those columns
/// breaks that parse — store_test's CampaignWarmFromDiskIsByteIdentical
/// (which asserts zero recomputation on a warm run) catches the drift.
struct Column {
  const char* name;
  bool json_string;
};

constexpr Column kColumns[] = {
    {"task", true},         {"sets", false},
    {"ways", false},        {"line_bytes", false},
    // Data-cache axis: 0x0x0 when the cell's data cache is off; dmech is
    // the *resolved* data-cache mechanism ("-" when off); dpolicy is the
    // write policy ("-" when off).
    {"dsets", false},       {"dways", false},
    {"dline_bytes", false}, {"dpolicy", true},
    // TLB axis (0s when off) and shared-L2 axis (0x0x0 when off). Both
    // deploy the job's `mech`.
    {"tlb_entries", false}, {"tlb_ways", false},
    {"tlb_page_bytes", false},
    {"l2sets", false},      {"l2ways", false},
    {"l2line_bytes", false}, {"pfail", false},
    {"mech", true},         {"dmech", true},
    {"engine", true},       {"kind", true},
    // samples: the raw sample-count axis value (0 = spec-level defaults).
    {"samples", false},
    // seed: a full 64-bit value would be silently rounded by double-based
    // JSON parsers (jq, JavaScript), so it travels as a string.
    {"seed", true},         {"wcet_ff", false},
    {"pwcet", false},       {"observed_max", false},
    {"penalty_mean", false}, {"penalty_points", false},
    {"fetches", false},     {"srb_hits", false},
    {"sim_misses", false},  {"bound_misses", false},
    {"sim_misses_1", false}, {"bound_misses_1", false},
};

/// Job-identity columns shared by the scalar and dist reports: everything
/// in kColumns up to (excluding) the numeric result tail.
constexpr std::size_t kJobColumns = 21;  // task .. seed
static_assert(std::string_view(kColumns[kJobColumns].name) == "wcet_ff",
              "kJobColumns must mark where the numeric result tail starts");

/// The dist report: the job-identity prefix plus the curve point.
constexpr Column kDistTail[] = {
    {"exceedance", false},
    {"value", false},
};

std::vector<std::string> job_row(const CampaignJob& job) {
  return {job.task,
          std::to_string(job.geometry.sets),
          std::to_string(job.geometry.ways),
          std::to_string(job.geometry.line_bytes),
          std::to_string(job.dcache.enabled ? job.dcache.geometry.sets : 0),
          std::to_string(job.dcache.enabled ? job.dcache.geometry.ways : 0),
          std::to_string(job.dcache.enabled ? job.dcache.geometry.line_bytes
                                            : 0),
          job.dcache.enabled ? write_policy_name(job.dcache.policy) : "-",
          std::to_string(job.tlb.enabled ? job.tlb.entries : 0),
          std::to_string(job.tlb.enabled ? job.tlb.ways : 0),
          std::to_string(job.tlb.enabled ? job.tlb.page_bytes : 0),
          std::to_string(job.l2.enabled ? job.l2.geometry.sets : 0),
          std::to_string(job.l2.enabled ? job.l2.geometry.ways : 0),
          std::to_string(job.l2.enabled ? job.l2.geometry.line_bytes : 0),
          fmt_exact(job.pfail),
          mechanism_name(job.mechanism),
          job.dcache.enabled ? mechanism_name(job.resolved_dmech()) : "-",
          engine_name(job.engine),
          analysis_kind_name(job.kind),
          std::to_string(job.samples),
          fmt_u64(job.seed)};
}

std::string render_jsonl_row(const Column* columns, std::size_t count,
                             const std::vector<std::string>& row) {
  std::string out = "{";
  for (std::size_t c = 0; c < count; ++c) {
    out += '"';
    out += columns[c].name;
    out += "\":";
    if (columns[c].json_string) {
      out += '"';
      out += json_escape(row[c]);
      out += '"';
    } else {
      out += row[c];
    }
    if (c + 1 < count) out += ',';
  }
  out += "}\n";
  return out;
}

}  // namespace

std::vector<std::string> report_columns() {
  std::vector<std::string> names;
  names.reserve(std::size(kColumns));
  for (const Column& column : kColumns) names.push_back(column.name);
  return names;
}

std::vector<std::string> report_row(const CampaignResult& campaign,
                                    const JobResult& result) {
  (void)campaign;
  std::vector<std::string> row = job_row(result.job);
  row.push_back(std::to_string(result.fault_free_wcet));
  row.push_back(fmt_exact(result.pwcet));
  row.push_back(fmt_exact(result.observed_max));
  row.push_back(fmt_exact(result.penalty_mean));
  row.push_back(std::to_string(result.penalty_points));
  row.push_back(fmt_u64(result.fetches));
  row.push_back(fmt_u64(result.srb_hits));
  row.push_back(fmt_u64(result.sim_misses));
  row.push_back(fmt_u64(result.bound_misses));
  row.push_back(fmt_u64(result.sim_misses_1));
  row.push_back(fmt_u64(result.bound_misses_1));
  return row;
}

TextTable report_table(const CampaignResult& campaign) {
  TextTable table(report_columns());
  for (const JobResult& result : campaign.results)
    table.add_row(report_row(campaign, result));
  return table;
}

std::string report_csv(const CampaignResult& campaign) {
  return report_table(campaign).to_csv();
}

std::string report_jsonl(const CampaignResult& campaign) {
  std::string out;
  for (const JobResult& result : campaign.results)
    out += render_jsonl_row(kColumns, std::size(kColumns),
                            report_row(campaign, result));
  return out;
}

std::vector<std::string> report_dist_columns() {
  std::vector<std::string> names;
  names.reserve(kJobColumns + std::size(kDistTail));
  for (std::size_t c = 0; c < kJobColumns; ++c)
    names.push_back(kColumns[c].name);
  for (const Column& column : kDistTail) names.push_back(column.name);
  return names;
}

namespace {

/// Rows of the dist report, rendered through `emit(columns-array, row)`.
template <typename Emit>
void each_dist_row(const CampaignResult& campaign, Emit&& emit) {
  const std::vector<Probability>& points = campaign.spec.ccdf_exceedances;
  for (const JobResult& result : campaign.results) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::vector<std::string> row = job_row(result.job);
      row.push_back(fmt_exact(points[i]));
      row.push_back(fmt_exact(i < result.curve.size() ? result.curve[i]
                                                      : 0.0));
      emit(std::move(row));
    }
  }
}

constexpr auto make_dist_columns() {
  std::array<Column, kJobColumns + std::size(kDistTail)> columns{};
  for (std::size_t c = 0; c < kJobColumns; ++c) columns[c] = kColumns[c];
  for (std::size_t c = 0; c < std::size(kDistTail); ++c)
    columns[kJobColumns + c] = kDistTail[c];
  return columns;
}

}  // namespace

TextTable report_dist_table(const CampaignResult& campaign) {
  TextTable table(report_dist_columns());
  each_dist_row(campaign,
                [&](std::vector<std::string> row) { table.add_row(row); });
  return table;
}

std::string report_dist_csv(const CampaignResult& campaign) {
  return report_dist_table(campaign).to_csv();
}

std::string report_jsonl_row(const CampaignResult& campaign,
                             const JobResult& result) {
  return render_jsonl_row(kColumns, std::size(kColumns),
                          report_row(campaign, result));
}

std::string report_dist_jsonl_rows(const CampaignResult& campaign,
                                   const JobResult& result) {
  static constexpr auto kDistColumns = make_dist_columns();
  const std::vector<Probability>& points = campaign.spec.ccdf_exceedances;
  std::string out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::vector<std::string> row = job_row(result.job);
    row.push_back(fmt_exact(points[i]));
    row.push_back(fmt_exact(i < result.curve.size() ? result.curve[i]
                                                    : 0.0));
    out += render_jsonl_row(kDistColumns.data(), kDistColumns.size(), row);
  }
  return out;
}

std::string report_dist_jsonl(const CampaignResult& campaign) {
  std::string out;
  for (const JobResult& result : campaign.results)
    out += report_dist_jsonl_rows(campaign, result);
  return out;
}

namespace {

/// One persisted report row as a JSON object, through the one grammar
/// every reader shares (support/json_doc.hpp); nullopt when the line is
/// not valid JSON or not an object.
std::optional<Json> parse_row(const std::string& line) {
  try {
    Json row = parse_json(line, "<report row>");
    if (row.type == Json::Type::kObject) return row;
  } catch (const JsonParseError&) {
  }
  return std::nullopt;
}

/// Integer column: a plain non-negative integer token (no sign, fraction
/// or exponent — the writer prints decimal digits only) no larger than
/// `max`.
bool read_count(const Json& row, const char* name, std::uint64_t& out,
                std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const Json* value = row.find(name);
  if (value == nullptr || value->type != Json::Type::kNumber ||
      !value->integral || value->integer > max)
    return false;
  out = value->integer;
  return true;
}

/// Real column: any JSON number (the grammar already rejects nan, inf
/// and overflowing literals).
bool read_number(const Json& row, const char* name, double& out) {
  const Json* value = row.find(name);
  if (value == nullptr || value->type != Json::Type::kNumber) return false;
  out = value->number;
  return true;
}

}  // namespace

bool parse_campaign_report_rows(const std::string& payload,
                                const std::vector<CampaignJob>& jobs,
                                const std::vector<std::size_t>& slots,
                                std::vector<JobResult>& results) {
  std::istringstream lines(payload);
  std::string line;
  std::size_t row = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (row >= slots.size()) return false;
    const std::size_t slot = slots[row];
    if (slot >= jobs.size() || slot >= results.size()) return false;
    const std::optional<Json> parsed = parse_row(line);
    if (!parsed) return false;
    JobResult result;
    result.job = jobs[slot];
    std::uint64_t wcet_ff = 0, penalty_points = 0;
    if (!read_count(*parsed, "wcet_ff", wcet_ff,
                    std::numeric_limits<Cycles>::max()) ||
        !read_number(*parsed, "pwcet", result.pwcet) ||
        !read_number(*parsed, "observed_max", result.observed_max) ||
        !read_number(*parsed, "penalty_mean", result.penalty_mean) ||
        !read_count(*parsed, "penalty_points", penalty_points,
                    std::numeric_limits<std::size_t>::max()) ||
        !read_count(*parsed, "fetches", result.fetches) ||
        !read_count(*parsed, "srb_hits", result.srb_hits) ||
        !read_count(*parsed, "sim_misses", result.sim_misses) ||
        !read_count(*parsed, "bound_misses", result.bound_misses) ||
        !read_count(*parsed, "sim_misses_1", result.sim_misses_1) ||
        !read_count(*parsed, "bound_misses_1", result.bound_misses_1))
      return false;
    result.fault_free_wcet = static_cast<Cycles>(wcet_ff);
    result.penalty_points = static_cast<std::size_t>(penalty_points);
    results[slot] = std::move(result);
    ++row;
  }
  return row == slots.size();
}

bool parse_campaign_dist_rows(const std::string& payload, std::size_t points,
                              const std::vector<std::size_t>& slots,
                              std::vector<JobResult>& results) {
  if (points == 0) return payload.empty();
  std::istringstream lines(payload);
  std::string line;
  std::size_t row = 0;
  const std::size_t total = slots.size() * points;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (row >= total) return false;
    const std::size_t slot = slots[row / points];
    if (slot >= results.size()) return false;
    const std::optional<Json> parsed = parse_row(line);
    double exceedance = 0.0, value = 0.0;
    if (!parsed || !read_number(*parsed, "exceedance", exceedance) ||
        !read_number(*parsed, "value", value))
      return false;
    JobResult& result = results[slot];
    if (result.curve.size() != points) result.curve.assign(points, 0.0);
    result.curve[row % points] = value;
    ++row;
  }
  return row == total;
}

bool write_report_files(const CampaignResult& campaign,
                        const std::string& basename) {
  std::ofstream csv(basename + ".csv", std::ios::binary);
  csv << report_csv(campaign);
  csv.close();  // flush before checking: buffered write errors (disk
                // full, quota) only surface at flush time
  std::ofstream jsonl(basename + ".jsonl", std::ios::binary);
  jsonl << report_jsonl(campaign);
  jsonl.close();
  bool ok = !csv.fail() && !jsonl.fail();
  if (!campaign.spec.ccdf_exceedances.empty()) {
    std::ofstream dist_csv(basename + ".dist.csv", std::ios::binary);
    dist_csv << report_dist_csv(campaign);
    dist_csv.close();
    std::ofstream dist_jsonl(basename + ".dist.jsonl", std::ios::binary);
    dist_jsonl << report_dist_jsonl(campaign);
    dist_jsonl.close();
    ok = ok && !dist_csv.fail() && !dist_jsonl.fail();
  }
  return ok;
}

}  // namespace pwcet
