/// \file
/// Structured result emission for campaign runs.
///
/// One row per job, in expansion order, rendered as CSV (via
/// support/table's TextTable, so the same rows also print as an aligned
/// text table) or as JSON lines (one object per row, BENCH_*.json-style).
/// Rendering is bitwise deterministic: numbers are formatted with fixed
/// printf conversions ("%.17g" round-trips doubles exactly), and nothing
/// timing- or machine-dependent enters a row — which is what lets the
/// tests assert that an N-thread campaign reproduces a 1-thread campaign
/// byte for byte.
///
/// Campaigns with a distribution sink (spec.ccdf_exceedances non-empty)
/// additionally render a *dist* report: one row per (job, exceedance
/// point), job-major — the full pWCET curve (CCDF) of every cell, e.g.
/// the paper's Fig. 3 series. write_report_files emits it as
/// `basename`.dist.{csv,jsonl} next to the scalar report.
#pragma once

#include <string>
#include <vector>

#include "engine/runner.hpp"
#include "support/table.hpp"

namespace pwcet {

/// Column names of the tabular report, in order.
std::vector<std::string> report_columns();

/// One formatted row (same order as report_columns()).
std::vector<std::string> report_row(const CampaignResult& campaign,
                                    const JobResult& result);

/// The whole campaign as an aligned text table.
TextTable report_table(const CampaignResult& campaign);

/// The whole campaign as CSV (header + one line per job).
std::string report_csv(const CampaignResult& campaign);

/// The whole campaign as JSON lines (one object per job, no header).
std::string report_jsonl(const CampaignResult& campaign);

/// One job's scalar report row as a single JSONL object line (trailing
/// newline included) — the unit that campaign-shard fragments carry
/// (engine/shard.hpp).
std::string report_jsonl_row(const CampaignResult& campaign,
                             const JobResult& result);

/// One job's distribution-sink rows: spec.ccdf_exceedances.size() JSONL
/// lines in point order; empty for scalar-only campaigns.
std::string report_dist_jsonl_rows(const CampaignResult& campaign,
                                   const JobResult& result);

/// Rebuilds per-job numeric results from rendered scalar JSONL rows: one
/// payload line per entry of `slots` (expansion-order job indices), in
/// order. The job metadata columns need no parsing — expand_campaign
/// reproduces them exactly — and the numeric tail was printed with
/// round-tripping conversions ("%.17g" / decimal integers), so the
/// reconstructed results render byte-identically to the originals. Used by
/// the runner's whole-campaign warm load (slots = all jobs) and by the
/// shard merge (slots = a fragment's covered rows). Each row is read with
/// the shared JSON grammar (support/json_doc.hpp). Returns false on any
/// mismatch (row count, a row that is not a JSON object, a missing field,
/// a negative or non-integer count, a non-number, slot out of range), in
/// which case the caller recomputes or rejects the payload.
bool parse_campaign_report_rows(const std::string& payload,
                                const std::vector<CampaignJob>& jobs,
                                const std::vector<std::size_t>& slots,
                                std::vector<JobResult>& results);

/// Same for rendered distribution-sink rows (`points` lines per slot,
/// job-major): refills results[slot].curve.
bool parse_campaign_dist_rows(const std::string& payload, std::size_t points,
                              const std::vector<std::size_t>& slots,
                              std::vector<JobResult>& results);

/// Column names of the distribution-sink report, in order.
std::vector<std::string> report_dist_columns();

/// The distribution sink as an aligned text table / CSV / JSON lines:
/// one row per (job, spec.ccdf_exceedances entry), job-major. Empty
/// (header-only for CSV) when the spec requests no distribution output.
TextTable report_dist_table(const CampaignResult& campaign);
std::string report_dist_csv(const CampaignResult& campaign);
std::string report_dist_jsonl(const CampaignResult& campaign);

/// Writes `basename`.csv and `basename`.jsonl — plus, when the campaign
/// carries a distribution sink, `basename`.dist.csv and
/// `basename`.dist.jsonl; returns false on I/O error.
bool write_report_files(const CampaignResult& campaign,
                        const std::string& basename);

}  // namespace pwcet
