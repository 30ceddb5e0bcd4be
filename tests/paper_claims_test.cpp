// Paper claims over the golden corpus: the orderings and soundness
// relations the paper's tables and figures rest on, asserted on the pinned
// report rows of the shipped specs. golden_report_test proves a live run
// reproduces these files byte for byte, so each claim here holds for the
// code, not only for the checked-in bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef PWCET_GOLDEN_DIR
#define PWCET_GOLDEN_DIR "tests/golden"
#endif

namespace {

using Row = std::map<std::string, std::string>;

/// Reads tests/golden/<file>: plain comma-separated fields, no quoting;
/// the first line names the columns.
std::vector<Row> read_golden(const std::string& file) {
  std::ifstream in(std::string(PWCET_GOLDEN_DIR) + "/" + file);
  EXPECT_TRUE(in) << "missing golden file " << file;
  std::vector<std::string> header;
  std::vector<Row> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> fields;
    std::istringstream split(line);
    std::string field;
    while (std::getline(split, field, ',')) fields.push_back(field);
    if (header.empty()) {
      header = std::move(fields);
      continue;
    }
    EXPECT_EQ(fields.size(), header.size()) << file << ": " << line;
    Row row;
    for (std::size_t i = 0; i < std::min(fields.size(), header.size()); ++i)
      row[header[i]] = fields[i];
    rows.push_back(std::move(row));
  }
  EXPECT_FALSE(rows.empty()) << file;
  return rows;
}

double num(const Row& row, const std::string& column) {
  return std::stod(row.at(column));
}

/// The grid cell a row belongs to, mechanism aside: every axis column but
/// `mech` (and not `seed`, which is derived per job).
std::string cell_of(const Row& row) {
  static const char* const kAxes[] = {
      "task",        "sets",          "ways",         "line_bytes",
      "dsets",       "dways",         "dline_bytes",  "dpolicy",
      "tlb_entries", "tlb_ways",      "tlb_page_bytes", "l2sets",
      "l2ways",      "l2line_bytes",  "pfail",        "dmech",
      "engine",      "kind",          "samples"};
  std::string key;
  for (const char* axis : kAxes) key += row.at(axis) + ",";
  return key;
}

/// Rows grouped by grid cell, then by mechanism.
std::map<std::string, std::map<std::string, Row>> by_cell(
    const std::vector<Row>& rows) {
  std::map<std::string, std::map<std::string, Row>> cells;
  for (const Row& row : rows) cells[cell_of(row)][row.at("mech")] = row;
  return cells;
}

/// The sweeps whose tables compare the three protection levels cell by
/// cell: E3 (pfail), E4 (geometry) and Fig. 4.
const char* const kMechanismSweeps[] = {"pfail_sweep", "geometry_sweep",
                                        "normalized_pwcet"};

TEST(PaperClaims, ProtectionNeverRaisesPwcetInAnySweepCell) {
  // pWCET(RW) <= pWCET(SRB) <= pWCET(none): each mechanism removes fault
  // scenarios the weaker one has to charge (paper §III, Fig. 3 and 4).
  for (const char* stem : kMechanismSweeps) {
    const auto cells = by_cell(read_golden(std::string(stem) + ".csv"));
    ASSERT_FALSE(cells.empty()) << stem;
    for (const auto& [cell, mechs] : cells) {
      ASSERT_EQ(mechs.size(), 3u) << stem << " " << cell;
      const double none = num(mechs.at("none"), "pwcet");
      const double srb = num(mechs.at("SRB"), "pwcet");
      const double rw = num(mechs.at("RW"), "pwcet");
      EXPECT_LE(rw, srb) << stem << " " << cell;
      EXPECT_LE(srb, none) << stem << " " << cell;
    }
  }
}

TEST(PaperClaims, PwcetNeverUndercutsTheFaultFreeWcet) {
  for (const char* stem : kMechanismSweeps)
    for (const Row& row : read_golden(std::string(stem) + ".csv"))
      EXPECT_GE(num(row, "pwcet"), num(row, "wcet_ff"))
          << stem << " " << cell_of(row) << row.at("mech");
}

/// Fig. 3's curves: per mechanism, (exceedance, value) from the most to
/// the least likely exceedance.
std::map<std::string, std::vector<std::pair<double, double>>> ccdf_curves() {
  std::map<std::string, std::vector<std::pair<double, double>>> curves;
  for (const Row& row : read_golden("ccdf.dist.csv"))
    curves[row.at("mech")].emplace_back(num(row, "exceedance"),
                                        num(row, "value"));
  for (auto& [mech, curve] : curves)
    std::sort(curve.begin(), curve.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
  return curves;
}

TEST(PaperClaims, CcdfValuesGrowTowardRarerExceedances) {
  for (const auto& [mech, curve] : ccdf_curves())
    for (std::size_t i = 1; i < curve.size(); ++i)
      EXPECT_LE(curve[i - 1].second, curve[i].second)
          << mech << " at exceedance " << curve[i].first;
}

TEST(PaperClaims, CcdfOrdersTheMechanismsAtEveryPoint) {
  const auto curves = ccdf_curves();
  ASSERT_EQ(curves.size(), 3u);
  const auto& none = curves.at("none");
  const auto& srb = curves.at("SRB");
  const auto& rw = curves.at("RW");
  // 1e0 down to 1e-16: the paper's y-axis range.
  ASSERT_EQ(none.size(), 17u);
  ASSERT_EQ(srb.size(), none.size());
  ASSERT_EQ(rw.size(), none.size());
  for (std::size_t i = 0; i < none.size(); ++i) {
    EXPECT_EQ(srb[i].first, none[i].first);
    EXPECT_EQ(rw[i].first, none[i].first);
    EXPECT_LE(rw[i].second, srb[i].second) << "exceedance " << none[i].first;
    EXPECT_LE(srb[i].second, none[i].second) << "exceedance " << none[i].first;
  }
}

TEST(PaperClaims, SptaDominatesEveryObservedMbptaTime) {
  // E6's "sound" column: the static bound is never below a time the
  // measurement-based campaign actually observed on a sampled chip.
  std::map<std::string, std::map<std::string, Row>> by_kind;
  for (const Row& row : read_golden("mbpta_vs_spta.csv"))
    by_kind[row.at("task") + "/" + row.at("mech")][row.at("kind")] = row;
  ASSERT_FALSE(by_kind.empty());
  for (const auto& [cell, kinds] : by_kind) {
    ASSERT_EQ(kinds.size(), 2u) << cell;
    EXPECT_GE(num(kinds.at("spta"), "pwcet"),
              num(kinds.at("mbpta"), "observed_max"))
        << cell;
  }
}

TEST(PaperClaims, StaticMissBoundsDominateSimulatedMisses) {
  // E5, both regimes (every set faulty; only set 0 faulty), both
  // mechanisms: the analysis is sound on the worst structural path.
  const std::vector<Row> rows = read_golden("srb_conservatism.csv");
  for (const Row& row : rows) {
    const std::string job = row.at("task") + "/" + row.at("mech");
    EXPECT_GE(num(row, "bound_misses"), num(row, "sim_misses")) << job;
    EXPECT_GE(num(row, "bound_misses_1"), num(row, "sim_misses_1")) << job;
  }
}

TEST(PaperClaims, SrbBoundIsExactWithEverySetFaulty) {
  // With every set faulty the SRB really is reloaded at each reference,
  // so the conservative reload assumption (§III-B.2) costs nothing.
  std::size_t srb_rows = 0;
  for (const Row& row : read_golden("srb_conservatism.csv")) {
    if (row.at("mech") != "SRB") continue;
    ++srb_rows;
    EXPECT_EQ(row.at("bound_misses"), row.at("sim_misses")) << row.at("task");
  }
  EXPECT_EQ(srb_rows, 25u);
}

TEST(PaperClaims, Fig4MeanGainOfRwIsAtLeastThatOfSrb) {
  // Gain = 1 - pWCET[mech] / pWCET[none] per benchmark, averaged over the
  // 25 tasks. The paper reports 48 % (RW) and 40 % (SRB); this corpus
  // gives 47.3 % and 43.0 %.
  double rw_gain = 0.0;
  double srb_gain = 0.0;
  const auto cells = by_cell(read_golden("normalized_pwcet.csv"));
  ASSERT_EQ(cells.size(), 25u);
  for (const auto& [cell, mechs] : cells) {
    const double none = num(mechs.at("none"), "pwcet");
    rw_gain += 1.0 - num(mechs.at("RW"), "pwcet") / none;
    srb_gain += 1.0 - num(mechs.at("SRB"), "pwcet") / none;
  }
  rw_gain /= static_cast<double>(cells.size());
  srb_gain /= static_cast<double>(cells.size());
  EXPECT_GE(rw_gain, srb_gain);
  EXPECT_GT(srb_gain, 0.0);
}

}  // namespace
