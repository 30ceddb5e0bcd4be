// Unit tests for src/support: RNG, statistics, table formatting, and the JSON
// parser's hostile-input edge cases (nesting depth, lone surrogates,
// overflowing numbers, trailing bytes).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "support/json_doc.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace pwcet {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, DoubleRoughlyUniform) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 7ull, 100ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(6));
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bernoulli(0.0));
    EXPECT_TRUE(rng.next_bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) hits += rng.next_bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Stats, SummarizeBasics) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const SampleSummary s = summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.variance, 5.0 / 3.0, 1e-12);
}

TEST(Stats, SummarizeEmptyAndSingle) {
  EXPECT_EQ(summarize({}).count, 0u);
  const std::vector<double> one{5.0};
  const SampleSummary s = summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
}

TEST(Stats, EmpiricalQuantileEndpointsAndMiddle) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(empirical_quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(empirical_quantile(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(empirical_quantile(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(empirical_quantile(v, 0.25), 20.0);
}

TEST(Stats, EmpiricalQuantileUnsortedInput) {
  const std::vector<double> v{50.0, 10.0, 40.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(empirical_quantile(v, 0.5), 30.0);
  // Even length: the midpoint interpolates between the two middle values.
  EXPECT_DOUBLE_EQ(
      empirical_quantile(std::vector<double>{4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
}

TEST(Stats, QuantileMonotoneInQ) {
  Rng rng(17);
  std::vector<double> v;
  for (int i = 0; i < 200; ++i) v.push_back(rng.next_double() * 1000);
  double prev = empirical_quantile(v, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = empirical_quantile(v, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(Stats, EmpiricalExceedance) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(empirical_exceedance(v, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(empirical_exceedance(v, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(empirical_exceedance(v, 4.0), 0.0);
}

// ---- json_doc hostile inputs ----------------------------------------------

std::string nested_arrays(int depth) {
  return std::string(depth, '[') + "1" + std::string(depth, ']');
}

TEST(JsonDoc, RejectsNestingBeyondTheDepthLimit) {
  try {
    parse_json(nested_arrays(300), "<deep>");
    FAIL() << "300-deep nesting unexpectedly parsed";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
}

TEST(JsonDoc, AcceptsDeepButBoundedNesting) {
  const Json doc = parse_json(nested_arrays(200), "<deep-ok>");
  const Json* cursor = &doc;
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(cursor->type, Json::Type::kArray);
    ASSERT_EQ(cursor->array.size(), 1u);
    cursor = &cursor->array[0];
  }
  EXPECT_EQ(cursor->integer, 1u);
}

TEST(JsonDoc, RejectsLoneSurrogates) {
  // A high surrogate with no low half, and a bare low surrogate: both are
  // ill-formed UTF-16 escapes, not encodable code points.
  EXPECT_THROW(parse_json("\"\\ud800\"", "<surrogate>"), JsonParseError);
  EXPECT_THROW(parse_json("\"\\udc00\"", "<surrogate>"), JsonParseError);
  // A proper pair still decodes.
  const Json ok = parse_json("\"\\ud83d\\ude00\"", "<pair>");
  EXPECT_EQ(ok.string, "\xF0\x9F\x98\x80");
}

TEST(JsonDoc, RejectsNumbersOverflowingADouble) {
  try {
    parse_json("1e999", "<overflow>");
    FAIL() << "1e999 unexpectedly parsed";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos);
  }
  // Underflow-to-zero is representable, not an error.
  EXPECT_DOUBLE_EQ(parse_json("1e-999", "<underflow>").number, 0.0);
}

TEST(JsonDoc, RejectsTrailingBytesAfterTheDocument) {
  EXPECT_THROW(parse_json("{} x", "<trailing>"), JsonParseError);
  EXPECT_THROW(parse_json("1 2", "<trailing>"), JsonParseError);
}

TEST(Table, AlignsColumnsAndCounts) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string s = t.to_string();
  // Header + separator + 2 rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  EXPECT_NE(s.find("long-name"), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_double(2.0, 3), "2.000");
  EXPECT_EQ(fmt_prob(1e-15), "1.0e-15");
}

}  // namespace
}  // namespace pwcet
