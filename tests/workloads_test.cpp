// Sanity and structure tests over the 25 Mälardalen counterparts, plus the
// paper-level integration invariants of the Fig. 4 experiment.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "sim/path.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

TEST(Workloads, TwentyFiveBenchmarks) {
  const auto names = workloads::names();
  EXPECT_EQ(names.size(), 25u);  // paper §IV-A: 25 Mälardalen benchmarks
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  // The benchmarks the paper calls out by name are present.
  for (const char* required : {"adpcm", "matmult", "fft", "ud"})
    EXPECT_TRUE(unique.count(required)) << required;
}

TEST(Workloads, ExtensionKernelsBuildAndCarryDataLoads) {
  // The data-cache study kernels live outside the 25-benchmark suite (so
  // the paper-invariant averages above stay untouched) but must build and
  // actually exercise the data-reference path.
  for (const std::string& name : workloads::extension_names()) {
    const Program p = workloads::build(name);
    EXPECT_EQ(p.name(), name);
    p.cfg().validate();
    std::uint64_t loads = 0, stores = 0;
    for (const BasicBlock& b : p.cfg().blocks()) {
      loads += b.data_addresses.size();
      stores += b.store_addresses.size();
    }
    EXPECT_GT(loads, 0u) << name << " records no data loads";
    // ringbuf is the store-bearing kernel: the write-back d-cache and
    // TLB/L2 unified-stream paths need at least one task with stores.
    if (name == "ringbuf") {
      EXPECT_GT(stores, 0u) << name << " records no data stores";
    }
  }
  const auto all = workloads::all_names();
  EXPECT_EQ(all.size(), workloads::names().size() +
                            workloads::extension_names().size());
  const std::set<std::string> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());
}

class WorkloadShapeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadShapeTest, BuildsValidCfg) {
  const Program p = workloads::build(GetParam());
  EXPECT_EQ(p.name(), GetParam());
  p.cfg().validate();  // aborts on broken structure
  EXPECT_GT(p.cfg().block_count(), 0u);
  EXPECT_GT(p.cfg().total_instructions(), 0u);
}

TEST_P(WorkloadShapeTest, CodeSizeIsRealistic) {
  // Every benchmark carries runtime/startup code and a body; the paper's
  // cache is 1 KB, and the suite intentionally spans programs near and far
  // beyond that size.
  const Program p = workloads::build(GetParam());
  EXPECT_GE(p.code_size_bytes(), 512u);
  EXPECT_LE(p.code_size_bytes(), 64u * 1024u);
}

TEST_P(WorkloadShapeTest, TraceLengthIsBoundedForSimulation) {
  const Program p = workloads::build(GetParam());
  EXPECT_LT(heavy_walk_fetch_count(p), 2'000'000u);
}

TEST_P(WorkloadShapeTest, HasLoops) {
  const Program p = workloads::build(GetParam());
  EXPECT_FALSE(p.cfg().loops().empty());
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadShapeTest,
                         ::testing::ValuesIn(workloads::names()),
                         [](const auto& info) { return info.param; });

// Paper-level integration invariants at the Fig. 4 operating point
// (pfail = 1e-4, exceedance 1e-15).
class PaperInvariantsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperInvariantsTest, Figure4Orderings) {
  const Program p = workloads::build(GetParam());
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const PwcetPipeline a(
      p,
      {std::make_shared<const IcacheDomain>(CacheConfig::paper_default())},
      options);
  const FaultModel faults(1e-4);
  const auto none = a.analyze(faults, Mechanism::kNone);
  const auto rw = a.analyze(faults, Mechanism::kReliableWay);
  const auto srb = a.analyze(faults, Mechanism::kSharedReliableBuffer);
  const Cycles p_none = none.pwcet(1e-15);
  const Cycles p_rw = rw.pwcet(1e-15);
  const Cycles p_srb = srb.pwcet(1e-15);
  // fault-free <= RW <= SRB <= none (paper §IV-B: the RW gain is larger
  // than or equal to the SRB gain on every benchmark).
  EXPECT_LE(a.fault_free_wcet(), p_rw);
  EXPECT_LE(p_rw, p_srb);
  EXPECT_LE(p_srb, p_none);
  // Both mechanisms yield strictly positive gains on every benchmark
  // ("for all benchmarks ... significantly lower pWCETs", §IV-B).
  EXPECT_LT(p_rw, p_none);
  EXPECT_LT(p_srb, p_none);
}

INSTANTIATE_TEST_SUITE_P(All, PaperInvariantsTest,
                         ::testing::ValuesIn(workloads::names()),
                         [](const auto& info) { return info.param; });

TEST(PaperResults, AllFourCategoriesOccur) {
  // §IV-B groups the 25 benchmarks in four behaviour categories; the
  // reproduced suite must populate all of them.
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const FaultModel faults(1e-4);
  std::set<int> seen;
  for (const std::string& name : workloads::names()) {
    const Program p = workloads::build(name);
    const PwcetPipeline a(
        p,
        {std::make_shared<const IcacheDomain>(CacheConfig::paper_default())},
        options);
    const auto none = a.analyze(faults, Mechanism::kNone);
    const auto rw = a.analyze(faults, Mechanism::kReliableWay);
    const auto srb = a.analyze(faults, Mechanism::kSharedReliableBuffer);
    const double base = static_cast<double>(none.pwcet(1e-15));
    const double ff = a.fault_free_wcet() / base;
    const double nrw = rw.pwcet(1e-15) / base;
    const double nsrb = srb.pwcet(1e-15) / base;
    const double eps = 1e-9;
    if (nrw <= ff + eps && nsrb <= ff + eps)
      seen.insert(1);
    else if (nrw <= ff + eps)
      seen.insert(2);
    else if (std::abs(nrw - nsrb) <= 0.02)
      seen.insert(3);
    else
      seen.insert(4);
  }
  EXPECT_EQ(seen, (std::set<int>{1, 2, 3, 4}));
}

TEST(PaperResults, AverageGainsInPaperBallpark) {
  // Paper: average gain 48 % (RW) and 40 % (SRB). The workloads are
  // structural counterparts, so enforce a generous corridor around the
  // reported averages rather than exact values.
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const FaultModel faults(1e-4);
  double sum_rw = 0.0, sum_srb = 0.0;
  int n = 0;
  for (const std::string& name : workloads::names()) {
    const Program p = workloads::build(name);
    const PwcetPipeline a(
        p,
        {std::make_shared<const IcacheDomain>(CacheConfig::paper_default())},
        options);
    const double base =
        static_cast<double>(a.analyze(faults, Mechanism::kNone).pwcet(1e-15));
    sum_rw += 1.0 - a.analyze(faults, Mechanism::kReliableWay).pwcet(1e-15) /
                        base;
    sum_srb +=
        1.0 -
        a.analyze(faults, Mechanism::kSharedReliableBuffer).pwcet(1e-15) /
            base;
    ++n;
  }
  const double avg_rw = sum_rw / n;
  const double avg_srb = sum_srb / n;
  EXPECT_NEAR(avg_rw, 0.48, 0.10);   // paper: 48 %
  EXPECT_NEAR(avg_srb, 0.40, 0.10);  // paper: 40 %
  EXPECT_GE(avg_rw, avg_srb);        // RW gain is the larger on average
}

}  // namespace
}  // namespace pwcet
