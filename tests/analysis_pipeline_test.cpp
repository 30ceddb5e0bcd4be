// Tests for the domain-pluggable pipeline (src/analysis/): the store-key
// compatibility contract — the refactored key chain is pinned against hex
// values captured from the pre-pipeline analyzers, so memo entries and
// disk artifacts written before the refactor keep resolving after it —
// and N-domain composition: a synthetic third CacheDomain registered here
// composes with the two shipped plugins and stays byte-identical at any
// thread count, store on/off, cold or warm.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "engine/thread_pool.hpp"
#include "store/analysis_store.hpp"
#include "store/artifact_store.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

namespace fs = std::filesystem;

CacheConfig small_dcache() {
  CacheConfig dc = CacheConfig::paper_default();
  dc.sets = 8;
  dc.ways = 2;
  return dc;
}

/// The combined I+D composition: the paper-default icache and the 8x2
/// dcache above.
std::vector<std::shared_ptr<const CacheDomain>> i_d_domains() {
  return {std::make_shared<const IcacheDomain>(CacheConfig::paper_default()),
          std::make_shared<const DcacheDomain>(small_dcache())};
}

// ---- pre-refactor golden keys ----------------------------------------------

// Hex values captured from the pre-pipeline single-cache and combined I+D
// analyzers on this exact input (fibcall, the paper-default
// icache, the 8x2 dcache above). If one of these fails, the refactored
// key chain drifted from the historical recipes and every store written
// before the change silently turns into misses — revert the drift (or,
// for an *intentional* semantic change, bump the recipe version tags and
// ArtifactStore::kFormatVersion, then re-pin).
TEST(PipelineGoldenKeys, CoreKeysMatchPreRefactorValues) {
  const Program p = workloads::build("fibcall");
  const CacheConfig ic = CacheConfig::paper_default();

  EXPECT_EQ(pwcet_core_key(p, ic, WcetEngine::kIlp).hex(),
            "cc02c7097bbec7aac3765c1f0b70271e");
  EXPECT_EQ(pwcet_core_key(p, ic, WcetEngine::kTree).hex(),
            "e7bdbda527acf914ba3e580b6a9cee7a");

  // The core keys of the two shipped compositions must reproduce the
  // historical recipes.
  const PwcetPipeline single(p, {std::make_shared<const IcacheDomain>(ic)});
  EXPECT_EQ(single.core_key().hex(), "cc02c7097bbec7aac3765c1f0b70271e");
  const PwcetPipeline combined(p, i_d_domains());
  EXPECT_EQ(combined.core_key().hex(), "9fb50b765ec8ffff8199eff92bcfb640");

  // Row-prefix sub-domains: the icache domain shares the single-cache
  // core recipe (so both analyzer flavours share memoized rows); the
  // dcache domain owns a distinct prefix (a data reference map must never
  // alias an instruction one).
  EXPECT_EQ(IcacheDomain(ic).row_key_prefix(p, WcetEngine::kIlp),
            pwcet_core_key(p, ic, WcetEngine::kIlp));
  EXPECT_EQ(DcacheDomain(small_dcache())
                .row_key_prefix(p, WcetEngine::kIlp)
                .hex(),
            "7b8a4afc2cfa84fd06e74c06e57244f1");

  // Per-set penalty layer: content-addressed on (miss penalty, pwf, FMM
  // row) — the recipe the penalty builder keys the memo with.
  EXPECT_EQ(KeyHasher("set-penalty-v1")
                .mix_i64(10)
                .mix_doubles({0.5, 0.25, 0.25})
                .mix_doubles({0.0, 2.0, 5.0})
                .finish()
                .hex(),
            "160e51255b1fffc3311d0ddc4463cf24");
}

TEST(PipelineGoldenKeys, ResultArtifactsLandOnPreRefactorKeys) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("pwcet_pipeline_keys_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);

  const Program p = workloads::build("fibcall");
  StoreOptions disk_options;
  disk_options.artifact_dir = dir;
  AnalysisStore store(disk_options);
  PwcetOptions options;
  options.store = &store;
  const FaultModel faults(1e-4);

  // The per-result disk artifacts are addressed by the live result keys;
  // their file names therefore pin the exact key bytes analyze() chains
  // (core key x mechanisms x pfail x coalescing budget).
  const PwcetPipeline single(
      p,
      {std::make_shared<const IcacheDomain>(CacheConfig::paper_default())},
      options);
  single.analyze(faults, Mechanism::kSharedReliableBuffer);
  EXPECT_TRUE(fs::exists(
      fs::path(dir) / "distribution" /
      "8942d3694dac48474a8407b5414c1cb9.jsonl"));

  const PwcetPipeline combined(p, i_d_domains(), options);
  combined.analyze(faults, {Mechanism::kReliableWay,
                            Mechanism::kSharedReliableBuffer});
  EXPECT_TRUE(fs::exists(
      fs::path(dir) / "distribution" /
      "7e58309b965fdef2b11b38445e742623.jsonl"));

  fs::remove_all(dir);
}

TEST(PipelineGoldenKeys, NumericResultsMatchPreRefactorValues) {
  const Program p = workloads::build("fibcall");
  const FaultModel faults(1e-4);

  const PwcetPipeline single(
      p, {std::make_shared<const IcacheDomain>(CacheConfig::paper_default())});
  EXPECT_EQ(single.fault_free_wcet(), 8188u);
  EXPECT_EQ(
      single.analyze(faults, Mechanism::kSharedReliableBuffer).pwcet(1e-15),
      14088u);

  const PwcetPipeline combined(p, i_d_domains());
  EXPECT_EQ(combined.fault_free_wcet(), 8188u);
  EXPECT_EQ(combined
                .analyze(faults, {Mechanism::kReliableWay,
                                  Mechanism::kSharedReliableBuffer})
                .pwcet(1e-15),
            8188u);
}

// ---- synthetic third domain -------------------------------------------------

/// A TLB-like third cache domain: the instruction-fetch stream analyzed
/// against its own tiny geometry. Contributes nothing to the fault-free
/// time model (its hits are free by construction) but its faulty-way
/// penalty convolves into the combined distribution — a minimal but
/// complete plugin (~40 lines), exactly what a shared-L2 / scratchpad /
/// per-core-split scenario would add.
class TlbDomain final : public CacheDomain {
 public:
  TlbDomain() {
    config_.sets = 4;
    config_.ways = 2;
    config_.line_bytes = 32;
    config_.hit_latency = 0;
    config_.miss_penalty = 7;
    config_.validate();
  }

  std::string_view name() const override { return "test-tlb"; }
  const CacheConfig& config() const override { return config_; }
  bool standalone() const override { return false; }

  // A synthetic domain must separate its store sub-domains itself: its
  // reference semantics differ from the shipped domains', so neither its
  // core-key contribution nor its row prefix may alias theirs.
  void mix_core_key(KeyHasher& hasher) const override {
    hasher.mix_string("test-tlb-v1");
    hasher.mix_key(hash_cache_config(config_));
  }
  StoreKey row_key_prefix(const Program& program,
                          WcetEngine engine) const override {
    return KeyHasher("test-tlb-rows-v1")
        .mix_key(hash_program(program))
        .mix_key(hash_cache_config(config_))
        .mix_u64(static_cast<std::uint64_t>(engine))
        .finish();
  }

  ReferenceMap extract(const Program& program) const override {
    return extract_references(program.cfg(), config_);
  }
  CostModel time_cost_model(const Program& program, const ReferenceMap&,
                            const ClassificationMap&) const override {
    return CostModel::zero(program.cfg());
  }

 private:
  CacheConfig config_;
};

std::vector<std::shared_ptr<const CacheDomain>> three_domains() {
  auto domains = i_d_domains();
  domains.push_back(std::make_shared<const TlbDomain>());
  return domains;
}

// One distinct mechanism per domain; the TLB runs unprotected so its
// catastrophic fully-faulty column contributes a visible penalty tail.
const std::vector<Mechanism> kMixedMechanisms = {
    Mechanism::kSharedReliableBuffer, Mechanism::kReliableWay,
    Mechanism::kNone};

TEST(ThirdDomain, ComposesWithTheShippedTwo) {
  const Program p = workloads::build("fibcall");
  const FaultModel faults(1e-3);

  const PwcetPipeline three(p, three_domains());
  const PwcetPipeline two(p, i_d_domains());

  // The TLB charges no fault-free cycles, so the single summed
  // maximization reproduces the two-domain WCET...
  EXPECT_EQ(three.fault_free_wcet(), two.fault_free_wcet());
  // ...but its core key must not collide with the two-domain composition,
  EXPECT_NE(three.core_key(), two.core_key());
  // ...and its faulty behaviour convolves into the penalty tail.
  const PwcetResult with_tlb = three.analyze(faults, kMixedMechanisms);
  const PwcetResult without =
      two.analyze(faults, {kMixedMechanisms[0], kMixedMechanisms[1]});
  EXPECT_GT(with_tlb.penalty.max_value(), without.penalty.max_value());
  EXPECT_GE(with_tlb.pwcet(1e-15), without.pwcet(1e-15));
  EXPECT_NEAR(with_tlb.penalty.total_mass(), 1.0, 1e-9);
}

TEST(ThirdDomain, ByteIdenticalAtAnyThreadCountStoreOnOffColdWarm) {
  const Program p = workloads::build("fibcall");
  const FaultModel faults(1e-3);
  const auto domains = three_domains();

  // Baseline: serial, no store.
  const PwcetPipeline baseline(p, domains);
  const PwcetResult base = baseline.analyze(faults, kMixedMechanisms);

  // N threads (oversubscription on narrow hosts is harmless — the
  // convolution tree and set partitioning are fixed-shape).
  ThreadPool pool(3);
  PwcetOptions pooled_options;
  pooled_options.pool = &pool;
  const PwcetPipeline pooled(p, domains, pooled_options);
  const PwcetResult wide = pooled.analyze(faults, kMixedMechanisms);
  EXPECT_EQ(base.fault_free_wcet, wide.fault_free_wcet);
  EXPECT_EQ(base.penalty, wide.penalty);

  // Store on: cold compute, then a warm pipeline whose core and result
  // come entirely from the memo.
  AnalysisStore store;
  PwcetOptions stored_options;
  stored_options.store = &store;
  const PwcetPipeline cold(p, domains, stored_options);
  const PwcetResult cold_result = cold.analyze(faults, kMixedMechanisms);
  const PwcetPipeline warm(p, domains, stored_options);
  const PwcetResult warm_result = warm.analyze(faults, kMixedMechanisms);
  EXPECT_EQ(base.penalty, cold_result.penalty);
  EXPECT_EQ(base.penalty, warm_result.penalty);
  EXPECT_GT(store.stats().hits, 0u);

  // Disk tier: two stores with fresh memos sharing one artifact
  // directory simulate separate processes; the second run's penalty is
  // answered from the persisted artifact, byte-identically.
  const std::string dir =
      (fs::temp_directory_path() /
       ("pwcet_pipeline_disk_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  StoreOptions disk_options;
  disk_options.artifact_dir = dir;
  {
    AnalysisStore run1(disk_options), run2(disk_options);
    PwcetOptions opt1, opt2;
    opt1.store = &run1;
    opt2.store = &run2;
    const PwcetResult first =
        PwcetPipeline(p, domains, opt1).analyze(faults, kMixedMechanisms);
    const PwcetResult second =
        PwcetPipeline(p, domains, opt2).analyze(faults, kMixedMechanisms);
    EXPECT_EQ(base.penalty, first.penalty);
    EXPECT_EQ(base.penalty, second.penalty);
    EXPECT_GT(run2.stats().disk_hits, 0u);
  }
  fs::remove_all(dir);
}

TEST(ThirdDomain, UniformMechanismOverloadAppliesToEveryDomain) {
  const Program p = workloads::build("fibcall");
  const FaultModel faults(1e-3);
  const PwcetPipeline three(p, three_domains());
  const PwcetResult uniform = three.analyze(faults, Mechanism::kReliableWay);
  const PwcetResult explicit_vector = three.analyze(
      faults, {Mechanism::kReliableWay, Mechanism::kReliableWay,
               Mechanism::kReliableWay});
  EXPECT_EQ(uniform.penalty, explicit_vector.penalty);
  EXPECT_EQ(uniform.fault_free_wcet, explicit_vector.fault_free_wcet);
}

TEST(ThirdDomain, SecondaryDomainsCannotLeadAPipeline) {
  const Program p = workloads::build("fibcall");
  EXPECT_DEATH(
      PwcetPipeline(p, {std::make_shared<const DcacheDomain>(small_dcache())}),
      "standalone");
}

// ---- the shared re-weighting bundle ----------------------------------------

// The pfail ladder and mechanism set of specs/pfail_sweep.json — the grid
// the bundle exists for.
const std::vector<Probability> kSweepPfails = {6.1e-13, 1e-9, 1e-7, 1e-6,
                                               1e-5,    1e-4, 1e-3};
const std::vector<Mechanism> kAllMechanisms = {
    Mechanism::kNone, Mechanism::kSharedReliableBuffer,
    Mechanism::kReliableWay};

TEST(Reweight, SweptCellsAreByteIdenticalToFreshPipelines) {
  // Property: analyzing N pfail points through ONE pipeline instance —
  // where every point after the first re-weights the cached bundle — is
  // byte-identical to a fresh pipeline per point (which builds its bundle
  // from scratch). Swept across the shipped pfail_sweep tasks, serial and
  // pooled, store off and on (cold + warm within the shared store).
  ThreadPool pool(3);
  for (const char* task : {"adpcm", "fibcall", "matmult", "crc", "fft",
                           "ud"}) {
    const Program p = workloads::build(task);
    const auto domains = std::vector<std::shared_ptr<const CacheDomain>>{
        std::make_shared<IcacheDomain>(CacheConfig::paper_default())};
    AnalysisStore store;
    PwcetOptions stored_options;
    stored_options.store = &store;
    PwcetOptions pooled_options;
    pooled_options.pool = &pool;
    const PwcetPipeline swept(p, domains);
    const PwcetPipeline swept_stored(p, domains, stored_options);
    const PwcetPipeline swept_pooled(p, domains, pooled_options);
    for (const Mechanism mechanism : kAllMechanisms) {
      for (const Probability pfail : kSweepPfails) {
        const FaultModel faults(pfail);
        const PwcetResult shared = swept.analyze(faults, mechanism);
        const PwcetResult fresh =
            PwcetPipeline(p, domains).analyze(faults, mechanism);
        ASSERT_EQ(shared.penalty, fresh.penalty) << task;
        ASSERT_EQ(shared.fault_free_wcet, fresh.fault_free_wcet) << task;
        ASSERT_EQ(swept_stored.analyze(faults, mechanism).penalty,
                  shared.penalty)
            << task;
        ASSERT_EQ(swept_pooled.analyze(faults, mechanism).penalty,
                  shared.penalty)
            << task;
      }
    }
    // Warm pass: every cell now memoized; must reproduce the same bytes.
    for (const Mechanism mechanism : kAllMechanisms)
      for (const Probability pfail : kSweepPfails)
        ASSERT_EQ(
            swept_stored.analyze(FaultModel(pfail), mechanism).penalty,
            swept.analyze(FaultModel(pfail), mechanism).penalty)
            << task;
  }
}

/// Reference for the re-weighted penalty builder: the from-scratch per-set
/// composition of paper Fig. 1.b. Every cache set gets its own
/// distribution read straight off the raw FMM — one atom per fault count,
/// value miss_penalty * ceil(FMM[s][f]), probability pwf[f] — and the
/// per-set list is combined with the pairwise tree. Identity ids make
/// convolve_all_tree_shared the plain (non-deduplicating) tree over that
/// list; tree_convolve_test pins it against an expanded-leaf reference.
DiscreteDistribution from_scratch_penalty(const FaultMissMap& fmm,
                                          const CacheConfig& config,
                                          const std::vector<Probability>& pwf,
                                          std::size_t max_points) {
  std::vector<DiscreteDistribution> per_set;
  per_set.reserve(config.sets);
  for (SetIndex s = 0; s < config.sets; ++s) {
    std::vector<ProbabilityAtom> atoms;
    for (std::size_t f = 0; f < pwf.size(); ++f) {
      const double misses = fmm.at(s, static_cast<std::uint32_t>(f));
      atoms.push_back({static_cast<Cycles>(
                           std::ceil(misses - 1e-6) *
                           static_cast<double>(config.miss_penalty)),
                       pwf[f]});
    }
    per_set.push_back(DiscreteDistribution::from_atoms(std::move(atoms)));
  }
  std::vector<std::uint32_t> ids(per_set.size());
  std::iota(ids.begin(), ids.end(), 0u);
  return convolve_all_tree_shared(per_set, ids, max_points);
}

TEST(Reweight, MatchesTheFromScratchPenaltyComposition) {
  // analyze() and the exported build_penalty_distribution both re-weight a
  // scaffold of the *distinct* FMM rows; bit-equality with the per-set
  // reference proves the row dedup and the shared tree change nothing.
  // Both tasks share rows across sets (fibcall's 16 icache sets have 4
  // distinct rows, adpcm's 6; neither loads data, so all 8 dcache sets
  // share one), so the dedup is exercised; the I+D pipeline covers a
  // second geometry and the cross-domain fold.
  for (const char* task : {"fibcall", "adpcm"}) {
    const Program p = workloads::build(task);
    const PwcetPipeline single(
        p, {std::make_shared<IcacheDomain>(CacheConfig::paper_default())});
    const PwcetPipeline combined(p, i_d_domains());
    for (const Mechanism mechanism : kAllMechanisms) {
      for (const Probability pfail : kSweepPfails) {
        const FaultModel faults(pfail);
        auto reference = [&](const PwcetPipeline& pipeline, std::size_t d) {
          const CacheDomain& domain = pipeline.domain(d);
          return from_scratch_penalty(pipeline.fmm(d).of(mechanism),
                                      domain.config(),
                                      domain.pwf(faults, mechanism), 2048);
        };
        ASSERT_EQ(single.analyze(faults, mechanism).penalty,
                  reference(single, 0))
            << task;
        ASSERT_EQ(combined.analyze(faults, mechanism).penalty,
                  reference(combined, 0)
                      .convolve(reference(combined, 1))
                      .coalesce_up(2048))
            << task;
        for (std::size_t d = 0; d < combined.domain_count(); ++d) {
          const CacheDomain& domain = combined.domain(d);
          ASSERT_EQ(build_penalty_distribution(
                        combined.fmm(d).of(mechanism), domain.config(),
                        domain.pwf(faults, mechanism), 2048, nullptr,
                        nullptr),
                    reference(combined, d))
              << task << " domain " << d;
        }
      }
    }
  }
}

TEST(Reweight, MultiDomainSweepMatchesFreshPipelines) {
  // The bundle carries one scaffold per domain; the cross-domain fold
  // must stay byte-identical under re-weighting too.
  const Program p = workloads::build("fibcall");
  const auto domains = std::vector<std::shared_ptr<const CacheDomain>>{
      std::make_shared<IcacheDomain>(CacheConfig::paper_default()),
      std::make_shared<DcacheDomain>(small_dcache())};
  const PwcetPipeline swept(p, domains);
  for (const Probability pfail : kSweepPfails) {
    const FaultModel faults(pfail);
    const PwcetResult shared = swept.analyze(faults, kMixedMechanisms[0]);
    const PwcetResult fresh =
        PwcetPipeline(p, domains).analyze(faults, kMixedMechanisms[0]);
    ASSERT_EQ(shared.penalty, fresh.penalty);
  }
}

}  // namespace
}  // namespace pwcet
