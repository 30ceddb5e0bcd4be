/// \file
/// Traced in-process replay of one campaign spec — the per-layer half of
/// the repository benchmark (see perfbench/README.md).
///
/// The program under test is not modified: spans are recorded here, around
/// calls into the public API of each src/ module. Cache-domain calls made
/// inside the PwcetPipeline constructor are reached by handing the
/// pipeline a forwarding CacheDomain that records a span around the
/// wrapped domain's extract / classify / fmm_bundle.
///
/// Usage:
///   perfbench_trace --spec FILE --threads N --out DIR
///                   [--cache-dir DIR] [--prefilled DIR]
///
/// Steps, in order:
///   1. load_spec + expand_campaign                    (engine.spec_load)
///   2. run_campaign with N workers and the in-memory store, plus the
///      artifact tier in --cache-dir when given        (engine.run_campaign)
///   3. report_csv, report_jsonl, write_report_files   (engine.report)
///   4. with --prefilled: load_distribution of every persisted distribution
///      and store_distribution into a scratch cache    (store.artifact_*)
///   5. a store-less, pool-less replay of every job in the runner's group
///      schedule, run three times: span recording off, on, off. The traced
///      wall over the mean untraced wall is the tracing overhead.
///
/// Writes into --out: metrics.json (per-layer self times and counts),
/// spans.jsonl (every recorded span), replay.jsonl (the replayed pwcet /
/// observed_max of every job, for comparison with the CLI report) and
/// report.{csv,jsonl} (the in-process campaign report).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/l2_domain.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/tlb_domain.hpp"
#include "analysis/writeback_dcache_domain.hpp"
#include "engine/campaign.hpp"
#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "engine/shard.hpp"
#include "engine/spec_io.hpp"
#include "fault/fault_map.hpp"
#include "mbpta/evt.hpp"
#include "mbpta/mbpta.hpp"
#include "sim/cache_sim.hpp"
#include "sim/path.hpp"
#include "store/artifact_store.hpp"
#include "support/rng.hpp"
#include "workloads/malardalen.hpp"

namespace fs = std::filesystem;
using namespace pwcet;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// In-memory span log of one thread: (name, start, end, parent, job).
/// Names are string literals, so the log stores views.
class SpanLog {
 public:
  struct Span {
    std::string_view name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
    std::int64_t job = -1;
  };

  bool enabled = true;

  std::int64_t open(std::string_view name, std::int64_t job) {
    if (!enabled) return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    if (job < 0 && parent >= 0) job = spans_[std::size_t(parent)].job;
    spans_.push_back(Span{name, now_ns(), 0, parent, job});
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(std::int64_t id) {
    if (id < 0) return;
    spans_[std::size_t(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the durations of
  /// its direct children (spans nest strictly on one thread).
  std::map<std::string_view, double> self_ms() const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[std::size_t(s.parent)] += s.end_ns - s.start_ns;
    std::map<std::string_view, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                              child_ns[i]) /
          1e6;
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

class Scoped {
 public:
  Scoped(SpanLog& log, std::string_view name, std::int64_t job = -1)
      : log_(log), id_(log.open(name, job)) {}
  ~Scoped() { log_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::int64_t id_;
};

/// Work counts recorded at the same boundaries as the spans.
struct Counts {
  std::uint64_t programs = 0;
  std::uint64_t refs = 0;
  std::uint64_t fmm_rows = 0;
  std::uint64_t analyze_calls = 0;
  std::uint64_t pair_products = 0;
  std::uint64_t points_out = 0;
  std::uint64_t fetches = 0;
  std::uint64_t penalty_mismatches = 0;
  std::uint64_t mbpta_mismatches = 0;
};

/// Forwards every CacheDomain call to `inner` and records a span around
/// the three the pipeline constructor spends its time in.
class TracedDomain final : public CacheDomain {
 public:
  TracedDomain(std::shared_ptr<const CacheDomain> inner, SpanLog& log,
               Counts& counts)
      : inner_(std::move(inner)), log_(&log), counts_(&counts) {}

  std::string_view name() const override { return inner_->name(); }
  const CacheConfig& config() const override { return inner_->config(); }
  bool standalone() const override { return inner_->standalone(); }
  void mix_core_key(KeyHasher& hasher) const override {
    inner_->mix_core_key(hasher);
  }
  StoreKey row_key_prefix(const Program& program,
                          WcetEngine engine) const override {
    return inner_->row_key_prefix(program, engine);
  }

  ReferenceMap extract(const Program& program) const override {
    Scoped span(*log_, "domain.extract");
    ReferenceMap refs = inner_->extract(program);
    for (const auto& block : refs) counts_->refs += block.size();
    return refs;
  }

  ClassificationMap classify(const Program& program,
                             const ReferenceMap& refs) const override {
    Scoped span(*log_, "domain.classify");
    return inner_->classify(program, refs);
  }

  CostModel time_cost_model(const Program& program, const ReferenceMap& refs,
                            const ClassificationMap& cls) const override {
    return inner_->time_cost_model(program, refs, cls);
  }

  FmmBundle fmm_bundle(const Program& program, const ReferenceMap& refs,
                       WcetEngine engine, IpetCalculator* ipet,
                       ThreadPool* pool, AnalysisStore* store,
                       const StoreKey* row_prefix) const override {
    Scoped span(*log_, "wcet.fmm");
    FmmBundle bundle =
        inner_->fmm_bundle(program, refs, engine, ipet, pool, store, row_prefix);
    counts_->fmm_rows += bundle.none.misses.size() + bundle.rw.misses.size() +
                         bundle.srb.misses.size();
    return bundle;
  }

  std::vector<Probability> pwf(const FaultModel& faults,
                               Mechanism mechanism) const override {
    return inner_->pwf(faults, mechanism);
  }

 private:
  std::shared_ptr<const CacheDomain> inner_;
  SpanLog* log_;
  Counts* counts_;
};

/// The runner's domain composition for a cell: the instruction cache, then
/// the data cache, the TLB and the shared L2. The two legacy facades
/// (PwcetAnalyzer, CombinedPwcetAnalyzer) are the same pipeline over the
/// first one or two of these domains. engine/runner.cpp keeps its copy
/// private; a drift between the two fails the replay-equality check.
std::vector<std::shared_ptr<const CacheDomain>> job_domains(
    const CampaignJob& job) {
  std::vector<std::shared_ptr<const CacheDomain>> domains;
  domains.push_back(std::make_shared<IcacheDomain>(job.geometry));
  if (job.dcache.enabled) {
    if (job.dcache.policy == WritePolicy::kWriteBack)
      domains.push_back(std::make_shared<WritebackDcacheDomain>(
          job.dcache.geometry, job.dcache.writeback_penalty));
    else
      domains.push_back(std::make_shared<DcacheDomain>(job.dcache.geometry));
  }
  if (job.tlb.enabled)
    domains.push_back(std::make_shared<TlbDomain>(job.tlb.geometry()));
  if (job.l2.enabled)
    domains.push_back(std::make_shared<L2Domain>(job.l2.geometry));
  return domains;
}

std::vector<Mechanism> job_mechanisms(const CampaignJob& job) {
  std::vector<Mechanism> mechanisms{job.mechanism};
  if (job.dcache.enabled) mechanisms.push_back(job.resolved_dmech());
  if (job.tlb.enabled) mechanisms.push_back(job.mechanism);
  if (job.l2.enabled) mechanisms.push_back(job.mechanism);
  return mechanisms;
}

struct Replayed {
  double pwcet = 0.0;
  double observed_max = 0.0;
};

void replay_spta(const CampaignSpec& spec, const CampaignJob& job,
                 const PwcetPipeline& pipeline, SpanLog& log, Counts& counts,
                 Replayed& out) {
  const FaultModel faults(job.pfail);
  const std::vector<Mechanism> mechanisms = job_mechanisms(job);
  std::optional<PwcetResult> result;
  {
    Scoped span(log, "analysis.analyze");
    result.emplace(pipeline.analyze(faults, mechanisms));
  }
  ++counts.analyze_calls;
  out.pwcet = static_cast<double>(result->pwcet(spec.target_exceedance));

  // The per-domain penalty build and the cross-domain fold, called
  // directly (store-less, pool-less): the from-scratch counterpart of what
  // analyze() computes, which must reproduce its penalty bit for bit.
  DiscreteDistribution penalty;
  for (std::size_t i = 0; i < pipeline.domain_count(); ++i) {
    std::optional<DiscreteDistribution> domain_penalty;
    {
      Scoped span(log, "analysis.penalty");
      const CacheDomain& domain = pipeline.domain(i);
      domain_penalty.emplace(build_penalty_distribution(
          pipeline.fmm(i).of(mechanisms[i]), domain.config(),
          domain.pwf(faults, mechanisms[i]), spec.max_distribution_points,
          nullptr, nullptr));
    }
    if (i == 0) {
      penalty = *std::move(domain_penalty);
      continue;
    }
    std::optional<DiscreteDistribution> sum;
    {
      Scoped span(log, "prob.convolve");
      sum.emplace(penalty.convolve(*domain_penalty));
    }
    counts.pair_products +=
        std::uint64_t(penalty.size()) * std::uint64_t(domain_penalty->size());
    {
      Scoped span(log, "prob.coalesce");
      penalty = sum->coalesce_up(spec.max_distribution_points);
    }
    counts.points_out += penalty.size();
  }
  if (!(penalty == result->penalty)) ++counts.penalty_mismatches;
}

void replay_mbpta(const CampaignSpec& spec, const CampaignJob& job,
                  const Program& program, SpanLog& log, Counts& counts,
                  Replayed& out) {
  MbptaOptions options = spec.mbpta;
  options.seed = job.seed;
  if (job.samples != 0) options.chips = job.samples;
  const FaultModel faults(job.pfail);
  std::optional<MbptaResult> result;
  {
    Scoped span(log, "mbpta.run");
    result.emplace(
        run_mbpta(program, job.geometry, faults, job.mechanism, options));
  }
  out.pwcet = result->pwcet(spec.target_exceedance);
  out.observed_max = result->observed_max;

  // run_mbpta's protocol, one public call at a time, so that fault-map
  // sampling, cache simulation and the EVT fit get their own spans.
  std::vector<Address> trace;
  {
    Scoped span(log, "sim.path");
    trace = fetch_trace(program.cfg(), heavy_walk(program));
  }
  const Probability pbf = faults.block_failure_probability(job.geometry);
  Rng rng(options.seed);
  std::vector<double> times;
  times.reserve(options.chips);
  for (std::size_t chip = 0; chip < options.chips; ++chip) {
    std::optional<FaultMap> map;
    {
      Scoped span(log, "fault.sample");
      map.emplace(FaultMap::sample(job.geometry, pbf, rng));
    }
    Scoped span(log, "sim.simulate");
    const SimStats stats =
        simulate_trace(job.geometry, *map, job.mechanism, trace);
    counts.fetches += stats.fetches;
    times.push_back(static_cast<double>(stats.cycles));
  }
  GumbelFit fit;
  {
    Scoped span(log, "mbpta.evt_fit");
    fit = fit_gumbel_mle(block_maxima(times, options.block_size));
  }
  if (*std::max_element(times.begin(), times.end()) != result->observed_max ||
      fit.quantile_exceedance(spec.target_exceedance) != out.pwcet)
    ++counts.mbpta_mismatches;
}

/// One pass over every job, in the runner's group schedule: one workload
/// build and one pipeline per analyzer group.
std::vector<Replayed> replay(const CampaignSpec& spec,
                             const std::vector<CampaignJob>& jobs,
                             SpanLog& log, Counts& counts) {
  std::vector<Replayed> values(jobs.size());
  for (const std::vector<std::size_t>& group : campaign_group_schedule(jobs)) {
    const CampaignJob& first = jobs[group.front()];
    std::optional<Program> program;
    {
      Scoped span(log, "workloads.build", std::int64_t(first.index));
      program.emplace(workloads::build(first.task));
    }
    ++counts.programs;
    std::optional<PwcetPipeline> pipeline;
    for (const std::size_t index : group) {
      const CampaignJob& job = jobs[index];
      Scoped job_span(log, "replay.job", std::int64_t(index));
      switch (job.kind) {
        case AnalysisKind::kSpta:
          if (!pipeline) {
            std::vector<std::shared_ptr<const CacheDomain>> domains;
            for (auto& domain : job_domains(job))
              domains.push_back(
                  std::make_shared<TracedDomain>(domain, log, counts));
            PwcetOptions options;
            options.engine = job.engine;
            options.max_distribution_points = spec.max_distribution_points;
            Scoped span(log, "analysis.core");
            pipeline.emplace(*program, std::move(domains), options);
          }
          replay_spta(spec, job, *pipeline, log, counts, values[index]);
          break;
        case AnalysisKind::kMbpta:
          replay_mbpta(spec, job, *program, log, counts, values[index]);
          break;
        default:
          throw std::runtime_error("perfbench_trace: job " + job.id() +
                                   ": only spta and mbpta jobs are replayed");
      }
    }
  }
  return values;
}

std::uint64_t file_size_or_zero(const fs::path& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string fmt_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

struct Args {
  std::string spec, out, cache_dir, prefilled;
  std::size_t threads = 1;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--spec") {
      args.spec = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--cache-dir") {
      args.cache_dir = value;
    } else if (flag == "--prefilled") {
      args.prefilled = value;
    } else if (flag == "--threads") {
      if (!parse_thread_count(value, args.threads))
        throw std::runtime_error("bad --threads " + value);
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (args.spec.empty() || args.out.empty())
    throw std::runtime_error(
        "usage: perfbench_trace --spec FILE --threads N --out DIR "
        "[--cache-dir DIR] [--prefilled DIR]");
  return args;
}

int run(const Args& args) {
  const fs::path out_dir(args.out);
  fs::create_directories(out_dir);
  SpanLog log;
  Counts counts;

  std::optional<SpecDocument> doc;
  std::vector<CampaignJob> jobs;
  {
    Scoped span(log, "engine.spec_load");
    doc.emplace(load_spec(args.spec));
    jobs = expand_campaign(doc->spec);
  }
  const CampaignSpec& spec = doc->spec;

  RunnerOptions runner;
  runner.threads = args.threads;
  runner.store.artifact_dir = args.cache_dir;
  std::optional<CampaignResult> campaign;
  {
    Scoped span(log, "engine.run_campaign");
    campaign.emplace(run_campaign(spec, runner));
  }
  std::uint64_t report_bytes = 0;
  {
    Scoped span(log, "engine.report");
    report_bytes = report_csv(*campaign).size() + report_jsonl(*campaign).size();
    if (!write_report_files(*campaign, (out_dir / "report").string()))
      throw std::runtime_error("cannot write the in-process report");
  }
  const StoreStats& store = campaign->store_stats;

  // The artifact tier over the prefilled cache: every persisted
  // distribution is loaded, then stored again into a scratch directory.
  std::uint64_t artifact_bytes = 0, artifact_failures = 0;
  if (!args.prefilled.empty()) {
    const ArtifactStore source(ArtifactStore::Options{args.prefilled});
    const ArtifactStore sink(
        ArtifactStore::Options{(out_dir / "artifacts").string()});
    std::vector<fs::path> files;
    for (const auto& entry :
         fs::directory_iterator(fs::path(args.prefilled) / "distribution"))
      files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      StoreKey key;
      if (!store_key_from_hex(file.stem().string(), key)) continue;
      std::optional<DiscreteDistribution> distribution;
      {
        Scoped span(log, "store.artifact_load");
        distribution = source.load_distribution(key);
      }
      if (!distribution) {
        ++artifact_failures;
        continue;
      }
      bool stored = false;
      {
        Scoped span(log, "store.artifact_store");
        stored = sink.store_distribution(key, *distribution);
      }
      if (!stored) ++artifact_failures;
      artifact_bytes += file_size_or_zero(out_dir / "artifacts" /
                                          "distribution" /
                                          (key.hex() + ".jsonl"));
    }
  }

  // Replay: untraced, traced, untraced again — the traced pass sits
  // between the two untraced ones, so drift over the three cancels out of
  // the overhead ratio. Only the traced pass's spans and counts are kept.
  auto untraced_pass_ms = [&] {
    log.enabled = false;
    Counts ignored;
    const std::uint64_t start = now_ns();
    replay(spec, jobs, log, ignored);
    return static_cast<double>(now_ns() - start) / 1e6;
  };
  double off_ms = untraced_pass_ms();
  log.enabled = true;
  const std::uint64_t on_start = now_ns();
  const std::vector<Replayed> values = replay(spec, jobs, log, counts);
  const double on_ms = static_cast<double>(now_ns() - on_start) / 1e6;
  off_ms = (off_ms + untraced_pass_ms()) / 2.0;

  std::string replay_lines;
  for (std::size_t i = 0; i < values.size(); ++i)
    replay_lines += "{\"index\":" + std::to_string(i) + ",\"kind\":\"" +
                    analysis_kind_name(jobs[i].kind) + "\",\"pwcet\":" +
                    fmt_double(values[i].pwcet) + ",\"observed_max\":" +
                    fmt_double(values[i].observed_max) + "}\n";
  write_text(out_dir / "replay.jsonl", replay_lines);

  std::string span_lines;
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%.*s\",\"job\":%" PRId64
                  ",\"parent\":%" PRId64 ",\"start_ns\":%" PRIu64
                  ",\"end_ns\":%" PRIu64 "}\n",
                  i, int(spans[i].name.size()), spans[i].name.data(),
                  spans[i].job, spans[i].parent, spans[i].start_ns,
                  spans[i].end_ns);
    span_lines += line;
  }
  write_text(out_dir / "spans.jsonl", span_lines);

  const std::map<std::string_view, double> self = log.self_ms();
  auto self_of = [&](std::string_view name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  auto rate = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses == 0 ? 0.0 : double(hits) / double(hits + misses);
  };
  const std::vector<std::pair<std::string, double>> metrics = {
      {"engine.spec_load_ms", self_of("engine.spec_load")},
      {"engine.run_campaign_ms", self_of("engine.run_campaign")},
      {"engine.report_ms", self_of("engine.report")},
      {"engine.report_bytes", double(report_bytes)},
      {"engine.jobs", double(jobs.size())},
      {"workloads.build_ms", self_of("workloads.build")},
      {"workloads.programs", double(counts.programs)},
      {"domain.extract_ms", self_of("domain.extract")},
      {"domain.classify_ms", self_of("domain.classify")},
      {"domain.refs", double(counts.refs)},
      {"wcet.fmm_ms", self_of("wcet.fmm")},
      {"wcet.fmm_rows", double(counts.fmm_rows)},
      {"analysis.core_ms", self_of("analysis.core")},
      {"analysis.analyze_ms", self_of("analysis.analyze")},
      {"analysis.analyze_calls", double(counts.analyze_calls)},
      {"analysis.penalty_ms", self_of("analysis.penalty")},
      {"prob.convolve_ms", self_of("prob.convolve")},
      {"prob.coalesce_ms", self_of("prob.coalesce")},
      {"prob.pair_products", double(counts.pair_products)},
      {"prob.points_out", double(counts.points_out)},
      {"store.memo_hits", double(store.hits)},
      {"store.memo_misses", double(store.misses)},
      {"store.memo_hit_rate", store.hit_rate()},
      {"store.disk_hits", double(store.disk_hits)},
      {"store.disk_misses", double(store.disk_misses)},
      {"store.disk_writes", double(store.disk_writes)},
      {"store.disk_hit_rate", rate(store.disk_hits, store.disk_misses)},
      {"store.artifact_load_ms", self_of("store.artifact_load")},
      {"store.artifact_store_ms", self_of("store.artifact_store")},
      {"store.artifact_bytes", double(artifact_bytes)},
      {"fault.sample_ms", self_of("fault.sample")},
      {"sim.path_ms", self_of("sim.path")},
      {"sim.simulate_ms", self_of("sim.simulate")},
      {"sim.fetches", double(counts.fetches)},
      {"mbpta.run_ms", self_of("mbpta.run")},
      {"mbpta.evt_fit_ms", self_of("mbpta.evt_fit")},
      {"trace.overhead_ratio", off_ms > 0.0 ? on_ms / off_ms : 0.0},
      {"replay.traced_ms", on_ms},
      {"replay.untraced_ms", off_ms},
      {"replay.penalty_mismatches", double(counts.penalty_mismatches)},
      {"replay.mbpta_mismatches", double(counts.mbpta_mismatches)},
      {"replay.artifact_failures", double(artifact_failures)},
  };
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json += (i ? ",\n \"" : "\"") + metrics[i].first +
            "\": " + fmt_double(metrics[i].second);
  json += "}\n";
  write_text(out_dir / "metrics.json", json);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_trace: %s\n", error.what());
    return 1;
  }
}
