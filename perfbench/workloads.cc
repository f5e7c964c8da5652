#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "checks.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/coverage.h"
#include "core/example.h"
#include "core/generator.h"
#include "core/set_cover.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "index/index_cache.h"
#include "join/join_engine.h"
#include "match/row_matcher.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "table/csv.h"
#include "trace.h"

namespace perfbench {
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using tj::serve::JsonValue;

namespace {

// Workload constants. Input sizes live in inputs.cc (ShapeFor).
constexpr int kSetupRepeats = 9;       // setup_s is the median of these
constexpr int kLearnSetupRepeats = 25; // learn-deep ingest takes ~1 ms
constexpr int kRepoScanThreads = 4;    // corpus_discovery_tool all-cores
constexpr int kServePoolThreads = 2;   // the daemon's shared pool
constexpr int kQueryClients = 3;       // closed-loop joinable clients
constexpr double kUpdatePeriodS = 0.5;
// The serve load runs in rounds; between rounds it pauses while the host's
// speed is probed. The first round is the warm-up.
constexpr double kRoundS = 2.5;
constexpr int kWarmupRounds = 1;
constexpr int kTracedLoadRounds = 1;
constexpr char kSocket[] = "tjd.sock";

/// The per-layer metrics, in BENCHMARK.json order. A traced run reports
/// each; a layer a workload never calls reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"table.ingest_ms", "ms"},         {"table.ingest_mb", "MB"},
    {"corpus.signature_ms", "ms"},     {"corpus.columns_sketched", "count"},
    {"corpus.shortlist_ms", "ms"},     {"corpus.pairs_scored", "count"},
    {"corpus.shortlist_pairs", "count"}, {"corpus.shortlist_yield", "ratio"},
    {"index.build_ms", "ms"},          {"index.builds", "count"},
    {"index.postings", "count"},       {"index.cache_hit_ratio", "ratio"},
    {"match.scan_ms", "ms"},           {"match.candidates", "count"},
    {"match.precision", "ratio"},      {"core.generate_ms", "ms"},
    {"core.generated", "count"},       {"core.unique", "count"},
    {"core.coverage_ms", "ms"},        {"core.full_evals", "count"},
    {"core.neg_cache_hits", "count"},  {"core.covering_pairs", "count"},
    {"core.cover_ms", "ms"},           {"join.equijoin_ms", "ms"},
    {"join.joined_rows", "count"},     {"pool.efficiency", "ratio"},
    {"serve.service_ms", "ms"},        {"serve.gate_wait_ms", "ms"},
    {"serve.protocol_ms", "ms"},       {"serve.snapshot_ms", "ms"},
    {"serve.update_work_ms", "ms"},    {"serve.epochs", "count"},
    {"gen.update_late_ms", "ms"},      {"trace.attributed", "ratio"},
};

/// Reports 0 for every per-layer metric the traced run did not measure.
void AddAbsentLayers(Report* r) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (r->Find(m.name) == nullptr) r->Add(m.name, 0.0, m.unit);
  }
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times `work` (which returns the seconds it measured) between two probes
/// of the host's speed on `cpus`.
template <typename Work>
Timing Calibrated(const std::vector<int>& cpus, Work&& work) {
  const double before = HostSpeed(cpus);
  Timing t;
  t.wall_s = work();
  t.speed = 0.5 * (before + HostSpeed(cpus));
  return t;
}

/// Single-threaded `work` pinned to the k-th allowed CPU, probed on that
/// CPU; successive k spread the units over the CPUs.
template <typename Work>
Timing CalibratedOnCpu(const std::vector<int>& cpus, size_t k, Work&& work) {
  if (cpus.empty()) return Calibrated(cpus, std::forward<Work>(work));
  const int cpu = cpus[k % cpus.size()];
  const ScopedPin pin(cpu);
  return Calibrated({cpu}, std::forward<Work>(work));
}

std::vector<double> ReferenceSeconds(const std::vector<Timing>& timings) {
  std::vector<double> out;
  for (const Timing& t : timings) out.push_back(t.reference_s());
  return out;
}

std::vector<double> WallSeconds(const std::vector<Timing>& timings) {
  std::vector<double> out;
  for (const Timing& t : timings) out.push_back(t.wall_s);
  return out;
}

double MedianSpeed(const std::vector<Timing>& timings) {
  std::vector<double> speeds;
  for (const Timing& t : timings) speeds.push_back(t.speed);
  return Median(speeds);
}

/// setup_s at reference speed, with its wall-time twin.
void AddSetup(const std::vector<Timing>& setups, Report* r) {
  r->Add("setup_s", Median(ReferenceSeconds(setups)), "s");
  r->Add("raw.setup_s", Median(WallSeconds(setups)), "s");
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

uint64_t DirCsvBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".csv") {
      total += FileBytes(entry.path().string());
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Per-pair replay: TransformJoinColumns rebuilt from the layers' public
// calls, one span per call.
// ---------------------------------------------------------------------------

/// Counts recorded at the same boundaries as the spans.
struct LayerCounts {
  uint64_t ingest_bytes = 0;
  uint64_t index_builds = 0;
  uint64_t index_postings = 0;
  uint64_t candidates = 0;
  uint64_t golden_candidates = 0;
  tj::DiscoveryStats core;
  uint64_t joined_rows = 0;
};

/// What one pair produced: the applied rules and the joined rows.
struct PairWork {
  std::vector<std::string> rules;
  std::vector<tj::RowPair> joined;
};

tj::IndexCacheKey CacheKey(uint64_t fingerprint, uint32_t column) {
  tj::IndexCacheKey key;
  key.fingerprint = fingerprint;
  key.column = column;
  return key;
}

/// Builds one column's n-gram index into `cache` (a hit when present).
void WarmIndex(Tracer* tracer, uint64_t request, const tj::Column& column,
               tj::IndexCacheKey key, tj::IndexCache* cache,
               const tj::RowMatchOptions& match, LayerCounts* counts) {
  Tracer::Scope span(tracer, "index.build", request);
  tj::RowMatchOptions options = match;
  options.index_cache = cache;
  options.pool = nullptr;
  options.num_threads = 1;
  const uint64_t misses = cache->GetStats().misses;
  const auto index = tj::AcquireColumnIndex(column, options, key, nullptr);
  if (cache->GetStats().misses > misses) {
    ++counts->index_builds;
    counts->index_postings += index->TotalPostings();
  }
}

/// Row matching (indexes taken from `cache`), generation, coverage, cover
/// and the equi-join of one oriented pair, serially.
PairWork ReplayPair(Tracer* tracer, uint64_t request, const tj::Column& source,
                    const tj::Column& target, const tj::JoinOptions& join,
                    tj::IndexCache* cache, tj::IndexCacheKey source_key,
                    tj::IndexCacheKey target_key, const tj::PairSet* golden,
                    LayerCounts* counts) {
  tj::JoinOptions local = join;
  local.discovery.pool = nullptr;
  local.discovery.num_threads = 1;
  local.match_options.pool = nullptr;
  local.match_options.num_threads = 1;
  local.match_options.index_cache = cache;
  local.match_options.source_cache_key = source_key;
  local.match_options.target_cache_key = target_key;

  PairWork work;
  std::vector<tj::RowPair> candidates;
  {
    Tracer::Scope span(tracer, "match.scan", request);
    candidates =
        tj::FindJoinablePairs(source, target, local.match_options).pairs;
  }
  counts->candidates += candidates.size();
  if (golden != nullptr) {
    for (const tj::RowPair& p : candidates) {
      if (golden->Contains(p)) ++counts->golden_candidates;
    }
  }
  if (candidates.size() < local.min_learning_pairs) return work;

  tj::UnitInterner units;
  tj::TransformationStore store;
  tj::DiscoveryStats stats;
  std::vector<tj::ExamplePair> examples;
  {
    Tracer::Scope span(tracer, "core.generate", request);
    examples = tj::MakeExamplePairs(source, target, candidates);
    stats.rows = examples.size();
    for (const tj::ExamplePair& row : examples) {
      tj::GenerateTransformationsForRow(row.source, row.target,
                                        local.discovery, &units, &store,
                                        &stats);
    }
    stats.unique_transformations = store.size();
  }
  tj::CoverageIndex coverage;
  {
    Tracer::Scope span(tracer, "core.coverage", request);
    coverage =
        tj::ComputeCoverage(store, units, examples, local.discovery, &stats);
  }
  std::vector<tj::TransformationId> applied;
  {
    Tracer::Scope span(tracer, "core.cover", request);
    uint32_t min_support = 1;
    if (local.discovery.min_support_fraction > 0.0) {
      min_support = std::max<uint32_t>(
          1, static_cast<uint32_t>(
                 std::ceil(local.discovery.min_support_fraction *
                           static_cast<double>(examples.size()))));
    }
    (void)tj::TopKByCoverage(coverage, local.discovery.top_k, min_support);
    tj::SetCoverOptions cover_options;
    cover_options.min_support = min_support;
    const tj::SetCoverResult cover =
        tj::GreedySetCover(coverage, examples.size(), cover_options);
    const auto join_support = static_cast<uint32_t>(std::ceil(
        local.min_join_support * static_cast<double>(examples.size())));
    for (const tj::RankedTransformation& ranked : cover.selected) {
      if (ranked.coverage >= join_support && ranked.coverage >= 1) {
        applied.push_back(ranked.id);
        work.rules.push_back(store.Get(ranked.id).ToString(units));
      }
    }
  }
  {
    Tracer::Scope span(tracer, "join.equijoin", request);
    work.joined = tj::ApplyAndEquiJoin(source, target, store, units, applied);
  }
  counts->core += stats;
  counts->joined_rows += work.joined.size();
  return work;
}

bool IsGroupSpan(const std::string& name) {
  return name == "run" || name == "pair" || name == "serve.request" ||
         name == "serve.update";
}

double SelfMs(const std::map<std::string, double>& self, const char* name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second;
}

/// The per-layer metrics every traced workload measures: table, index,
/// match, core, join and pool.
void AddLayerMetrics(const Tracer& tracer, const LayerCounts& c,
                     double cache_hit_ratio, double pool_efficiency,
                     Report* r) {
  const auto self = tracer.SelfMs();
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  r->Add("table.ingest_ms", SelfMs(self, "table.ingest"), "ms");
  r->Add("table.ingest_mb", count(c.ingest_bytes) / 1e6, "MB");
  r->Add("index.build_ms", SelfMs(self, "index.build"), "ms");
  r->Add("index.builds", count(c.index_builds), "count");
  r->Add("index.postings", count(c.index_postings), "count");
  r->Add("index.cache_hit_ratio", cache_hit_ratio, "ratio");
  r->Add("match.scan_ms", SelfMs(self, "match.scan"), "ms");
  r->Add("match.candidates", count(c.candidates), "count");
  r->Add("match.precision",
         c.candidates == 0 ? 0.0
                           : count(c.golden_candidates) / count(c.candidates),
         "ratio");
  r->Add("core.generate_ms", SelfMs(self, "core.generate"), "ms");
  r->Add("core.generated", count(c.core.generated_transformations), "count");
  r->Add("core.unique", count(c.core.unique_transformations), "count");
  r->Add("core.coverage_ms", SelfMs(self, "core.coverage"), "ms");
  r->Add("core.full_evals", count(c.core.full_evaluations), "count");
  r->Add("core.neg_cache_hits", count(c.core.cache_hits), "count");
  r->Add("core.covering_pairs", count(c.core.covering_pairs), "count");
  r->Add("core.cover_ms", SelfMs(self, "core.cover"), "ms");
  r->Add("join.equijoin_ms", SelfMs(self, "join.equijoin"), "ms");
  r->Add("join.joined_rows", count(c.joined_rows), "count");
  r->Add("pool.efficiency", pool_efficiency, "ratio");
  double group_ms = 0.0;
  for (const auto& [name, ms] : self) {
    if (IsGroupSpan(name)) group_ms += ms;
  }
  const double root_ms = tracer.RootMs();
  r->Add("trace.attributed", root_ms > 0.0 ? 1.0 - group_ms / root_ms : 0.0,
         "ratio");
}

double HitRatio(const tj::IndexCacheStats& stats) {
  const uint64_t total = stats.hits + stats.misses;
  return total == 0 ? 0.0
                    : static_cast<double>(stats.hits) /
                          static_cast<double>(total);
}

void WriteSpans(const Tracer& tracer, Workload workload, Outcome* outcome) {
  const std::string path = std::string("trace-") + WorkloadName(workload) +
                           ".jsonl";
  if (!tracer.WriteJsonl(path)) outcome->Diverge("cannot write " + path);
}

std::string RulesDiff(const std::vector<std::string>& replay,
                      const std::vector<std::string>& untraced,
                      size_t replay_joined, size_t untraced_joined) {
  if (replay != untraced) return "rules differ";
  if (replay_joined != untraced_joined) return "joined rows differ";
  return "";
}

// ---------------------------------------------------------------------------
// learn-deep
// ---------------------------------------------------------------------------

struct LearnPair {
  size_t planted = 0;  // index into the planted list
  tj::TablePair pair;
  bool flipped = false;  // the engine's source is the planted target
  uint64_t bytes = 0;
};

/// The csv_join_tool ingest: both CSVs, then the more descriptive column
/// becomes the source.
tj::Result<LearnPair> LoadLearnPair(const PlantedPair& planted,
                                    size_t index) {
  const std::string left_path = "pairs/" + planted.source_table + ".csv";
  const std::string right_path = "pairs/" + planted.target_table + ".csv";
  tj::Result<tj::Table> left = tj::ReadCsvFile(left_path);
  if (!left.ok()) return left.status();
  tj::Result<tj::Table> right = tj::ReadCsvFile(right_path);
  if (!right.ok()) return right.status();
  LearnPair out;
  out.planted = index;
  out.pair.name = planted.name;
  const bool left_is_source =
      tj::PickSourceColumn(left->column(0), right->column(0));
  out.flipped = !left_is_source;
  if (left_is_source) {
    out.pair.source = std::move(*left);
    out.pair.target = std::move(*right);
  } else {
    out.pair.source = std::move(*right);
    out.pair.target = std::move(*left);
  }
  out.bytes = FileBytes(left_path) + FileBytes(right_path);
  return out;
}

tj::Result<std::vector<LearnPair>> LoadLearnPairs(
    const std::vector<PlantedPair>& planted) {
  std::vector<LearnPair> pairs;
  for (size_t i = 0; i < planted.size(); ++i) {
    tj::Result<LearnPair> pair = LoadLearnPair(planted[i], i);
    if (!pair.ok()) return pair.status();
    pairs.push_back(std::move(*pair));
  }
  return pairs;
}

tj::JoinOptions LearnOptions() {
  tj::JoinOptions options;
  options.matching = tj::MatchingMode::kNgram;
  options.discovery.num_threads = 1;
  options.match_options.num_threads = 1;
  return options;
}

PairWork Untraced(const tj::TablePair& pair) {
  tj::JoinResult result = tj::TransformJoin(pair, LearnOptions());
  PairWork work;
  work.rules = std::move(result.applied_transformations);
  work.joined = std::move(result.joined);
  return work;
}

void TallyLearn(const std::vector<LearnPair>& pairs,
                const std::vector<PairWork>& work,
                const std::vector<PlantedPair>& planted, QualityTally* tally,
                Outcome* outcome) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    const LearnPair& p = pairs[i];
    const std::string diff = TallyPlanted(
        work[i].rules, work[i].joined.size(), p.pair.SourceColumn(),
        p.pair.TargetColumn(),
        Orient(planted[p.planted].golden, p.flipped), tally);
    if (!diff.empty()) outcome->Diverge(p.pair.name + ": " + diff);
  }
}

void InjectMissingPairs(int count, Outcome* outcome) {
  for (int i = 0; i < count; ++i) {
    PlantedPair missing;
    missing.source_table = "missing-src";
    missing.target_table = "missing-tgt";
    outcome->Attempt(LoadLearnPair(missing, 0).ok());
  }
}

tj::Status RunLearnDeep(const RunOptions& options,
                        const std::vector<PlantedPair>& planted,
                        RunResult* out) {
  const std::vector<int> cpus = AllowedCpus();
  std::vector<Timing> setups;
  std::vector<LearnPair> pairs;
  for (int i = 0; i < kLearnSetupRepeats; ++i) {
    tj::Result<std::vector<LearnPair>> loaded = tj::Status::Internal("unset");
    setups.push_back(CalibratedOnCpu(cpus, i, [&] {
      const Clock::time_point start = Clock::now();
      loaded = LoadLearnPairs(planted);
      return Since(start);
    }));
    if (!loaded.ok()) return loaded.status();
    pairs = std::move(*loaded);
  }
  InjectMissingPairs(options.inject_failures, &out->outcome);

  // Passes over all pairs run until the time is up; a pair's time is the
  // median of its runs at reference speed, and a pass's time the sum of its
  // runs'. Each run is pinned to the next allowed CPU in turn and probed on
  // it. Peak RSS is taken per pair run (the kernel's mark is reset before
  // each): the process peak would be the largest pair's alone.
  const size_t n = pairs.size();
  std::vector<std::vector<Timing>> runs(n);
  std::vector<std::vector<double>> peaks(n);
  std::vector<PairWork> reference(n);
  std::vector<double> pass_s;  // at reference speed
  std::vector<double> pass_wall_s;
  const bool per_pair_peaks = ResetPeakRss();
  const Clock::time_point start = Clock::now();
  size_t k = 0;
  for (; k < n || Since(start) < options.seconds; ++k) {
    const size_t i = k % n;
    if (per_pair_peaks) {
      // Hand freed heap back first, so a pair's peak does not carry the
      // previous pairs' fragmentation.
      malloc_trim(0);
      ResetPeakRss();
    }
    PairWork work;
    const Timing run = CalibratedOnCpu(cpus, k, [&] {
      const Clock::time_point run_start = Clock::now();
      work = Untraced(pairs[i].pair);
      return Since(run_start);
    });
    runs[i].push_back(run);
    if (i == 0) {
      pass_s.push_back(0.0);
      pass_wall_s.push_back(0.0);
    }
    pass_s.back() += run.reference_s();
    pass_wall_s.back() += run.wall_s;
    peaks[i].push_back(PeakRssMb());
    out->outcome.Attempt(true);
    if (k < n) {
      reference[i] = std::move(work);
    } else if (work.rules != reference[i].rules ||
               work.joined != reference[i].joined) {
      out->outcome.Diverge(pairs[i].pair.name + ": output changed between runs");
    }
  }

  if (k % n != 0) {  // the last pass was cut short
    pass_s.pop_back();
    pass_wall_s.pop_back();
  }
  double total_s = 0.0;
  double total_wall_s = 0.0;
  std::vector<double> pair_peak_mb;
  std::vector<Timing> all_runs;
  for (size_t i = 0; i < n; ++i) {
    total_s += Median(ReferenceSeconds(runs[i]));
    total_wall_s += Median(WallSeconds(runs[i]));
    pair_peak_mb.push_back(Median(peaks[i]));
    all_runs.insert(all_runs.end(), runs[i].begin(), runs[i].end());
  }
  QualityTally tally;
  TallyLearn(pairs, reference, planted, &tally, &out->outcome);

  Report& r = out->report;
  AddSetup(setups, &r);
  r.Add("pairs_per_s", static_cast<double>(n) / total_s, "1/s");
  r.Add("query_p50_ms", 1000.0 * Median(pass_s), "ms");
  r.Add("peak_rss_mb",
        std::accumulate(pair_peak_mb.begin(), pair_peak_mb.end(), 0.0) /
            static_cast<double>(n),
        "MB");
  r.Add("pair_recall", tally.Recall(), "ratio");
  r.Add("join_f1", tally.rows.F1(), "ratio");
  r.Add("failed_ratio", out->outcome.FailedRatio(), "ratio");
  r.Add("raw.pairs_per_s", static_cast<double>(n) / total_wall_s, "1/s");
  r.Add("raw.query_p50_ms", 1000.0 * Median(pass_wall_s), "ms");
  r.Add("host.speed", MedianSpeed(all_runs), "ratio");
  r.Add("pair_runs", static_cast<double>(all_runs.size()), "count");
  r.Add("max_pair_peak_rss_mb",
        *std::max_element(pair_peak_mb.begin(), pair_peak_mb.end()), "MB");
  return tj::Status::OK();
}

tj::Status TraceLearnDeep(const RunOptions& options,
                          const std::vector<PlantedPair>& planted,
                          RunResult* out) {
  tj::Result<std::vector<LearnPair>> loaded = LoadLearnPairs(planted);
  if (!loaded.ok()) return loaded.status();
  const std::vector<LearnPair>& pairs = *loaded;
  InjectMissingPairs(options.inject_failures, &out->outcome);

  // Untraced reference pass: the outputs the replay must reproduce, and
  // the wall time the tracing overhead is measured against.
  std::vector<PairWork> reference;
  double untraced_s = 0.0;
  const Clock::time_point pass_start = Clock::now();
  for (const LearnPair& p : pairs) {
    const Clock::time_point start = Clock::now();
    reference.push_back(Untraced(p.pair));
    untraced_s += Since(start);
  }
  const double pass_s = Since(pass_start);

  Tracer tracer;
  LayerCounts counts;
  const tj::JoinOptions join = LearnOptions();
  const int root = tracer.Begin("run", 0);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const uint64_t request = i + 1;
    Tracer::Scope pair_span(&tracer, "pair", request);
    std::optional<LearnPair> loaded_pair;
    {
      Tracer::Scope span(&tracer, "table.ingest", request);
      tj::Result<LearnPair> p = LoadLearnPair(planted[pairs[i].planted],
                                              pairs[i].planted);
      if (!p.ok()) return p.status();
      loaded_pair.emplace(std::move(*p));
    }
    const tj::TablePair& pair = loaded_pair->pair;
    counts.ingest_bytes += loaded_pair->bytes;
    const tj::PairSet golden =
        Orient(planted[pairs[i].planted].golden, loaded_pair->flipped);
    tj::IndexCache cache;
    const auto source_key = CacheKey(tj::TableFingerprint(pair.source), 0);
    const auto target_key = CacheKey(tj::TableFingerprint(pair.target), 0);
    WarmIndex(&tracer, request, pair.SourceColumn(), source_key, &cache,
              join.match_options, &counts);
    WarmIndex(&tracer, request, pair.TargetColumn(), target_key, &cache,
              join.match_options, &counts);
    const PairWork work =
        ReplayPair(&tracer, request, pair.SourceColumn(), pair.TargetColumn(),
                   join, &cache, source_key, target_key, &golden, &counts);
    out->outcome.Attempt(true);
    if (work.rules != reference[i].rules ||
        work.joined != reference[i].joined) {
      out->outcome.Diverge(pair.name + ": traced replay differs from the "
                                       "untraced run");
    }
  }
  tracer.End(root);
  WriteSpans(tracer, options.workload, &out->outcome);

  // One thread: the efficiency is the pair work's share of the pass.
  AddLayerMetrics(tracer, counts, /*cache_hit_ratio=*/0.0,
                  untraced_s / pass_s, &out->report);
  const double replay_ms =
      tracer.RootMs() - SelfMs(tracer.SelfMs(), "table.ingest");
  out->report.Add("trace.overhead", replay_ms / (1000.0 * untraced_s) - 1.0,
                  "ratio");
  return tj::Status::OK();
}

// ---------------------------------------------------------------------------
// Corpus helpers (repo-scan and serve-mixed)
// ---------------------------------------------------------------------------

/// Planted pair resolved to catalog table ids.
struct PlantedRef {
  const PlantedPair* truth = nullptr;
  uint32_t source = 0;
  uint32_t target = 0;
};

bool SameTables(const tj::ColumnRef& a, const tj::ColumnRef& b,
                const PlantedRef& p) {
  return a.column == 0 && b.column == 0 &&
         ((a.table == p.source && b.table == p.target) ||
          (a.table == p.target && b.table == p.source));
}

/// Recall and row-level F1 of the planted pairs found in `results`.
void TallyCorpus(const tj::CorpusColumnSource& source,
                 const std::vector<tj::CorpusPairResult>& results,
                 const std::vector<PlantedRef>& planted, QualityTally* tally,
                 Outcome* outcome) {
  for (const PlantedRef& p : planted) {
    const tj::CorpusPairResult* hit = nullptr;
    for (const tj::CorpusPairResult& r : results) {
      if (r.error.empty() && SameTables(r.source, r.target, p)) {
        hit = &r;
        break;
      }
    }
    if (hit == nullptr) {
      ++tally->planted;
      tally->rows.actual += p.truth->golden.size();
      continue;
    }
    const auto s = source.ResidentColumn(hit->source);
    const auto t = source.ResidentColumn(hit->target);
    if (!s.ok() || !t.ok()) {
      outcome->Diverge(p.truth->name + ": planted columns unreadable");
      continue;
    }
    const std::string diff = TallyPlanted(
        hit->transformations, hit->joined_rows, **s, **t,
        Orient(p.truth->golden, hit->source.table != p.source), tally);
    if (!diff.empty()) outcome->Diverge(p.truth->name + ": " + diff);
  }
}

tj::Result<std::vector<PlantedRef>> ResolvePlanted(
    const std::vector<PlantedPair>& planted,
    const std::function<tj::Result<uint32_t>(const std::string&)>& resolve) {
  std::vector<PlantedRef> refs;
  for (const PlantedPair& p : planted) {
    tj::Result<uint32_t> source = resolve(p.source_table);
    tj::Result<uint32_t> target = resolve(p.target_table);
    if (!source.ok()) return source.status();
    if (!target.ok()) return target.status();
    refs.push_back(PlantedRef{&p, *source, *target});
  }
  return refs;
}

tj::Status LoadCorpus(tj::TableCatalog* catalog) {
  tj::Result<tj::TableCatalog::CsvDirectoryReport> report =
      catalog->AddCsvDirectory("corpus");
  if (!report.ok()) return report.status();
  if (report->skipped > 0) {
    return tj::Status::IOError(std::to_string(report->skipped) +
                               " corpus files could not be read");
  }
  return tj::Status::OK();
}

/// Corpus-layer metrics of the repo-scan and serve-mixed replays.
void AddCorpusMetrics(const Tracer& tracer, size_t columns_sketched,
                      size_t pairs_scored, size_t shortlist_pairs,
                      size_t planted_in_shortlist, Report* r) {
  const auto self = tracer.SelfMs();
  r->Add("corpus.signature_ms", SelfMs(self, "corpus.signature"), "ms");
  r->Add("corpus.columns_sketched", static_cast<double>(columns_sketched),
         "count");
  r->Add("corpus.shortlist_ms", SelfMs(self, "corpus.shortlist"), "ms");
  r->Add("corpus.pairs_scored", static_cast<double>(pairs_scored), "count");
  r->Add("corpus.shortlist_pairs", static_cast<double>(shortlist_pairs),
         "count");
  r->Add("corpus.shortlist_yield",
         shortlist_pairs == 0 ? 0.0
                              : static_cast<double>(planted_in_shortlist) /
                                    static_cast<double>(shortlist_pairs),
         "ratio");
}

size_t PlantedInShortlist(const tj::PairPrunerResult& shortlist,
                          const std::vector<PlantedRef>& planted) {
  size_t found = 0;
  for (const PlantedRef& p : planted) {
    for (const tj::ColumnPairCandidate& c : shortlist.shortlist) {
      if (SameTables(c.a, c.b, p)) {
        ++found;
        break;
      }
    }
  }
  return found;
}

const tj::PairSet* PlantedGolden(
    const std::vector<PlantedRef>& planted, tj::ColumnRef source,
    tj::ColumnRef target,
    std::vector<std::unique_ptr<tj::PairSet>>* oriented) {
  for (const PlantedRef& p : planted) {
    if (SameTables(source, target, p)) {
      oriented->push_back(std::make_unique<tj::PairSet>(
          Orient(p.truth->golden, source.table != p.source)));
      return oriented->back().get();
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// repo-scan
// ---------------------------------------------------------------------------

struct ScanPass {
  tj::CorpusDiscoveryResult result;
  double seconds = 0.0;
  tj::IndexCacheStats cache;
};

/// One corpus_discovery_tool batch run over a fresh catalog holding copies
/// of `tables`: sketches, shortlist and per-pair evaluation are all inside
/// the timed call, with a cold cache of the CLI's default budget and the
/// CLI's uncapped shortlist.
ScanPass RunScanPass(const std::vector<tj::Table>& tables, int threads) {
  tj::TableCatalog catalog;
  for (const tj::Table& table : tables) {
    TJ_CHECK(catalog.AddTable(table).ok());
  }
  tj::IndexCache cache(tj::serve::kDefaultIndexCacheBudgetBytes);
  tj::CorpusDiscoveryOptions options;
  options.num_threads = threads;
  options.index_cache = &cache;
  ScanPass pass;
  const Clock::time_point start = Clock::now();
  pass.result = tj::DiscoverJoinableColumns(&catalog, options);
  pass.seconds = Since(start);
  pass.cache = cache.GetStats();
  return pass;
}

std::string ScanDiff(const tj::CorpusDiscoveryResult& a,
                     const tj::CorpusDiscoveryResult& b) {
  if (a.results.size() != b.results.size()) return "shortlist size differs";
  for (size_t i = 0; i < a.results.size(); ++i) {
    const tj::CorpusPairResult& x = a.results[i];
    const tj::CorpusPairResult& y = b.results[i];
    if (!(x.source == y.source) || !(x.target == y.target) ||
        x.transformations != y.transformations ||
        x.joined_rows != y.joined_rows ||
        x.learning_pairs != y.learning_pairs) {
      return "pair " + std::to_string(i) + " differs";
    }
  }
  return "";
}

void CountPairs(const tj::CorpusDiscoveryResult& result, Outcome* outcome) {
  for (const tj::CorpusPairResult& r : result.results) {
    outcome->Attempt(r.error.empty());
  }
}

/// Evaluations of a candidate naming a table the catalog never had: each
/// must come back as an error result, counted as a failed attempt.
void InjectBadCandidates(const tj::TableCatalog& catalog, int count,
                         Outcome* outcome) {
  tj::CorpusDiscoveryOptions options;
  for (int i = 0; i < count; ++i) {
    tj::ColumnPairCandidate bad;
    bad.a = tj::ColumnRef{static_cast<uint32_t>(catalog.num_slots() + 1), 0};
    bad.b = tj::ColumnRef{0, 0};
    const tj::CorpusPairResult r =
        tj::EvaluateCandidate(catalog, bad, options, nullptr, true);
    outcome->Attempt(r.error.empty());
  }
}

std::vector<tj::Table> CopyTables(const tj::TableCatalog& catalog) {
  std::vector<tj::Table> tables;
  for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
    tables.push_back(catalog.table(t));
  }
  return tables;
}

tj::Status RunRepoScan(const RunOptions& options,
                       const std::vector<PlantedPair>& planted,
                       RunResult* out) {
  const std::vector<int> cpus = AllowedCpus();
  std::vector<Timing> setups;
  std::unique_ptr<tj::TableCatalog> catalog;
  for (int i = 0; i < kSetupRepeats; ++i) {
    auto fresh = std::make_unique<tj::TableCatalog>();
    tj::Status loaded;
    setups.push_back(CalibratedOnCpu(cpus, i, [&] {
      const Clock::time_point start = Clock::now();
      loaded = LoadCorpus(fresh.get());
      return Since(start);
    }));
    TJ_RETURN_IF_ERROR(loaded);
    catalog = std::move(fresh);
  }
  tj::Result<std::vector<PlantedRef>> refs = ResolvePlanted(
      planted, [&](const std::string& name) { return catalog->TableIndex(name); });
  if (!refs.ok()) return refs.status();
  const std::vector<tj::Table> tables = CopyTables(*catalog);
  InjectBadCandidates(*catalog, options.inject_failures, &out->outcome);

  // A fresh process's first multi-threaded pass can run far slower than
  // the rest; the warm-up pass absorbs that and gives the reference output.
  const ScanPass warmup = RunScanPass(tables, kRepoScanThreads);
  std::vector<Timing> passes;
  std::vector<double> peaks;
  const bool per_pass_peaks = ResetPeakRss();
  const Clock::time_point start = Clock::now();
  do {
    if (per_pass_peaks) {
      malloc_trim(0);
      ResetPeakRss();
    }
    ScanPass pass;
    passes.push_back(Calibrated(cpus, [&] {
      pass = RunScanPass(tables, kRepoScanThreads);
      return pass.seconds;
    }));
    peaks.push_back(PeakRssMb());
    CountPairs(pass.result, &out->outcome);
    const std::string diff = ScanDiff(pass.result, warmup.result);
    if (!diff.empty()) out->outcome.Diverge("repo-scan pass: " + diff);
  } while (Since(start) < options.seconds);

  QualityTally tally;
  TallyCorpus(*catalog, warmup.result.results, *refs, &tally, &out->outcome);

  const auto pairs = static_cast<double>(warmup.result.results.size());
  const double pass_s = Median(ReferenceSeconds(passes));
  const double wall_s = Median(WallSeconds(passes));
  Report& r = out->report;
  AddSetup(setups, &r);
  r.Add("pairs_per_s", pairs / pass_s, "1/s");
  r.Add("query_p50_ms", 1000.0 * pass_s, "ms");
  r.Add("peak_rss_mb", Median(peaks), "MB");
  r.Add("pair_recall", tally.Recall(), "ratio");
  r.Add("join_f1", tally.rows.F1(), "ratio");
  r.Add("failed_ratio", out->outcome.FailedRatio(), "ratio");
  r.Add("raw.pairs_per_s", pairs / wall_s, "1/s");
  r.Add("raw.query_p50_ms", 1000.0 * wall_s, "ms");
  r.Add("host.speed", MedianSpeed(passes), "ratio");
  r.Add("shortlist_pairs", pairs, "count");
  r.Add("passes", static_cast<double>(passes.size()), "count");
  return tj::Status::OK();
}

tj::Status TraceRepoScan(const RunOptions& options,
                         const std::vector<PlantedPair>& planted,
                         RunResult* out) {
  tj::TableCatalog catalog;
  TJ_RETURN_IF_ERROR(LoadCorpus(&catalog));
  const std::vector<tj::Table> tables = CopyTables(catalog);
  InjectBadCandidates(catalog, options.inject_failures, &out->outcome);
  const ScanPass warmup = RunScanPass(tables, kRepoScanThreads);
  const ScanPass parallel = RunScanPass(tables, kRepoScanThreads);
  const ScanPass serial = RunScanPass(tables, 1);
  for (const ScanPass* pass : {&parallel, &serial}) {
    const std::string diff = ScanDiff(pass->result, warmup.result);
    if (!diff.empty()) out->outcome.Diverge("repo-scan pass: " + diff);
  }

  Tracer tracer;
  LayerCounts counts;
  const tj::CorpusDiscoveryOptions scan;
  const int root = tracer.Begin("run", 0);
  tj::TableCatalog replica;
  {
    Tracer::Scope span(&tracer, "table.ingest", 0);
    TJ_RETURN_IF_ERROR(LoadCorpus(&replica));
  }
  counts.ingest_bytes = DirCsvBytes("corpus");
  {
    Tracer::Scope span(&tracer, "corpus.signature", 0);
    replica.ComputeSignatures(nullptr);
  }
  tj::PairPrunerResult shortlist;
  {
    Tracer::Scope span(&tracer, "corpus.shortlist", 0);
    shortlist = tj::ShortlistPairs(replica, scan.pruner, nullptr);
  }
  tj::Result<std::vector<PlantedRef>> refs = ResolvePlanted(
      planted, [&](const std::string& name) { return replica.TableIndex(name); });
  if (!refs.ok()) return refs.status();

  // The batch path's order: every distinct shortlisted column's index
  // first, then the pairs in shortlist order, each reading from the cache.
  tj::JoinOptions join = scan.join;
  join.min_learning_pairs =
      std::max(join.min_learning_pairs, scan.min_learning_pairs);
  tj::IndexCache cache(tj::serve::kDefaultIndexCacheBudgetBytes);
  std::set<std::pair<uint32_t, uint32_t>> warmed;
  for (const tj::ColumnPairCandidate& c : shortlist.shortlist) {
    for (const tj::ColumnRef ref : {c.a, c.b}) {
      if (!warmed.insert({ref.table, ref.column}).second) continue;
      WarmIndex(&tracer, 0, replica.column(ref),
                CacheKey(replica.fingerprint(ref.table), ref.column), &cache,
                join.match_options, &counts);
    }
  }
  std::vector<std::unique_ptr<tj::PairSet>> oriented;
  for (size_t i = 0; i < shortlist.shortlist.size(); ++i) {
    const tj::ColumnPairCandidate& c = shortlist.shortlist[i];
    const uint64_t request = i + 1;
    Tracer::Scope pair_span(&tracer, "pair", request);
    const tj::ColumnRef source = c.a_is_source ? c.a : c.b;
    const tj::ColumnRef target = c.a_is_source ? c.b : c.a;
    const PairWork work = ReplayPair(
        &tracer, request, replica.column(source), replica.column(target),
        join, &cache, CacheKey(replica.fingerprint(source.table), source.column),
        CacheKey(replica.fingerprint(target.table), target.column),
        PlantedGolden(*refs, source, target, &oriented), &counts);
    out->outcome.Attempt(true);
    const bool same_pair = i < warmup.result.results.size() &&
                           warmup.result.results[i].source == source &&
                           warmup.result.results[i].target == target;
    const std::string diff =
        !same_pair ? "pair order differs"
                   : RulesDiff(work.rules,
                               warmup.result.results[i].transformations,
                               work.joined.size(),
                               warmup.result.results[i].joined_rows);
    if (!diff.empty()) {
      out->outcome.Diverge("repo-scan replay pair " + std::to_string(i) +
                           ": " + diff);
    }
  }
  tracer.End(root);
  WriteSpans(tracer, options.workload, &out->outcome);

  AddLayerMetrics(tracer, counts, HitRatio(parallel.cache),
                  serial.seconds / (parallel.seconds * kRepoScanThreads),
                  &out->report);
  AddCorpusMetrics(tracer, replica.num_columns(), shortlist.total_pairs,
                   shortlist.shortlist.size(),
                   PlantedInShortlist(shortlist, *refs), &out->report);
  const double replay_ms =
      tracer.RootMs() - SelfMs(tracer.SelfMs(), "table.ingest");
  out->report.Add("trace.overhead",
                  replay_ms / (1000.0 * serial.seconds) - 1.0, "ratio");
  return tj::Status::OK();
}

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

/// CorpusServer with its catalog and pool; shut down on destruction.
struct Daemon {
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (server != nullptr) server->Shutdown();
  }

  tj::TableCatalog catalog;
  std::unique_ptr<tj::ThreadPool> pool;
  std::unique_ptr<tj::serve::CorpusServer> server;
};

tj::serve::ServeOptions DaemonOptions() {
  tj::serve::ServeOptions options;
  options.socket_path = kSocket;
  return options;
}

/// Cold start before the first answer: CSV ingest + CorpusServer::Start.
tj::Status StartDaemon(std::unique_ptr<Daemon>* out, double* seconds) {
  auto daemon = std::make_unique<Daemon>();
  const Clock::time_point start = Clock::now();
  TJ_RETURN_IF_ERROR(LoadCorpus(&daemon->catalog));
  daemon->pool = std::make_unique<tj::ThreadPool>(kServePoolThreads);
  daemon->server = std::make_unique<tj::serve::CorpusServer>(
      &daemon->catalog, daemon->pool.get(), DaemonOptions());
  TJ_RETURN_IF_ERROR(daemon->server->Start());
  *seconds = Since(start);
  *out = std::move(daemon);
  return tj::Status::OK();
}

/// One planted source column clients ask `joinable` about, with the answer
/// a batch EvaluateShortlist gives on the same snapshot.
struct Query {
  std::string table;
  std::string spec;
  std::string request;
  tj::ColumnRef column;
  /// The snapshot's shortlisted pairs with this column, in shortlist order,
  /// and the batch result of each.
  std::vector<tj::ColumnPairCandidate> candidates;
  std::vector<tj::CorpusPairResult> batch;
  JsonValue results;
};

std::string Request(const std::string& op, const std::string& key,
                    const std::string& value) {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue::Str(op));
  request.Set(key, JsonValue::Str(value));
  return request.Serialize();
}

/// The served columns are every planted source column, fixed by the
/// generator. Each one's answer is every pair the snapshot shortlists with
/// it, evaluated in one batch EvaluateShortlist over the snapshot (the
/// daemon answers each pair exactly as that batch does). A served column
/// with no shortlisted pair is a divergence.
tj::Result<std::vector<Query>> ExpectedAnswers(
    const tj::serve::CorpusSnapshot& snapshot,
    const std::vector<PlantedPair>& planted, Outcome* outcome) {
  std::vector<Query> queries;
  for (const PlantedPair& p : planted) {
    Query q;
    q.table = p.source_table;
    q.spec = p.source_table + ".value";
    q.request = Request("joinable", "column", q.spec);
    tj::Result<tj::ColumnRef> ref = snapshot.ResolveColumn(q.spec);
    if (!ref.ok()) return ref.status();
    q.column = *ref;
    queries.push_back(std::move(q));
  }
  tj::PairPrunerResult touched;  // shortlisted pairs with a served column
  std::vector<std::vector<size_t>> picks(queries.size());
  for (const tj::ColumnPairCandidate& c : snapshot.shortlist().shortlist) {
    bool served = false;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (c.a == queries[i].column || c.b == queries[i].column) {
        picks[i].push_back(touched.shortlist.size());
        served = true;
      }
    }
    if (served) touched.shortlist.push_back(c);
  }
  tj::ThreadPool pool(kRepoScanThreads);
  const tj::CorpusDiscoveryResult batch = tj::EvaluateShortlist(
      snapshot, touched, DaemonOptions().discovery, &pool);
  for (size_t i = 0; i < queries.size(); ++i) {
    Query& q = queries[i];
    if (picks[i].empty()) {
      outcome->Diverge(q.spec + ": no shortlisted pair to serve");
    }
    q.results = JsonValue::Array();
    for (size_t k : picks[i]) {
      q.candidates.push_back(touched.shortlist[k]);
      q.batch.push_back(batch.results[k]);
      q.results.Append(tj::serve::PairResultToJson(snapshot, batch.results[k]));
    }
  }
  return queries;
}

/// Tables the update client rotates: the generator's churn tables, each
/// with a second version under alt/. No churn table shares a gram with a
/// planted column (inputs.cc), so every answer stays checkable against the
/// batch run.
std::vector<std::string> RotatingTables() {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator("alt")) {
    names.push_back(entry.path().stem().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string UpdatePath(const std::vector<std::string>& rotating, size_t k) {
  const std::string& table = rotating[k % rotating.size()];
  const bool alt = (k / rotating.size()) % 2 == 0;
  return (alt ? "alt/" : "corpus/") + table + ".csv";
}

/// Each client's fixed query order, cycled: a seeded permutation of the
/// served columns, so every column is asked equally often.
std::vector<size_t> ClientOrder(size_t num_queries, uint64_t seed,
                                int client) {
  std::vector<size_t> order(num_queries);
  std::iota(order.begin(), order.end(), 0);
  tj::Rng rng(tj::HashCombine(seed, static_cast<uint64_t>(client) + 1));
  rng.Shuffle(&order);
  return order;
}

constexpr size_t kInjected = static_cast<size_t>(-1);

struct QuerySample {
  size_t query = 0;  // index into the query list, kInjected for injected
  int round = 0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool delivered = false;  // a response came back
  std::string response;
};

struct UpdateSample {
  int round = 0;
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool delivered = false;
  std::string response;
};

/// One round of load: its start, relative to the load's start, the mean
/// of the host speeds probed right before and after it, and the process's
/// peak RSS during it.
struct Round {
  double start_s = 0.0;
  double speed = 1.0;
  double peak_mb = 0.0;
};

/// How long the load runs: kWarmupRounds rounds whose samples are
/// discarded, then `window_rounds` measured ones, each `round_s` long.
struct LoadPlan {
  double round_s = kRoundS;
  int window_rounds = 1;
};

struct LoadResult {
  std::vector<QuerySample> queries;  // all clients, merged
  std::vector<UpdateSample> updates;
  std::vector<Round> rounds;
  int connect_failures = 0;
};

/// Opens the load's rounds one at a time and waits until every client has
/// finished the open one, so the host can be probed with the load paused.
class RoundGate {
 public:
  explicit RoundGate(int clients) : clients_(clients) {}

  /// Client side: blocks until round `r` opens and returns its start;
  /// nullopt once the load is over.
  std::optional<Clock::time_point> Await(int r) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return round_ >= r || over_; });
    if (over_) return std::nullopt;
    return start_;
  }
  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    ++finished_;
    cv_.notify_all();
  }
  /// Load side: opens round `r`, waits until every client finished it,
  /// and returns when it started.
  Clock::time_point Run(int r) {
    std::unique_lock<std::mutex> lock(mu_);
    round_ = r;
    finished_ = 0;
    start_ = Clock::now();
    cv_.notify_all();
    cv_.wait(lock, [&] { return finished_ == clients_; });
    return start_;
  }
  void End() {
    std::lock_guard<std::mutex> lock(mu_);
    over_ = true;
    cv_.notify_all();
  }

 private:
  const int clients_;
  std::mutex mu_;
  std::condition_variable cv_;
  int round_ = -1;
  int finished_ = 0;
  bool over_ = false;
  Clock::time_point start_;
};

/// 3 closed-loop query clients and 1 open-loop update client, 4
/// connections, in rounds. Within a round each query client sends its next
/// request as soon as the previous one is answered, and the update client
/// sends one update every kUpdatePeriodS from the round's start. Between
/// rounds every client has its answers back and the host's speed is probed.
LoadResult DriveLoad(const std::vector<Query>& queries,
                     const std::vector<std::string>& rotating,
                     const LoadPlan& plan, uint64_t seed,
                     int inject_failures) {
  LoadResult load;
  const Clock::time_point origin = Clock::now();
  const auto since_origin = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - origin).count();
  };
  const auto now_s = [&] { return since_origin(Clock::now()); };
  const auto round_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(plan.round_s));
  RoundGate gate(kQueryClients + 1);
  std::vector<std::vector<QuerySample>> per_client(kQueryClients);
  std::vector<int> failed_connects(kQueryClients + 1, 0);
  const auto idle = [&gate] {
    for (int r = 0; gate.Await(r).has_value(); ++r) gate.Finish();
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kQueryClients; ++c) {
    threads.emplace_back([&, c] {
      tj::serve::ServeClient client;
      if (!client.Connect(kSocket).ok()) {
        failed_connects[c] = 1;
        idle();
        return;
      }
      std::vector<QuerySample>& samples = per_client[c];
      int round = 0;
      const auto call = [&](size_t query, const std::string& request) {
        QuerySample sample;
        sample.query = query;
        sample.round = round;
        sample.sent_s = now_s();
        tj::Result<std::string> response = client.CallRaw(request);
        sample.done_s = now_s();
        sample.delivered = response.ok();
        if (response.ok()) sample.response = std::move(*response);
        samples.push_back(std::move(sample));
      };
      const std::vector<size_t> order = ClientOrder(queries.size(), seed, c);
      size_t i = 0;
      for (; const auto start = gate.Await(round); ++round) {
        if (c == 0 && round == 0) {
          const std::string bad =
              Request("joinable", "column", "no-such-table.value");
          for (int k = 0; k < inject_failures; ++k) call(kInjected, bad);
        }
        while (Clock::now() < *start + round_length) {
          const size_t q = order[i++ % order.size()];
          call(q, queries[q].request);
        }
        gate.Finish();
      }
    });
  }
  threads.emplace_back([&] {
    tj::serve::ServeClient client;
    if (!client.Connect(kSocket).ok()) {
      failed_connects[kQueryClients] = 1;
      idle();
      return;
    }
    size_t k = 0;
    for (int round = 0; const auto start = gate.Await(round); ++round) {
      for (int j = 0; j * kUpdatePeriodS < plan.round_s; ++j) {
        const Clock::time_point due =
            *start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(j * kUpdatePeriodS));
        std::this_thread::sleep_until(due);
        UpdateSample sample;
        sample.round = round;
        sample.due_s = since_origin(due);
        sample.sent_s = now_s();
        tj::Result<std::string> response =
            client.CallRaw(Request("update", "path", UpdatePath(rotating, k++)));
        sample.done_s = now_s();
        sample.delivered = response.ok();
        if (response.ok()) sample.response = std::move(*response);
        load.updates.push_back(std::move(sample));
      }
      gate.Finish();
    }
  });

  const std::vector<int> cpus = AllowedCpus();
  double speed = HostSpeed(cpus);
  for (int r = 0; r < kWarmupRounds + plan.window_rounds; ++r) {
    // Each round's peak starts from trimmed heaps, so it does not carry
    // the fragmentation of the rounds before it.
    malloc_trim(0);
    ResetPeakRss();
    Round round;
    round.start_s = since_origin(gate.Run(r));
    round.peak_mb = PeakRssMb();
    const double after = HostSpeed(cpus);
    round.speed = 0.5 * (speed + after);
    speed = after;
    load.rounds.push_back(round);
  }
  gate.End();
  for (std::thread& t : threads) t.join();
  for (int f : failed_connects) load.connect_failures += f;
  for (std::vector<QuerySample>& samples : per_client) {
    for (QuerySample& s : samples) load.queries.push_back(std::move(s));
  }
  return load;
}

/// Replaces one character inside the first answer's column name: the
/// response stays well-formed JSON but no longer matches the batch answer.
void AlterFirstAnswer(LoadResult* load) {
  for (QuerySample& s : load->queries) {
    const size_t at = s.response.find("\"column\":\"");
    if (s.query == kInjected || !s.delivered || at == std::string::npos) {
      continue;
    }
    char& c = s.response[at + 10];
    c = c == 'x' ? 'y' : 'x';
    return;
  }
}

bool ResponseOk(const std::string& response, double* epoch) {
  tj::Result<JsonValue> parsed = JsonValue::Parse(response);
  if (!parsed.ok()) return false;
  const JsonValue* ok = parsed->Find("ok");
  const JsonValue* e = parsed->Find("epoch");
  if (e != nullptr && e->is_number() && epoch != nullptr) *epoch = e->AsNumber();
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

/// Checks every recorded response: failed requests are counted; served
/// answers must equal the batch answer byte for byte except the epoch;
/// each update's ack must carry a newer epoch. Returns the queries that
/// were answered at least once.
std::vector<bool> CheckLoad(const LoadResult& load,
                            const std::vector<Query>& queries,
                            Outcome* outcome) {
  std::vector<bool> answered(queries.size(), false);
  for (int i = 0; i < load.connect_failures; ++i) outcome->Attempt(false);
  for (const QuerySample& s : load.queries) {
    const bool ok = s.delivered && ResponseOk(s.response, nullptr);
    if (s.query == kInjected || !ok) {
      // A delivered answer that does not parse is a wrong answer, not a
      // failed request.
      if (s.query != kInjected && s.delivered &&
          !JsonValue::Parse(s.response).ok()) {
        outcome->Diverge("unparseable served answer");
      }
      outcome->Attempt(ok);
      continue;
    }
    outcome->Attempt(true);
    const Query& q = queries[s.query];
    const std::string diff = CompareServedAnswer(q.results, q.spec, s.response);
    if (!diff.empty()) {
      outcome->Diverge(diff);
    } else {
      answered[s.query] = true;
    }
  }
  double last_epoch = -1.0;
  for (const UpdateSample& s : load.updates) {
    double epoch = -1.0;
    const bool ok = s.delivered && ResponseOk(s.response, &epoch);
    outcome->Attempt(ok);
    if (!ok) continue;
    if (epoch <= last_epoch) outcome->Diverge("update ack epoch not newer");
    last_epoch = epoch;
  }
  return answered;
}

/// The measured rounds' answered samples (a request not answered ok:true
/// counts only as a failure). Latencies and spans are scaled to reference
/// speed by their round's probed host speed; *_wall_* are as measured.
struct LoadFigures {
  std::vector<double> query_ms;
  std::vector<double> query_wall_ms;
  std::vector<double> mutation_ms;
  std::vector<double> late_ms;
  double pairs = 0.0;
  /// Share of answered queries whose column was already asked, by any
  /// client, earlier in the same epoch: the reuse the per-epoch index
  /// cache can serve.
  double repeat_share = 0.0;
  /// Sum over the measured rounds of the time from the round's start to
  /// its last answer: the denominator of the rates.
  double span_s = 0.0;
  double span_wall_s = 0.0;
  double speed = 1.0;     // median host speed of the measured rounds
  double peak_mb = 0.0;   // median peak RSS of the measured rounds
};

LoadFigures WindowFigures(const LoadResult& load,
                          const std::vector<Query>& queries) {
  LoadFigures f;
  const auto measured = [](int round) { return round >= kWarmupRounds; };
  std::vector<double> last_answer_s(load.rounds.size(), 0.0);
  std::set<std::pair<double, size_t>> asked;  // (epoch, query) answered
  for (const QuerySample& s : load.queries) {
    double epoch = -1.0;
    if (s.query == kInjected || !s.delivered || !measured(s.round) ||
        !ResponseOk(s.response, &epoch)) {
      continue;
    }
    const double wall_ms = 1000.0 * (s.done_s - s.sent_s);
    f.query_ms.push_back(wall_ms * load.rounds[s.round].speed);
    f.query_wall_ms.push_back(wall_ms);
    f.pairs += static_cast<double>(queries[s.query].candidates.size());
    last_answer_s[s.round] = std::max(last_answer_s[s.round], s.done_s);
    asked.insert({epoch, s.query});
  }
  if (!f.query_ms.empty()) {
    f.repeat_share = 1.0 - static_cast<double>(asked.size()) /
                               static_cast<double>(f.query_ms.size());
  }
  std::vector<double> speeds;
  std::vector<double> peaks;
  for (size_t r = 0; r < load.rounds.size(); ++r) {
    if (!measured(static_cast<int>(r))) continue;
    const Round& round = load.rounds[r];
    const double span = std::max(0.0, last_answer_s[r] - round.start_s);
    f.span_s += span * round.speed;
    f.span_wall_s += span;
    speeds.push_back(round.speed);
    peaks.push_back(round.peak_mb);
  }
  f.speed = Median(speeds);
  f.peak_mb = Median(peaks);
  for (const UpdateSample& s : load.updates) {
    if (!s.delivered || !measured(s.round) ||
        !ResponseOk(s.response, nullptr)) {
      continue;
    }
    f.mutation_ms.push_back(1000.0 * (s.done_s - s.due_s) *
                            load.rounds[s.round].speed);
    f.late_ms.push_back(1000.0 * (s.sent_s - s.due_s));
  }
  return f;
}

/// Recall and F1 over the planted pairs whose column was answered.
void TallyServed(const tj::serve::CorpusSnapshot& snapshot,
                 const std::vector<Query>& queries,
                 const std::vector<bool>& answered,
                 const std::vector<PlantedRef>& planted, QualityTally* tally,
                 Outcome* outcome) {
  std::vector<tj::CorpusPairResult> served;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!answered[i]) continue;
    served.insert(served.end(), queries[i].batch.begin(),
                  queries[i].batch.end());
  }
  TallyCorpus(snapshot, served, planted, tally, outcome);
}

tj::Result<JsonValue> Stats() {
  tj::serve::ServeClient client;
  TJ_RETURN_IF_ERROR(client.Connect(kSocket));
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue::Str("stats"));
  return client.Call(request);
}

double StatNumber(const tj::Result<JsonValue>& stats, const char* key) {
  if (!stats.ok()) return 0.0;
  const JsonValue* v = stats->Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
}

/// One warm-up round, then `seconds` of measured rounds (shorter rounds at
/// the self-check scale).
LoadPlan ServePlan(const RunOptions& options, double seconds) {
  LoadPlan plan;
  plan.round_s = std::min(kRoundS, options.tiny ? 1.0 : seconds);
  plan.window_rounds =
      std::max(1, static_cast<int>(std::lround(seconds / plan.round_s)));
  return plan;
}

struct ServeSetup {
  std::unique_ptr<Daemon> daemon;
  std::shared_ptr<const tj::serve::CorpusSnapshot> snapshot;
  std::vector<Query> queries;
  std::vector<std::string> rotating;
  std::vector<PlantedRef> planted;
};

tj::Status PrepareServe(const std::vector<PlantedPair>& planted,
                        ServeSetup* setup, Outcome* outcome) {
  setup->snapshot = setup->daemon->server->current_snapshot();
  tj::Result<std::vector<Query>> queries =
      ExpectedAnswers(*setup->snapshot, planted, outcome);
  if (!queries.ok()) return queries.status();
  setup->queries = std::move(*queries);
  setup->rotating = RotatingTables();
  if (setup->rotating.empty()) return tj::Status::NotFound("no alt/ tables");
  tj::Result<std::vector<PlantedRef>> refs =
      ResolvePlanted(planted, [&](const std::string& name) {
        return setup->snapshot->ResolveTable(name);
      });
  if (!refs.ok()) return refs.status();
  setup->planted = std::move(*refs);
  return tj::Status::OK();
}

tj::Status RunServeMixed(const RunOptions& options,
                         const std::vector<PlantedPair>& planted,
                         RunResult* out) {
  const std::vector<int> cpus = AllowedCpus();
  std::vector<Timing> setups;
  ServeSetup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.daemon.reset();  // shut the previous daemon down, untimed
    tj::Status started;
    setups.push_back(Calibrated(cpus, [&] {
      double seconds = 0.0;
      started = StartDaemon(&setup.daemon, &seconds);
      return seconds;
    }));
    TJ_RETURN_IF_ERROR(started);
  }
  TJ_RETURN_IF_ERROR(PrepareServe(planted, &setup, &out->outcome));

  LoadResult load = DriveLoad(setup.queries, setup.rotating,
                              ServePlan(options, options.seconds),
                              options.seed, options.inject_failures);
  const tj::Result<JsonValue> stats = Stats();
  setup.daemon.reset();
  if (options.alter_answer) AlterFirstAnswer(&load);

  const std::vector<bool> answered =
      CheckLoad(load, setup.queries, &out->outcome);
  QualityTally tally;
  TallyServed(*setup.snapshot, setup.queries, answered, setup.planted, &tally,
              &out->outcome);
  const LoadFigures f = WindowFigures(load, setup.queries);
  const auto rate = [](double count, double span_s) {
    return span_s > 0.0 ? count / span_s : 0.0;
  };

  Report& r = out->report;
  AddSetup(setups, &r);
  r.Add("pairs_per_s", rate(f.pairs, f.span_s), "1/s");
  r.Add("query_p50_ms", Median(f.query_ms), "ms");
  r.Add("peak_rss_mb", f.peak_mb, "MB");
  r.Add("pair_recall", tally.Recall(), "ratio");
  r.Add("join_f1", tally.rows.F1(), "ratio");
  r.Add("failed_ratio", out->outcome.FailedRatio(), "ratio");
  const auto queries = static_cast<double>(f.query_ms.size());
  r.Add("query_qps", rate(queries, f.span_s), "1/s");
  if (const std::optional<double> p90 = TailPercentile(f.query_ms, 0.9)) {
    r.Add("query_p90_ms", *p90, "ms");
  }
  r.Add("query_samples", queries, "count");
  r.Add("served_columns", static_cast<double>(setup.queries.size()), "count");
  r.Add("mutation_p50_ms", Median(f.mutation_ms), "ms");
  r.Add("mutation_samples", static_cast<double>(f.mutation_ms.size()),
        "count");
  r.Add("gen.update_late_ms", Median(f.late_ms), "ms");
  r.Add("gen.repeat_share", f.repeat_share, "ratio");
  r.Add("serve.epochs", StatNumber(stats, "snapshot_rebuilds"), "count");
  r.Add("raw.pairs_per_s", rate(f.pairs, f.span_wall_s), "1/s");
  r.Add("raw.query_p50_ms", Median(f.query_wall_ms), "ms");
  r.Add("raw.query_qps", rate(queries, f.span_wall_s), "1/s");
  r.Add("host.speed", f.speed, "ratio");
  return tj::Status::OK();
}

tj::Status TraceServeMixed(const RunOptions& options,
                           const std::vector<PlantedPair>& planted,
                           RunResult* out) {
  ServeSetup setup;
  double setup_s = 0.0;
  TJ_RETURN_IF_ERROR(StartDaemon(&setup.daemon, &setup_s));
  TJ_RETURN_IF_ERROR(PrepareServe(planted, &setup, &out->outcome));

  // Each distinct query alone, with no other load.
  std::vector<double> alone_ms;
  {
    tj::serve::ServeClient client;
    TJ_RETURN_IF_ERROR(client.Connect(kSocket));
    for (const Query& q : setup.queries) {
      const Clock::time_point start = Clock::now();
      tj::Result<std::string> response = client.CallRaw(q.request);
      alone_ms.push_back(1000.0 * Since(start));
      const bool ok = response.ok() && ResponseOk(*response, nullptr);
      out->outcome.Attempt(ok);
      if (ok) {
        const std::string diff =
            CompareServedAnswer(q.results, q.spec, *response);
        if (!diff.empty()) out->outcome.Diverge(diff);
      }
    }
  }
  LoadPlan traced = ServePlan(options, kRoundS);
  traced.window_rounds = kTracedLoadRounds;
  const LoadResult load = DriveLoad(setup.queries, setup.rotating, traced,
                                    options.seed, options.inject_failures);
  const tj::Result<JsonValue> stats = Stats();
  setup.daemon.reset();
  CheckLoad(load, setup.queries, &out->outcome);
  const LoadFigures f = WindowFigures(load, setup.queries);

  // Replay outside the daemon: the catalog, pruner and snapshot steps of
  // the start, each distinct query's pairs, and the updates' steps.
  Tracer tracer;
  LayerCounts counts;
  const tj::serve::ServeOptions serve = DaemonOptions();
  tj::JoinOptions join = serve.discovery.join;
  join.min_learning_pairs =
      std::max(join.min_learning_pairs, serve.discovery.min_learning_pairs);
  const int root = tracer.Begin("run", 0);
  tj::TableCatalog replica;
  {
    Tracer::Scope span(&tracer, "table.ingest", 0);
    TJ_RETURN_IF_ERROR(LoadCorpus(&replica));
  }
  counts.ingest_bytes = DirCsvBytes("corpus");
  size_t columns_sketched = replica.num_columns();
  {
    Tracer::Scope span(&tracer, "corpus.signature", 0);
    replica.ComputeSignatures(nullptr);
  }
  tj::IncrementalPairPruner pruner(serve.discovery.pruner);
  {
    Tracer::Scope span(&tracer, "corpus.shortlist", 0);
    pruner.Rebuild(replica, nullptr);
  }
  std::shared_ptr<const tj::serve::CorpusSnapshot> snapshot;
  {
    Tracer::Scope span(&tracer, "serve.snapshot", 0);
    snapshot = tj::serve::CorpusSnapshot::Build(
        replica, pruner, serve.index_cache_budget_bytes);
  }
  const tj::PairPrunerResult initial = snapshot->shortlist();

  std::vector<double> protocol_ms;
  std::vector<double> request_ms;
  tj::IndexCache cache(serve.index_cache_budget_bytes);
  std::vector<std::unique_ptr<tj::PairSet>> oriented;
  for (size_t qi = 0; qi < setup.queries.size(); ++qi) {
    const Query& q = setup.queries[qi];
    const uint64_t request = 1000 + qi;
    const Clock::time_point request_start = Clock::now();
    Tracer::Scope request_span(&tracer, "serve.request", request);
    double protocol_s = 0.0;
    {
      const Clock::time_point start = Clock::now();
      Tracer::Scope span(&tracer, "serve.protocol", request);
      const tj::Result<JsonValue> parsed = JsonValue::Parse(q.request);
      if (!parsed.ok()) out->outcome.Diverge("request does not parse");
      protocol_s += Since(start);
    }
    for (size_t j = 0; j < q.candidates.size(); ++j) {
      const tj::ColumnPairCandidate& c = q.candidates[j];
      const tj::ColumnRef source = c.a_is_source ? c.a : c.b;
      const tj::ColumnRef target = c.a_is_source ? c.b : c.a;
      const auto source_key =
          CacheKey(snapshot->table_fingerprint(source.table), source.column);
      const auto target_key =
          CacheKey(snapshot->table_fingerprint(target.table), target.column);
      const tj::Column& source_column = **snapshot->ResidentColumn(source);
      const tj::Column& target_column = **snapshot->ResidentColumn(target);
      WarmIndex(&tracer, request, source_column, source_key, &cache,
                join.match_options, &counts);
      WarmIndex(&tracer, request, target_column, target_key, &cache,
                join.match_options, &counts);
      const PairWork work = ReplayPair(
          &tracer, request, source_column, target_column, join, &cache,
          source_key, target_key,
          PlantedGolden(setup.planted, source, target, &oriented), &counts);
      out->outcome.Attempt(true);
      const tj::CorpusPairResult& batch = q.batch[j];
      const std::string diff = RulesDiff(work.rules, batch.transformations,
                                         work.joined.size(),
                                         batch.joined_rows);
      if (!diff.empty()) out->outcome.Diverge(q.spec + " replay: " + diff);
    }
    {
      const Clock::time_point start = Clock::now();
      Tracer::Scope span(&tracer, "serve.protocol", request);
      JsonValue response = JsonValue::Object();
      response.Set("ok", JsonValue::Bool(true));
      response.Set("epoch", JsonValue::Number(0));
      response.Set("column", JsonValue::Str(q.spec));
      response.Set("results", q.results);
      if (!JsonValue::Parse(response.Serialize()).ok()) {
        out->outcome.Diverge("response does not parse");
      }
      protocol_s += Since(start);
    }
    protocol_ms.push_back(1000.0 * protocol_s);
    request_ms.push_back(1000.0 * Since(request_start));
  }

  std::vector<double> update_ms;
  std::vector<double> snapshot_ms;
  const size_t updates = std::clamp<size_t>(load.updates.size(), 2,
                                            2 * setup.rotating.size());
  for (size_t k = 0; k < updates; ++k) {
    const uint64_t request = 2000 + k;
    const Clock::time_point update_start = Clock::now();
    Tracer::Scope update_span(&tracer, "serve.update", request);
    const std::string path = UpdatePath(setup.rotating, k);
    tj::Result<uint32_t> id = tj::Status::Internal("unset");
    {
      Tracer::Scope span(&tracer, "table.ingest", request);
      tj::Result<tj::Table> table = tj::ReadCsvFile(path);
      if (!table.ok()) return table.status();
      table->set_name(fs::path(path).stem().string());
      id = replica.UpdateTable(std::move(*table));
      if (!id.ok()) return id.status();
    }
    counts.ingest_bytes += FileBytes(path);
    columns_sketched += replica.table(*id).num_columns();
    {
      Tracer::Scope span(&tracer, "corpus.signature", request);
      replica.ComputeSignatures(nullptr);
    }
    {
      Tracer::Scope span(&tracer, "corpus.shortlist", request);
      pruner.OnTableUpdated(replica, *id, nullptr);
    }
    {
      const Clock::time_point start = Clock::now();
      Tracer::Scope span(&tracer, "serve.snapshot", request);
      snapshot = tj::serve::CorpusSnapshot::Build(
          replica, pruner, serve.index_cache_budget_bytes);
      snapshot_ms.push_back(1000.0 * Since(start));
    }
    update_ms.push_back(1000.0 * Since(update_start));
  }
  tracer.End(root);
  WriteSpans(tracer, options.workload, &out->outcome);

  double serial_pair_ms = 0.0;
  for (size_t i = 0; i < request_ms.size(); ++i) {
    serial_pair_ms += request_ms[i] - protocol_ms[i];
  }
  double alone_total_ms = 0.0;
  for (double ms : alone_ms) alone_total_ms += ms;
  tj::IndexCacheStats served_cache;
  served_cache.hits = static_cast<uint64_t>(StatNumber(stats, "index_cache_hits"));
  served_cache.misses =
      static_cast<uint64_t>(StatNumber(stats, "index_cache_misses"));
  AddLayerMetrics(tracer, counts, HitRatio(served_cache),
                  serial_pair_ms / (alone_total_ms * kServePoolThreads),
                  &out->report);
  AddCorpusMetrics(tracer, columns_sketched, pruner.cumulative_scored_pairs(),
                   initial.shortlist.size(),
                   PlantedInShortlist(initial, setup.planted), &out->report);
  Report& r = out->report;
  r.Add("serve.service_ms", Median(alone_ms), "ms");
  r.Add("serve.gate_wait_ms", Median(f.query_wall_ms) - Median(alone_ms),
        "ms");
  r.Add("serve.protocol_ms", Median(protocol_ms), "ms");
  r.Add("serve.snapshot_ms", Median(snapshot_ms), "ms");
  r.Add("serve.update_work_ms", Median(update_ms), "ms");
  r.Add("serve.epochs", StatNumber(stats, "snapshot_rebuilds"), "count");
  r.Add("gen.update_late_ms", Median(f.late_ms), "ms");
  r.Add("gen.repeat_share", f.repeat_share, "ratio");
  return tj::Status::OK();
}

}  // namespace

const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> names = {
      "setup_s",     "pairs_per_s", "query_p50_ms",
      "peak_rss_mb", "pair_recall", "join_f1"};
  return names;
}

const std::vector<std::string>& PerLayerMetrics() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const LayerMetric& m : kLayerMetrics) out.push_back(m.name);
    return out;
  }();
  return names;
}

tj::Result<RunResult> RunWorkload(const RunOptions& options) {
  tj::Result<std::vector<PlantedPair>> planted = LoadPlanted(".");
  if (!planted.ok()) return planted.status();
  RunResult out;
  tj::Status status;
  switch (options.workload) {
    case Workload::kLearnDeep:
      status = options.trace ? TraceLearnDeep(options, *planted, &out)
                             : RunLearnDeep(options, *planted, &out);
      break;
    case Workload::kRepoScan:
      status = options.trace ? TraceRepoScan(options, *planted, &out)
                             : RunRepoScan(options, *planted, &out);
      break;
    case Workload::kServeMixed:
      status = options.trace ? TraceServeMixed(options, *planted, &out)
                             : RunServeMixed(options, *planted, &out);
      break;
  }
  if (!status.ok()) return status;
  if (options.trace) AddAbsentLayers(&out.report);
  return out;
}

}  // namespace perfbench
