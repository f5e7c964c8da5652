// Corpus-scale discovery benchmark: sketch-pruned CorpusDiscovery vs. the
// brute-force all-pairs baseline on a generated synthetic corpus, plus the
// incremental-maintenance comparison — the cost of folding one new table
// into a live IncrementalPairPruner (exact scores only for the pairs whose
// sketches share an LSH bucket) vs. rebuilding the shortlist from scratch
// (O(N^2)) — measured at half and full corpus size so the scaling is
// visible. Reports the pruning ratio, wall
// times, and pairs/s, and (with --json PATH) emits a machine-readable
// record so CI can track the perf trajectory.
//
// Environment (parsed by SuiteOptionsFromEnv, like every report bench):
// TJ_BENCH_SCALE scales the corpus size (1.0 = 10 joinable pairs + 4 noise
// tables at 40 rows); TJ_NUM_THREADS sets the pair-level thread count
// (0 = all cores).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/storage_metrics.h"
#include "benchlib/suite.h"
#include "common/hash.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "datagen/corpus.h"
#include "index/index_cache.h"
#include "serve/client.h"
#include "serve/server.h"
#include "table/csv.h"

namespace {

/// Storage-core metrics for the corpus: total column-arena bytes and the
/// n-gram index size over every column (see benchlib/storage_metrics.h).
tj::StorageMetrics MeasureStorage(const tj::SynthCorpus& corpus) {
  tj::StorageMetrics m;
  for (const tj::Table& table : corpus.tables) {
    m.AddCells(table);
    for (const tj::Column& column : table.columns()) {
      m.MeasureColumn(column);
    }
  }
  return m;
}

struct RunOutcome {
  size_t evaluated_pairs = 0;
  size_t total_pairs = 0;
  double pruning_ratio = 0.0;
  double seconds = 0.0;
  size_t joined_rows = 0;
  size_t pairs_with_rules = 0;
  tj::CorpusDiscoveryResult result;  // kept for cross-backend comparison
};

RunOutcome Run(const tj::SynthCorpus& corpus,
               const tj::CorpusDiscoveryOptions& options) {
  tj::TableCatalog catalog;
  for (const tj::Table& table : corpus.tables) {
    auto added = catalog.AddTable(table);
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
      std::exit(1);
    }
  }
  tj::Stopwatch watch;
  tj::CorpusDiscoveryResult result =
      tj::DiscoverJoinableColumns(&catalog, options);
  RunOutcome outcome;
  outcome.seconds = watch.ElapsedSeconds();
  outcome.evaluated_pairs = result.results.size();
  outcome.total_pairs = result.total_column_pairs;
  outcome.pruning_ratio = result.PruningRatio();
  for (const tj::CorpusPairResult& pair : result.results) {
    outcome.joined_rows += pair.joined_rows;
    if (!pair.transformations.empty()) ++outcome.pairs_with_rules;
  }
  outcome.result = std::move(result);
  return outcome;
}

/// The cross-pair memoization scenario: one catalog, one IndexCache,
/// discovery run twice. The cold pass populates the cache (every distinct
/// shortlisted column builds once); the warm pass — a repeated discovery
/// over the unchanged repository, the QJoin steady state — hits on every
/// index. Both passes must be field-identical to the uncached run (the
/// caller gates on it), so the speedup is provably free of output drift.
struct CachedOutcome {
  RunOutcome cold;
  RunOutcome warm;
  tj::IndexCacheStats stats;  // after the warm pass
};

CachedOutcome RunCached(const tj::SynthCorpus& corpus,
                        const tj::CorpusDiscoveryOptions& base_options,
                        tj::IndexCache* cache) {
  tj::TableCatalog catalog;
  for (const tj::Table& table : corpus.tables) {
    auto added = catalog.AddTable(table);
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
      std::exit(1);
    }
  }
  tj::CorpusDiscoveryOptions options = base_options;
  options.index_cache = cache;

  CachedOutcome outcome;
  const auto pass = [&](RunOutcome* out) {
    tj::Stopwatch watch;
    tj::CorpusDiscoveryResult result =
        tj::DiscoverJoinableColumns(&catalog, options);
    out->seconds = watch.ElapsedSeconds();
    out->evaluated_pairs = result.results.size();
    out->total_pairs = result.total_column_pairs;
    out->pruning_ratio = result.PruningRatio();
    for (const tj::CorpusPairResult& pair : result.results) {
      out->joined_rows += pair.joined_rows;
      if (!pair.transformations.empty()) ++out->pairs_with_rules;
    }
    out->result = std::move(result);
  };
  pass(&outcome.cold);
  pass(&outcome.warm);
  outcome.stats = cache->GetStats();
  return outcome;
}

/// Field-by-field equality of two discovery results — the out-of-core
/// acceptance check: a spilled catalog must produce byte-identical output.
bool SameDiscoveryResults(const tj::CorpusDiscoveryResult& a,
                          const tj::CorpusDiscoveryResult& b) {
  if (a.total_column_pairs != b.total_column_pairs ||
      a.pruned_pairs != b.pruned_pairs ||
      a.results.size() != b.results.size()) {
    return false;
  }
  for (size_t i = 0; i < a.results.size(); ++i) {
    const tj::CorpusPairResult& x = a.results[i];
    const tj::CorpusPairResult& y = b.results[i];
    if (!(x.candidate.a == y.candidate.a) ||
        !(x.candidate.b == y.candidate.b) ||
        x.candidate.score != y.candidate.score ||
        !(x.source == y.source) || !(x.target == y.target) ||
        x.learning_pairs != y.learning_pairs ||
        x.joined_rows != y.joined_rows ||
        x.top_coverage != y.top_coverage ||
        x.transformations != y.transformations) {
      return false;
    }
  }
  return true;
}

struct SpillOutcome {
  size_t total_cell_bytes = 0;   // corpus cell bytes (all in spill files)
  size_t budget_bytes = 0;       // resident budget the catalog enforced
  size_t spilled_bytes = 0;      // spill-file bytes after the run
  size_t rss_growth_bytes = 0;   // RSS delta across the whole phase
  size_t peak_rss_bytes = 0;     // process peak sampled right after the run
  double seconds = 0.0;
  tj::CorpusDiscoveryResult result;
};

/// The out-of-core scenario: the same corpus generated straight into spill
/// files, cataloged under a resident budget of 1/4 of its cell bytes, and
/// discovered end-to-end. Runs BEFORE any in-memory pass so the RSS delta
/// reflects the spilled path alone.
SpillOutcome RunSpilled(const tj::SynthCorpusOptions& corpus_options,
                        const tj::CorpusDiscoveryOptions& options) {
  namespace fs = std::filesystem;
  SpillOutcome outcome;
  const fs::path dir =
      fs::temp_directory_path() /
      tj::StrPrintf("tj-bench-spill-%ld", static_cast<long>(::getpid()));
  const size_t rss_before = tj::CurrentRssBytes();

  // One shared spill dir for generation and catalog: AddTable's
  // AdoptStorage then no-ops (same kind, same directory) instead of
  // re-copying every cell byte into a second set of files.
  tj::SynthCorpusOptions spill_options = corpus_options;
  spill_options.storage.spill_dir = dir.string();
  spill_options.keep_row_ground_truth = false;  // heap-backed; not needed
  tj::SynthCorpus corpus = tj::GenerateSynthCorpus(spill_options);

  for (const tj::Table& table : corpus.tables) {
    outcome.total_cell_bytes += table.ArenaBytes();
  }

  tj::StorageOptions storage = spill_options.storage;
  storage.memory_budget_bytes =
      std::max<size_t>(outcome.total_cell_bytes / 4, 1);
  outcome.budget_bytes = storage.memory_budget_bytes;

  tj::TableCatalog catalog(storage);
  for (tj::Table& table : corpus.tables) {
    auto added = catalog.AddTable(std::move(table));
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
      std::exit(1);
    }
  }
  corpus.tables.clear();

  tj::Stopwatch watch;
  outcome.result = tj::DiscoverJoinableColumns(&catalog, options);
  outcome.seconds = watch.ElapsedSeconds();
  outcome.spilled_bytes = catalog.SpilledBytes();
  // Sampled before any in-memory pass faults the whole corpus: this is the
  // out-of-core path's actual high-water mark.
  outcome.peak_rss_bytes = tj::PeakRssBytes();
  const size_t rss_after = tj::CurrentRssBytes();
  outcome.rss_growth_bytes =
      rss_after > rss_before ? rss_after - rss_before : 0;

  std::error_code ec;
  fs::remove_all(dir, ec);
  return outcome;
}

struct IncrementalOutcome {
  size_t tables = 0;          // catalog size before the add
  size_t scored_pairs = 0;    // bucket-colliding pairs the add scored
  double add_seconds = 0.0;   // sketch + incremental rescoring + snapshot
  size_t rebuild_pairs = 0;   // column pairs a from-scratch rebuild scores
  double rebuild_seconds = 0.0;
};

/// Adds one fresh table to a live catalog of `corpus`'s tables and measures
/// the incremental fold-in — an LSH probe that exact-scores only the
/// tracked columns sharing a bucket with the new table's sketches — against
/// a from-scratch ShortlistPairs. Verifies the two shortlists are
/// bit-identical (the incremental contract) before reporting the costs.
IncrementalOutcome MeasureIncrementalAdd(const tj::SynthCorpus& corpus,
                                         const tj::Table& extra) {
  tj::TableCatalog catalog;
  for (const tj::Table& table : corpus.tables) {
    auto added = catalog.AddTable(table);
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
      std::exit(1);
    }
  }
  catalog.ComputeSignatures();
  const tj::PairPrunerOptions pruner_options;
  tj::IncrementalPairPruner pruner(pruner_options);
  pruner.Rebuild(catalog);

  IncrementalOutcome outcome;
  outcome.tables = catalog.num_tables();

  tj::Stopwatch add_watch;
  auto id = catalog.AddTable(extra);
  if (!id.ok()) {
    std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
    std::exit(1);
  }
  catalog.ComputeSignatures();  // sketches only the new table
  pruner.OnTableAdded(catalog, *id);
  const tj::PairPrunerResult incremental = pruner.Snapshot();
  outcome.add_seconds = add_watch.ElapsedSeconds();
  outcome.scored_pairs = pruner.last_scored_pairs();

  tj::Stopwatch rebuild_watch;
  const tj::PairPrunerResult scratch =
      tj::ShortlistPairs(catalog, pruner_options);
  outcome.rebuild_seconds = rebuild_watch.ElapsedSeconds();
  outcome.rebuild_pairs = scratch.total_pairs;

  if (incremental.shortlist.size() != scratch.shortlist.size() ||
      incremental.total_pairs != scratch.total_pairs ||
      incremental.pruned_pairs != scratch.pruned_pairs) {
    std::fprintf(stderr,
                 "incremental shortlist diverges from rebuild (%zu/%zu vs "
                 "%zu/%zu)\n",
                 incremental.shortlist.size(), incremental.total_pairs,
                 scratch.shortlist.size(), scratch.total_pairs);
    std::exit(1);
  }
  for (size_t i = 0; i < scratch.shortlist.size(); ++i) {
    if (!(incremental.shortlist[i].a == scratch.shortlist[i].a) ||
        !(incremental.shortlist[i].b == scratch.shortlist[i].b) ||
        incremental.shortlist[i].score != scratch.shortlist[i].score ||
        incremental.shortlist[i].a_is_source !=
            scratch.shortlist[i].a_is_source) {
      std::fprintf(stderr, "incremental shortlist diverges at rank %zu\n", i);
      std::exit(1);
    }
  }
  return outcome;
}

/// The million-table-scale scenario (10k tables at TJ_BENCH_SCALE=1): a
/// synthetic corpus of mostly non-overlapping noise tables with planted
/// joinable pairs, ingested through the LSH-banded incremental pruner.
/// Measures how many exact pair scores the bucket probes cost versus the
/// linear-scan count an exhaustive incremental build pays, then verifies
/// the probed shortlist is bit-identical to a full ShortlistPairs scan
/// (exit 1 otherwise).
struct LshScaleOutcome {
  size_t tables = 0;
  size_t probe_pairs = 0;       // cumulative exact scores via bucket probes
  size_t linear_pairs = 0;      // exhaustive incremental total: N*(N-1)/2
  size_t add_pairs_scored = 0;  // scores for ONE add at full corpus size
  size_t add_linear_pairs = 0;  // what that add costs exhaustively
  double ingest_seconds = 0.0;  // adds + sketches + probed fold-ins
  double fullscan_seconds = 0.0;
};

std::string ScaleCellText(size_t table, size_t row) {
  // Pseudorandom base-36 cells: noise tables must share (almost) no
  // 4-grams, or every sketch collides in some bucket and the probe
  // degenerates to a full scan. (Sketches lowercase their input, so a
  // mixed-case alphabet would not widen the gram space.)
  uint64_t a = tj::Mix64(table * 1315423911u + row);
  uint64_t b = tj::Mix64(a ^ 0x746a7363616c65ULL);
  std::string s;
  s.reserve(24);
  for (int i = 0; i < 12; ++i) {
    const auto d = static_cast<char>(a % 36);
    s.push_back(d < 26 ? static_cast<char>('a' + d)
                       : static_cast<char>('0' + d - 26));
    a /= 36;
  }
  for (int i = 0; i < 12; ++i) {
    const auto d = static_cast<char>(b % 36);
    s.push_back(d < 26 ? static_cast<char>('a' + d)
                       : static_cast<char>('0' + d - 26));
    b /= 36;
  }
  return s;
}

LshScaleOutcome RunLshScale(double scale, int num_threads) {
  constexpr size_t kRows = 4;
  constexpr size_t kJoinEvery = 100;  // tables 100k and 100k+1 join
  const size_t tables =
      std::max<size_t>(200, static_cast<size_t>(10000 * scale));

  tj::PairPrunerOptions options;

  LshScaleOutcome outcome;
  outcome.tables = tables;
  outcome.linear_pairs = tables * (tables - 1) / 2;

  tj::TableCatalog catalog;
  tj::ThreadPool pool(num_threads);
  tj::IncrementalPairPruner pruner(options);
  tj::Stopwatch ingest_watch;
  for (size_t i = 0; i < tables; ++i) {
    const size_t content = (i % kJoinEvery == 1) ? i - 1 : i;
    tj::Table table(tj::StrPrintf("scale%06zu", i));
    tj::Column value("value");
    for (size_t r = 0; r < kRows; ++r) {
      value.Append(ScaleCellText(content, r));
    }
    if (!table.AddColumn(std::move(value)).ok()) std::exit(1);
    auto id = catalog.AddTable(std::move(table));
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      std::exit(1);
    }
  }
  catalog.ComputeSignatures(&pool);
  pruner.Rebuild(catalog, &pool);  // probed fold-in, table by table
  outcome.probe_pairs = pruner.cumulative_scored_pairs();

  // One more add at full corpus size: the steady-state cost of folding a
  // fresh table into a 10k-table live corpus.
  {
    tj::Table extra("scale-extra");
    tj::Column value("value");
    for (size_t r = 0; r < kRows; ++r) {
      value.Append(ScaleCellText(tables + 7, r));
    }
    if (!extra.AddColumn(std::move(value)).ok()) std::exit(1);
    auto id = catalog.AddTable(std::move(extra));
    if (!id.ok()) std::exit(1);
    catalog.ComputeSignatures(&pool);
    outcome.add_linear_pairs = catalog.num_columns() - 1;
    pruner.OnTableAdded(catalog, *id, &pool);
    outcome.add_pairs_scored = pruner.last_scored_pairs();
  }
  outcome.ingest_seconds = ingest_watch.ElapsedSeconds();

  // Acceptance: the probed shortlist must be bit-identical to the full
  // scan, so the probe missed nothing the full scan kept.
  tj::Stopwatch scan_watch;
  const tj::PairPrunerResult full =
      tj::ShortlistPairs(catalog, options, &pool);
  outcome.fullscan_seconds = scan_watch.ElapsedSeconds();
  const tj::PairPrunerResult probed = pruner.Snapshot();
  if (probed.shortlist.size() != full.shortlist.size() ||
      probed.total_pairs != full.total_pairs ||
      probed.pruned_pairs != full.pruned_pairs) {
    std::fprintf(stderr,
                 "lsh-probed shortlist diverges from full scan (%zu/%zu vs "
                 "%zu/%zu)\n",
                 probed.shortlist.size(), probed.total_pairs,
                 full.shortlist.size(), full.total_pairs);
    std::exit(1);
  }
  for (size_t i = 0; i < full.shortlist.size(); ++i) {
    if (!(probed.shortlist[i].a == full.shortlist[i].a) ||
        !(probed.shortlist[i].b == full.shortlist[i].b) ||
        probed.shortlist[i].score != full.shortlist[i].score ||
        probed.shortlist[i].a_is_source != full.shortlist[i].a_is_source) {
      std::fprintf(stderr, "lsh-probed shortlist diverges at rank %zu\n", i);
      std::exit(1);
    }
  }
  return outcome;
}

/// The joinability-as-a-service scenario: an in-process CorpusServer on the
/// heap corpus, queried over its unix socket exactly like tjd clients.
/// `num_clients` threads, each on its own connection, send round-robin
/// 'joinable' queries against every golden source column. Measures
/// per-query latency (p50/p99 over all clients), sustained queries/s, and
/// the cost of one mutation round trip — CSV re-read, signature recompute,
/// pruner fold-in, and snapshot rebuild, i.e. the freshness price a live
/// corpus pays per change.
struct ServeOutcome {
  double query_p50_us = 0.0;
  double query_p99_us = 0.0;
  double snapshot_rebuild_ms = 0.0;
  double queries_per_second = 0.0;
  size_t queries = 0;
};

ServeOutcome RunServed(const tj::SynthCorpus& corpus,
                       const tj::CorpusDiscoveryOptions& options,
                       int num_clients) {
  using namespace tj;
  namespace fs = std::filesystem;
  ServeOutcome outcome;

  const std::string dir =
      (fs::temp_directory_path() /
       ("tj_bench_serve_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path = dir + "/tjd.sock";

  TableCatalog catalog;
  for (const Table& table : corpus.tables) {
    auto added = catalog.AddTable(table);
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
      std::exit(1);
    }
  }
  ThreadPool pool(options.num_threads);
  serve::ServeOptions serve_options;
  serve_options.socket_path = socket_path;
  serve_options.discovery = options;
  serve::CorpusServer server(&catalog, &pool, serve_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve: %s\n", started.ToString().c_str());
    std::exit(1);
  }

  std::vector<std::string> queries;
  for (const auto& pair : corpus.golden) {
    queries.push_back("{\"op\":\"joinable\",\"column\":\"" +
                      corpus.tables[pair.source_table].name() +
                      ".value\"}");
  }

  const auto connect = [&](serve::ServeClient* client) {
    if (!client->Connect(socket_path).ok()) {
      std::fprintf(stderr, "serve: cannot connect to %s\n",
                   socket_path.c_str());
      std::exit(1);
    }
  };
  serve::ServeClient client;
  connect(&client);
  // Warm up once per distinct query (first touch faults columns in).
  for (const std::string& query : queries) {
    if (!client.CallRaw(query).ok()) {
      std::fprintf(stderr, "serve: warmup query failed\n");
      std::exit(1);
    }
  }

  const size_t rounds = std::max<size_t>(1, 200 / queries.size());
  std::vector<std::vector<double>> per_client(
      static_cast<size_t>(num_clients));
  Stopwatch total;
  std::vector<std::thread> clients;
  for (std::vector<double>& client_latencies : per_client) {
    clients.emplace_back([&, latencies = &client_latencies] {
      serve::ServeClient own;
      connect(&own);
      latencies->reserve(rounds * queries.size());
      for (size_t round = 0; round < rounds; ++round) {
        for (const std::string& query : queries) {
          Stopwatch per_query;
          if (!own.CallRaw(query).ok()) {
            std::fprintf(stderr, "serve: query failed mid-benchmark\n");
            std::exit(1);
          }
          latencies->push_back(per_query.ElapsedSeconds() * 1e6);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double total_seconds = total.ElapsedSeconds();
  std::vector<double> latencies_us;
  for (const std::vector<double>& latencies : per_client) {
    latencies_us.insert(latencies_us.end(), latencies.begin(),
                        latencies.end());
  }
  outcome.queries = latencies_us.size();
  outcome.queries_per_second =
      total_seconds > 0 ? static_cast<double>(outcome.queries) / total_seconds
                        : 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  const auto percentile = [&](double p) {
    const size_t index = std::min(
        latencies_us.size() - 1,
        static_cast<size_t>(p * static_cast<double>(latencies_us.size())));
    return latencies_us[index];
  };
  outcome.query_p50_us = percentile(0.50);
  outcome.query_p99_us = percentile(0.99);

  // One mutation round trip = the snapshot freshness cost. Updating a
  // table with identical contents exercises the whole pipeline without
  // changing the corpus.
  const Table& victim = corpus.tables[corpus.golden[0].source_table];
  const std::string csv = dir + "/" + victim.name() + ".csv";
  if (!WriteCsvFile(victim, csv).ok()) {
    std::fprintf(stderr, "serve: cannot write %s\n", csv.c_str());
    std::exit(1);
  }
  Stopwatch rebuild;
  const auto updated =
      client.CallRaw("{\"op\":\"update\",\"path\":\"" + csv + "\"}");
  outcome.snapshot_rebuild_ms = rebuild.ElapsedSeconds() * 1e3;
  if (!updated.ok() ||
      updated->find("\"ok\":true") == std::string::npos) {
    std::fprintf(stderr, "serve: mutation round trip failed\n");
    std::exit(1);
  }

  client.Close();
  server.Shutdown();
  std::error_code ec;
  fs::remove_all(dir, ec);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tj;

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  const SuiteOptions env = SuiteOptionsFromEnv();
  const double scale = env.scale;
  const int num_threads = env.num_threads;

  SynthCorpusOptions corpus_options;
  corpus_options.num_joinable_pairs = static_cast<size_t>(10 * scale);
  if (corpus_options.num_joinable_pairs == 0) {
    corpus_options.num_joinable_pairs = 1;
  }
  corpus_options.num_noise_tables =
      corpus_options.num_joinable_pairs * 2 / 5;
  corpus_options.rows = 40;
  corpus_options.seed = 42;

  CorpusDiscoveryOptions pruned_options;
  pruned_options.num_threads = num_threads;

  CorpusDiscoveryOptions brute_options = pruned_options;
  brute_options.pruner.min_containment = 0.0;
  brute_options.pruner.require_charset_overlap = false;
  brute_options.pruner.min_rows = 0;

  // Out-of-core FIRST — before the heap corpus even exists: peak RSS is a
  // process-wide high-water mark, so the spilled phase's sample is only
  // meaningful while no in-memory copy of the corpus has been faulted.
  const SpillOutcome spilled = RunSpilled(corpus_options, pruned_options);

  const SynthCorpus corpus = GenerateSynthCorpus(corpus_options);
  std::printf("corpus: %zu tables (%zu joinable pairs), %zu rows each, "
              "threads=%d\n",
              corpus.tables.size(), corpus.golden.size(),
              corpus_options.rows, ResolveNumThreads(num_threads));

  const RunOutcome pruned = Run(corpus, pruned_options);

  // Cross-pair memoization: cold pass builds each distinct column's index
  // once into the cache, warm pass (repeated discovery over the unchanged
  // repository) is all hits. Both must match the uncached run exactly —
  // the cache identity gate, same pattern as the spill/LSH gates. Runs
  // back-to-back with the uncached pass, before brute force churns the
  // heap, so the cached/uncached comparison sees the same allocator state.
  IndexCache index_cache(256ull << 20);
  const CachedOutcome cached = RunCached(corpus, pruned_options, &index_cache);

  const RunOutcome brute = Run(corpus, brute_options);
  const bool cache_identical =
      SameDiscoveryResults(cached.cold.result, pruned.result) &&
      SameDiscoveryResults(cached.warm.result, pruned.result);
  if (!cache_identical) {
    std::fprintf(stderr,
                 "index-cached discovery DIVERGES from uncached (BUG)\n");
    return 1;
  }
  const bool spill_identical =
      SameDiscoveryResults(spilled.result, pruned.result);
  std::printf(
      "out-of-core: %zu cell bytes under a %zu-byte budget, %zu spilled "
      "bytes, rss growth %zu bytes, %s, output %s\n",
      spilled.total_cell_bytes, spilled.budget_bytes, spilled.spilled_bytes,
      spilled.rss_growth_bytes, FormatSeconds(spilled.seconds).c_str(),
      spill_identical ? "identical to in-memory" : "DIVERGES (BUG)");
  if (!spill_identical) return 1;

  StorageMetrics storage = MeasureStorage(corpus);
  // The heap corpus spills nothing; report the out-of-core catalog's
  // spill-file footprint and the peak RSS sampled right after the spilled
  // phase (before the in-memory passes faulted everything).
  storage.spilled_bytes = spilled.spilled_bytes;
  storage.peak_rss_bytes = spilled.peak_rss_bytes;
  PrintStorageSummary(storage);

  TablePrinter printer({"mode", "pairs eval", "pruned %", "seconds",
                        "pairs/s", "joined rows", "pairs w/ rules"});
  auto add_row = [&](const char* mode, const RunOutcome& o) {
    printer.AddRow({mode, StrPrintf("%zu", o.evaluated_pairs),
                    FormatDouble(100.0 * o.pruning_ratio, 1),
                    FormatSeconds(o.seconds),
                    FormatDouble(o.seconds > 0
                                     ? static_cast<double>(o.evaluated_pairs) /
                                           o.seconds
                                     : 0.0,
                                 1),
                    StrPrintf("%zu", o.joined_rows),
                    StrPrintf("%zu", o.pairs_with_rules)});
  };
  add_row("sketch-pruned", pruned);
  add_row("pruned+cache (cold)", cached.cold);
  add_row("pruned+cache (warm)", cached.warm);
  add_row("brute-force", brute);
  printer.Print();
  std::printf("speedup vs brute force: %.2fx\n",
              pruned.seconds > 0 ? brute.seconds / pruned.seconds : 0.0);
  std::printf(
      "index cache: %llu hits, %llu misses, %llu evictions, %llu bytes; "
      "warm repeat %.2fx vs uncached, output identical\n",
      static_cast<unsigned long long>(cached.stats.hits),
      static_cast<unsigned long long>(cached.stats.misses),
      static_cast<unsigned long long>(cached.stats.evictions),
      static_cast<unsigned long long>(cached.stats.bytes),
      cached.warm.seconds > 0 ? pruned.seconds / cached.warm.seconds : 0.0);

  // Incremental maintenance: fold one new table into a live shortlist at
  // half and full corpus size. Incremental scored pairs are the new table's
  // bucket collisions, set by how many tracked columns share grams with it
  // rather than by corpus size; the from-scratch rebuild grows
  // quadratically.
  SynthCorpusOptions half_options = corpus_options;
  half_options.num_joinable_pairs =
      std::max<size_t>(1, corpus_options.num_joinable_pairs / 2);
  half_options.num_noise_tables = corpus_options.num_noise_tables / 2;
  const SynthCorpus half_corpus = GenerateSynthCorpus(half_options);

  SynthCorpusOptions extra_options;
  extra_options.num_joinable_pairs = 1;
  extra_options.num_noise_tables = 0;
  extra_options.rows = corpus_options.rows;
  extra_options.seed = corpus_options.seed + 1;
  extra_options.name_prefix = "inc";
  const SynthCorpus extra = GenerateSynthCorpus(extra_options);

  const IncrementalOutcome inc_half =
      MeasureIncrementalAdd(half_corpus, extra.tables[0]);
  const IncrementalOutcome inc_full =
      MeasureIncrementalAdd(corpus, extra.tables[0]);

  TablePrinter inc_printer({"corpus tables", "incr pairs scored",
                            "incr time", "rebuild pairs", "rebuild time",
                            "score work saved"});
  auto add_inc_row = [&](const IncrementalOutcome& o) {
    inc_printer.AddRow(
        {StrPrintf("%zu", o.tables), StrPrintf("%zu", o.scored_pairs),
         FormatSeconds(o.add_seconds), StrPrintf("%zu", o.rebuild_pairs),
         FormatSeconds(o.rebuild_seconds),
         o.scored_pairs > 0
             ? StrPrintf("%.1fx", static_cast<double>(o.rebuild_pairs) /
                                      static_cast<double>(o.scored_pairs))
             : std::string("all")});
  };
  std::printf("\nincremental add of one table vs from-scratch rebuild:\n");
  add_inc_row(inc_half);
  add_inc_row(inc_full);
  inc_printer.Print();
  std::printf(
      "scored pairs half->full: incremental %zu -> %zu (probe collisions), "
      "rebuild %zu -> %zu (O(N^2))\n",
      inc_half.scored_pairs, inc_full.scored_pairs, inc_half.rebuild_pairs,
      inc_full.rebuild_pairs);

  // Million-table scale: LSH-banded probes vs the linear-scan incremental
  // build on a 10k-table corpus (scaled by TJ_BENCH_SCALE, floor 200).
  const LshScaleOutcome lsh = RunLshScale(scale, num_threads);
  std::printf(
      "\nlsh scale (%zu tables): probes scored %zu of %zu linear-scan "
      "pairs (%.3fx), one full-size add scored %zu of %zu (%.3fx), "
      "ingest %s, full-scan check %s\n",
      lsh.tables, lsh.probe_pairs, lsh.linear_pairs,
      lsh.linear_pairs > 0 ? static_cast<double>(lsh.probe_pairs) /
                                 static_cast<double>(lsh.linear_pairs)
                           : 0.0,
      lsh.add_pairs_scored, lsh.add_linear_pairs,
      lsh.add_linear_pairs > 0
          ? static_cast<double>(lsh.add_pairs_scored) /
                static_cast<double>(lsh.add_linear_pairs)
          : 0.0,
      FormatSeconds(lsh.ingest_seconds).c_str(),
      FormatSeconds(lsh.fullscan_seconds).c_str());

  // The same daemon with 1 and with 4 concurrent clients: queries evaluate
  // in parallel on their own connections, so queries/s should scale with
  // clients up to the core count while p50 holds.
  const ServeOutcome served = RunServed(corpus, pruned_options, 1);
  const ServeOutcome served4 = RunServed(corpus, pruned_options, 4);
  const auto print_served = [](int clients, const ServeOutcome& outcome) {
    std::printf("  %d client(s), %zu queries: p50 %.0f us, p99 %.0f us, "
                "%.0f queries/s\n",
                clients, outcome.queries, outcome.query_p50_us,
                outcome.query_p99_us, outcome.queries_per_second);
  };
  std::printf("\nserved queries (tjd protocol):\n");
  print_served(1, served);
  print_served(4, served4);
  std::printf("  mutation->fresh snapshot %.1f ms\n",
              served.snapshot_rebuild_ms);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"benchmark\": \"bench_corpus\",\n"
        "  \"tables\": %zu,\n"
        "  \"column_pairs\": %zu,\n"
        "  \"threads\": %d,\n"
        "  \"pruning_ratio\": %.6f,\n"
        "  \"evaluated_pairs\": %zu,\n"
        "  \"pruned_seconds\": %.6f,\n"
        "  \"pairs_per_second\": %.3f,\n"
        "  \"pairs_per_second_uncached\": %.3f,\n"
        "  \"pruned_cached_cold_seconds\": %.6f,\n"
        "  \"pruned_cached_warm_seconds\": %.6f,\n"
        "  \"cache_output_identical\": %s,\n"
        "  \"index_cache_hits\": %llu,\n"
        "  \"index_cache_misses\": %llu,\n"
        "  \"index_cache_evictions\": %llu,\n"
        "  \"index_cache_bytes\": %llu,\n"
        "  \"bruteforce_seconds\": %.6f,\n"
        "  \"bruteforce_pairs\": %zu,\n"
        "  \"speedup_vs_bruteforce\": %.3f,\n"
        "  \"incremental_half_tables\": %zu,\n"
        "  \"incremental_half_scored_pairs\": %zu,\n"
        "  \"incremental_half_add_seconds\": %.6f,\n"
        "  \"incremental_half_rebuild_pairs\": %zu,\n"
        "  \"incremental_half_rebuild_seconds\": %.6f,\n"
        "  \"incremental_full_tables\": %zu,\n"
        "  \"incremental_full_scored_pairs\": %zu,\n"
        "  \"incremental_full_add_seconds\": %.6f,\n"
        "  \"incremental_full_rebuild_pairs\": %zu,\n"
        "  \"incremental_full_rebuild_seconds\": %.6f,\n"
        "  \"incremental_pairs_per_second\": %.3f,\n"
        "  \"spill_total_cell_bytes\": %zu,\n"
        "  \"spill_budget_bytes\": %zu,\n"
        "  \"spill_rss_growth_bytes\": %zu,\n"
        "  \"spill_seconds\": %.6f,\n"
        "  \"spill_output_identical\": %s,\n",
        corpus.tables.size(), pruned.total_pairs,
        ResolveNumThreads(num_threads), pruned.pruning_ratio,
        pruned.evaluated_pairs, pruned.seconds,
        // Headline throughput is the warm cached pass — the steady state
        // of repeated discovery over a memoized repository; the uncached
        // figure alongside keeps the before/after visible to the trend.
        cached.warm.seconds > 0
            ? static_cast<double>(cached.warm.evaluated_pairs) /
                  cached.warm.seconds
            : 0.0,
        pruned.seconds > 0
            ? static_cast<double>(pruned.evaluated_pairs) / pruned.seconds
            : 0.0,
        cached.cold.seconds, cached.warm.seconds,
        cache_identical ? "true" : "false",
        static_cast<unsigned long long>(cached.stats.hits),
        static_cast<unsigned long long>(cached.stats.misses),
        static_cast<unsigned long long>(cached.stats.evictions),
        static_cast<unsigned long long>(cached.stats.bytes),
        brute.seconds, brute.evaluated_pairs,
        pruned.seconds > 0 ? brute.seconds / pruned.seconds : 0.0,
        inc_half.tables, inc_half.scored_pairs, inc_half.add_seconds,
        inc_half.rebuild_pairs, inc_half.rebuild_seconds, inc_full.tables,
        inc_full.scored_pairs, inc_full.add_seconds, inc_full.rebuild_pairs,
        inc_full.rebuild_seconds,
        inc_full.add_seconds > 0
            ? static_cast<double>(inc_full.scored_pairs) /
                  inc_full.add_seconds
            : 0.0,
        spilled.total_cell_bytes, spilled.budget_bytes,
        spilled.rss_growth_bytes, spilled.seconds,
        spill_identical ? "true" : "false");
    std::fprintf(f,
                 "  \"query_p50_us\": %.3f,\n"
                 "  \"query_p99_us\": %.3f,\n"
                 "  \"snapshot_rebuild_ms\": %.3f,\n"
                 "  \"queries_per_second\": %.3f,\n"
                 "  \"query_p50_us_4_clients\": %.3f,\n"
                 "  \"query_p99_us_4_clients\": %.3f,\n"
                 "  \"queries_per_second_4_clients\": %.3f,\n",
                 served.query_p50_us, served.query_p99_us,
                 served.snapshot_rebuild_ms, served.queries_per_second,
                 served4.query_p50_us, served4.query_p99_us,
                 served4.queries_per_second);
    std::fprintf(f,
                 "  \"lsh_scale_tables\": %zu,\n"
                 "  \"lsh_probe_pairs\": %zu,\n"
                 "  \"lsh_linear_pairs\": %zu,\n"
                 "  \"add_pairs_scored_10k\": %zu,\n"
                 "  \"add_linear_pairs_10k\": %zu,\n"
                 "  \"lsh_ingest_seconds\": %.6f,\n"
                 "  \"lsh_fullscan_seconds\": %.6f,\n",
                 lsh.tables, lsh.probe_pairs, lsh.linear_pairs,
                 lsh.add_pairs_scored, lsh.add_linear_pairs,
                 lsh.ingest_seconds, lsh.fullscan_seconds);
    WriteStorageJsonTail(f, storage);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
