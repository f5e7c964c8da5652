// corpus_discovery_tool: repository-scale joinable-column discovery over a
// directory of CSV tables.
//
//   corpus_discovery_tool <csv-dir> [--min-containment F]
//                         [--max-candidates N] [--top K]
//                         [--signatures cache.tj] [--out results.csv]
//                         [--add FILE]... [--remove NAME]... [--update FILE]...
//                         [--threads N] [--support F] [--spill-dir DIR]
//                         [--memory-budget BYTES] [--failpoints SPEC]
//   corpus_discovery_tool <csv-dir> --serve SOCKET [--watch DIR] [...]
//   corpus_discovery_tool --client SOCKET JSON...
//   corpus_discovery_tool --gen <dir> [--tables N] [--rows N] [--seed S]
//   corpus_discovery_tool --selftest
//
// Default mode registers every *.csv file of <csv-dir> in a TableCatalog,
// sketches the columns, prunes the column-pair space with the MinHash
// signatures, runs the full per-pair pipeline over the ranked shortlist on
// one shared thread pool, and prints the ranked results. With --signatures,
// the sketch cache is reloaded from / persisted to that file; the v2 cache
// format carries per-table content fingerprints, so entries for tables that
// changed on disk self-invalidate and only those tables are re-sketched —
// repeated runs over a mutating repository stay incremental.
//
// --add/--remove/--update apply catalog maintenance on top of the loaded
// directory through the incremental pruner: each op probes the LSH index
// with the touched table's sketches and scores only the colliding
// column pairs instead of rebuilding the whole shortlist, and prints the
// per-op scoring cost.
//
// --serve turns the tool into tjd, a long-lived daemon answering joinable /
// transform-join / add / update / remove / stats requests over a
// unix-domain socket with snapshot-isolated epochs (serve/server.h has the
// protocol); --watch additionally mirrors a directory's *.csv files into
// the live catalog. --client is the matching one-shot request sender
// (each JSON argument is sent as one frame; responses print one per line).
//
// --gen writes a
// synthetic demo corpus (joinable pairs + noise tables) to a directory;
// --selftest runs a set of named end-to-end checks on an in-memory corpus,
// prints each failing check by name, and exits with the number of failed
// checks (used as a ctest smoke test).
//
// --threads, --support, --spill-dir, --memory-budget and --failpoints are
// shared with csv_join_tool (tool_flags.h).

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "benchlib/report.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "datagen/corpus.h"
#include "index/index_cache.h"
#include "serve/client.h"
#include "serve/server.h"
#include "table/csv.h"
#include "tool_flags.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <csv-dir> [--min-containment F]\n"
      "          [--max-candidates N] [--top K]\n"
      "          [--signatures cache.tj] [--out results.csv]\n"
      "          [--index-cache-budget BYTES]\n"
      "          [--add FILE]... [--remove NAME]... [--update FILE]...\n"
      "          [--threads N] [--support F] [--spill-dir DIR]\n"
      "          [--memory-budget BYTES] [--failpoints SPEC]\n"
      "       %s <csv-dir> --serve SOCKET [--watch DIR] [options]\n"
      "       %s --client SOCKET JSON...\n"
      "       %s --gen <dir> [--tables N] [--rows N] [--seed S]\n"
      "       %s --selftest\n"
      "  --min-containment F: sketch containment pruning floor "
      "(default 0.05; 0 = brute force)\n"
      "  --signatures F: load/save the column sketch cache (v2: stale\n"
      "      entries self-invalidate via per-table fingerprints)\n"
      "  --index-cache-budget BYTES: byte budget for the per-column\n"
      "      inverted-index cache shared across pair evaluations (default\n"
      "      256m, 0 = unlimited); batch and --add/--update runs only\n"
      "  --add F / --remove NAME / --update F: incremental catalog\n"
      "      maintenance; only the touched table's pairs whose sketches\n"
      "      share an LSH bucket are rescored (every pair at floor 0)\n"
      "  --serve SOCKET: run as tjd, answering joinable/transform-join/\n"
      "      add/update/remove/stats requests over the unix socket\n"
      "      (length-prefixed JSON frames; snapshot-isolated epochs;\n"
      "      concurrent queries, at most 64 live connections); --threads\n"
      "      then sizes the startup and mutation pool only (each query\n"
      "      runs on its own connection's thread)\n"
      "  --watch DIR: with --serve, mirror DIR's *.csv files into the\n"
      "      live catalog (debounced; add/update/remove by file stem)\n"
      "  --client SOCKET JSON...: send each JSON argument as one request\n"
      "      to a running daemon and print each response on its own line\n",
      argv0, argv0, argv0, argv0, argv0);
  std::fputs(tj::cli::kSharedUsage, stderr);
  return tj::cli::kUsageExit;
}

int GenerateDemoCorpus(const std::string& dir, size_t tables, size_t rows,
                       uint64_t seed) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  tj::SynthCorpusOptions options;
  // `tables` counts total tables: 2 per joinable pair plus ~20%% noise.
  options.num_joinable_pairs = tables >= 4 ? tables * 2 / 5 : 1;
  options.num_noise_tables = tables - 2 * options.num_joinable_pairs;
  options.rows = rows;
  options.seed = seed;
  const tj::SynthCorpus corpus = tj::GenerateSynthCorpus(options);
  for (const tj::Table& table : corpus.tables) {
    const std::string path =
        (fs::path(dir) / (table.name() + ".csv")).string();
    const tj::Status written = tj::WriteCsvFile(table, path);
    if (!written.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
  }
  std::printf("wrote %zu tables (%zu joinable pairs, %zu noise) to %s\n",
              corpus.tables.size(), options.num_joinable_pairs,
              options.num_noise_tables, dir.c_str());
  for (const auto& golden : corpus.golden) {
    std::printf("  joinable: %s.csv <-> %s.csv\n",
                corpus.tables[golden.source_table].name().c_str(),
                corpus.tables[golden.target_table].name().c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --selftest: named end-to-end checks. Each check prints its own failure
// detail; the driver prints a per-check verdict line so a ctest log
// pinpoints exactly which guarantee regressed.
// ---------------------------------------------------------------------------

tj::SynthCorpus SelfTestCorpus() {
  tj::SynthCorpusOptions corpus_options;
  corpus_options.num_joinable_pairs = 4;
  corpus_options.num_noise_tables = 2;
  corpus_options.rows = 30;
  corpus_options.seed = 5;
  return tj::GenerateSynthCorpus(corpus_options);
}

bool BuildSelfTestCatalog(const tj::SynthCorpus& corpus,
                          tj::TableCatalog* catalog) {
  for (const tj::Table& table : corpus.tables) {
    auto added = catalog->AddTable(table);
    if (!added.ok()) {
      std::fprintf(stderr, "  %s\n", added.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

/// Pruning + golden recall of the end-to-end pipeline (the original smoke
/// check, split so failures name the broken half).
bool CheckPruningRatio(const tj::CorpusDiscoveryResult& result) {
  if (result.PruningRatio() < 0.5) {
    std::fprintf(stderr, "  expected >= 50%% pruning, got %.1f%%\n",
                 100.0 * result.PruningRatio());
    return false;
  }
  return true;
}

bool CheckGoldenJoins(const tj::SynthCorpus& corpus,
                      const tj::CorpusDiscoveryResult& result) {
  bool ok = true;
  for (const auto& golden : corpus.golden) {
    bool found = false;
    for (const tj::CorpusPairResult& pair : result.results) {
      const bool matches =
          (pair.source.table == golden.source_table &&
           pair.target.table == golden.target_table) ||
          (pair.source.table == golden.target_table &&
           pair.target.table == golden.source_table);
      if (matches && pair.joined_rows > 0) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "  golden pair %s <-> %s not joined\n",
                   corpus.tables[golden.source_table].name().c_str(),
                   corpus.tables[golden.target_table].name().c_str());
      ok = false;
    }
  }
  return ok;
}

/// Incremental add/remove must match a from-scratch shortlist rebuild.
bool CheckIncrementalEquivalence(const tj::SynthCorpus& corpus) {
  tj::TableCatalog catalog;
  if (!BuildSelfTestCatalog(corpus, &catalog)) return false;
  catalog.ComputeSignatures();
  const tj::PairPrunerOptions pruner_options;
  tj::IncrementalPairPruner pruner(pruner_options);
  pruner.Rebuild(catalog);

  // Add a table from a differently-prefixed corpus, remove one original.
  tj::SynthCorpusOptions extra_options;
  extra_options.num_joinable_pairs = 1;
  extra_options.num_noise_tables = 0;
  extra_options.rows = 30;
  extra_options.seed = 99;
  extra_options.name_prefix = "inc";
  const tj::SynthCorpus extra = tj::GenerateSynthCorpus(extra_options);

  auto added = catalog.AddTable(extra.tables[0]);
  if (!added.ok()) {
    std::fprintf(stderr, "  %s\n", added.status().ToString().c_str());
    return false;
  }
  catalog.ComputeSignatures();
  pruner.OnTableAdded(catalog, *added);

  const std::string removed_name = corpus.tables[0].name();
  auto removed_id = catalog.TableIndex(removed_name);
  if (!removed_id.ok() || !catalog.RemoveTable(removed_name).ok()) {
    std::fprintf(stderr, "  cannot remove %s\n", removed_name.c_str());
    return false;
  }
  pruner.OnTableRemoved(*removed_id);

  const tj::PairPrunerResult incremental = pruner.Snapshot();
  const tj::PairPrunerResult scratch =
      tj::ShortlistPairs(catalog, pruner_options);
  if (incremental.total_pairs != scratch.total_pairs ||
      incremental.pruned_pairs != scratch.pruned_pairs ||
      incremental.shortlist.size() != scratch.shortlist.size()) {
    std::fprintf(stderr,
                 "  totals diverge: incremental %zu/%zu/%zu vs scratch "
                 "%zu/%zu/%zu\n",
                 incremental.total_pairs, incremental.pruned_pairs,
                 incremental.shortlist.size(), scratch.total_pairs,
                 scratch.pruned_pairs, scratch.shortlist.size());
    return false;
  }
  for (size_t i = 0; i < scratch.shortlist.size(); ++i) {
    const tj::ColumnPairCandidate& x = incremental.shortlist[i];
    const tj::ColumnPairCandidate& y = scratch.shortlist[i];
    if (!(x.a == y.a) || !(x.b == y.b) || x.score != y.score ||
        x.a_is_source != y.a_is_source) {
      std::fprintf(stderr, "  shortlist diverges at rank %zu\n", i);
      return false;
    }
  }
  return true;
}

/// The v2 signature cache must round-trip, and a stale entry (table content
/// changed since the cache was written) must self-invalidate on reload.
bool CheckCacheInvalidation(const tj::SynthCorpus& corpus) {
  tj::TableCatalog catalog;
  if (!BuildSelfTestCatalog(corpus, &catalog)) return false;
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  tj::TableCatalog reloaded;
  if (!BuildSelfTestCatalog(corpus, &reloaded)) return false;
  const tj::Status loaded = reloaded.LoadSignatures(dump);
  if (!loaded.ok()) {
    std::fprintf(stderr, "  round-trip load failed: %s\n",
                 loaded.ToString().c_str());
    return false;
  }
  for (const tj::ColumnRef ref : reloaded.AllColumns()) {
    if (!reloaded.HasSignature(ref)) {
      std::fprintf(stderr, "  round-trip left a column unsigned\n");
      return false;
    }
  }

  // Mutate one table: its cache block must be skipped on reload.
  tj::TableCatalog stale;
  if (!BuildSelfTestCatalog(corpus, &stale)) return false;
  tj::Table mutated = corpus.tables[0];
  mutated.mutable_column(0).Set(0, "mutated-cell-value");
  if (!stale.UpdateTable(std::move(mutated)).ok()) {
    std::fprintf(stderr, "  UpdateTable failed\n");
    return false;
  }
  const tj::Status stale_load = stale.LoadSignatures(dump);
  if (!stale_load.ok()) {
    std::fprintf(stderr, "  stale load should skip, not fail: %s\n",
                 stale_load.ToString().c_str());
    return false;
  }
  auto mutated_id = stale.TableIndex(corpus.tables[0].name());
  if (!mutated_id.ok()) return false;
  if (stale.HasSignature(tj::ColumnRef{*mutated_id, 0})) {
    std::fprintf(stderr,
                 "  stale sketch was served for a mutated table\n");
    return false;
  }

  // Malformed input fails closed.
  if (stale.LoadSignatures("# tj-signatures v2\ngarbage\n").ok()) {
    std::fprintf(stderr, "  malformed dump was accepted\n");
    return false;
  }
  return true;
}

int SelfTest() {
  const tj::SynthCorpus corpus = SelfTestCorpus();
  tj::TableCatalog catalog;
  if (!BuildSelfTestCatalog(corpus, &catalog)) {
    std::fprintf(stderr, "selftest: cannot build catalog\n");
    return 1;
  }
  tj::CorpusDiscoveryOptions options;
  options.num_threads = 2;
  const tj::CorpusDiscoveryResult result =
      tj::DiscoverJoinableColumns(&catalog, options);
  std::printf("%s", result.Describe(catalog).c_str());

  struct Check {
    const char* name;
    bool passed;
  };
  const Check checks[] = {
      {"pruning-ratio", CheckPruningRatio(result)},
      {"golden-joins", CheckGoldenJoins(corpus, result)},
      {"incremental-equivalence", CheckIncrementalEquivalence(corpus)},
      {"cache-invalidation", CheckCacheInvalidation(corpus)},
  };
  int failed = 0;
  for (const Check& check : checks) {
    std::printf("selftest check %-26s %s\n", check.name,
                check.passed ? "OK" : "FAIL");
    if (!check.passed) ++failed;
  }
  if (failed != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failed);
    return failed;
  }
  std::printf("selftest: OK (%zu pairs evaluated, %.1f%% pruned)\n",
              result.results.size(), 100.0 * result.PruningRatio());
  return 0;
}

struct MaintenanceOp {
  enum Kind { kAdd, kRemove, kUpdate } kind;
  std::string arg;  // CSV path for add/update, table name for remove
};

// ---------------------------------------------------------------------------
// --client: one-shot request sender for a running daemon.
// ---------------------------------------------------------------------------

int RunClient(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: %s --client SOCKET JSON...\n", argv[0]);
    return 2;
  }
  tj::serve::ServeClient client;
  const tj::Status connected = client.Connect(argv[2]);
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n", connected.ToString().c_str());
    return 1;
  }
  int failed = 0;
  for (int i = 3; i < argc; ++i) {
    const auto response = client.CallRaw(argv[i]);
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", response->c_str());
    // Reflect protocol-level failures in the exit code so shell scripts
    // can branch on them without parsing JSON.
    const auto parsed = tj::serve::JsonValue::Parse(*response);
    if (parsed.ok()) {
      const tj::serve::JsonValue* ok = parsed->Find("ok");
      if (ok != nullptr && ok->is_bool() && !ok->AsBool()) ++failed;
    }
  }
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --serve: the tjd daemon loop.
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_signal_stop = 0;

void OnStopSignal(int) { g_signal_stop = 1; }

int RunDaemon(tj::TableCatalog* catalog, tj::serve::ServeOptions options,
              int num_threads) {
  // One pool for the daemon's whole life, used by startup and mutation
  // batches (signatures, shortlist maintenance) under the exclusive side
  // of the server's compute gate. Served queries run concurrently, each on
  // its own connection's thread, and never touch it.
  tj::ThreadPool pool(num_threads);
  tj::serve::CorpusServer server(catalog, &pool, std::move(options));
  const tj::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
  const auto snapshot = server.current_snapshot();
  std::printf("tjd: serving %zu tables (%zu columns, %zu shortlisted "
              "pairs) at epoch %llu\n",
              snapshot->num_tables(), snapshot->num_columns(),
              snapshot->shortlist().shortlist.size(),
              static_cast<unsigned long long>(snapshot->epoch()));
  // WaitFor instead of Wait: a signal handler can only set a flag, so the
  // main thread has to poll it between condition waits.
  while (g_signal_stop == 0 && !server.WaitFor(200)) {
  }
  std::printf("tjd: shutting down (served %llu queries, applied %llu "
              "mutations)\n",
              static_cast<unsigned long long>(server.queries_served()),
              static_cast<unsigned long long>(server.mutations_applied()));
  server.Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tj;

  if (argc < 2) return Usage(argv[0]);

  if (std::strcmp(argv[1], "--selftest") == 0) return SelfTest();
  if (std::strcmp(argv[1], "--client") == 0) return RunClient(argc, argv);

  if (std::strcmp(argv[1], "--gen") == 0) {
    if (argc < 3) return Usage(argv[0]);
    const std::string dir = argv[2];
    size_t tables = 10;
    size_t rows = 40;
    uint64_t seed = 1;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--tables") == 0 && i + 1 < argc) {
        // Fewer than 2 tables would wrap the noise-table count below zero.
        if (!ParseWhole(argv[++i], &tables) || tables < 2) {
          return cli::InvalidValue(Usage, argv[0], "--tables", argv[i]);
        }
      } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
        if (!ParseWhole(argv[++i], &rows) || rows == 0) {
          return cli::InvalidValue(Usage, argv[0], "--rows", argv[i]);
        }
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        if (!ParseWhole(argv[++i], &seed)) {
          return cli::InvalidValue(Usage, argv[0], "--seed", argv[i]);
        }
      } else {
        return Usage(argv[0]);
      }
    }
    return GenerateDemoCorpus(dir, tables, rows, seed);
  }

  const std::string dir = argv[1];
  CorpusDiscoveryOptions options;
  options.num_threads = 0;  // all cores
  size_t top = 20;
  std::string signatures_path;
  std::string out_path;
  std::string serve_socket;
  std::string watch_dir;
  StorageOptions storage;
  size_t index_cache_budget = serve::kDefaultIndexCacheBudgetBytes;
  bool index_cache_budget_set = false;
  std::vector<MaintenanceOp> ops;
  for (int i = 2; i < argc; ++i) {
    const cli::SharedFlag shared = cli::ParseSharedFlag(
        argc, argv, &i, Usage, &options.num_threads, &options.join, &storage);
    if (shared == cli::SharedFlag::kRejected) return cli::kUsageExit;
    if (shared == cli::SharedFlag::kParsed) continue;
    if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_socket = argv[++i];
    } else if (std::strcmp(argv[i], "--watch") == 0 && i + 1 < argc) {
      watch_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--index-cache-budget") == 0 &&
               i + 1 < argc) {
      if (!ParseByteSize(argv[++i], &index_cache_budget)) {
        return cli::InvalidValue(Usage, argv[0], "--index-cache-budget",
                                 argv[i]);
      }
      index_cache_budget_set = true;
    } else if (std::strcmp(argv[i], "--min-containment") == 0 &&
               i + 1 < argc) {
      if (!ParseWhole(argv[++i], &options.pruner.min_containment)) {
        return cli::InvalidValue(Usage, argv[0], "--min-containment",
                                 argv[i]);
      }
      if (options.pruner.min_containment <= 0.0) {
        options.pruner.require_charset_overlap = false;  // true brute force
      }
    } else if (std::strcmp(argv[i], "--max-candidates") == 0 &&
               i + 1 < argc) {
      if (!ParseWhole(argv[++i], &options.pruner.max_candidates)) {
        return cli::InvalidValue(Usage, argv[0], "--max-candidates",
                                 argv[i]);
      }
    } else if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      if (!ParseWhole(argv[++i], &top)) {
        return cli::InvalidValue(Usage, argv[0], "--top", argv[i]);
      }
    } else if (std::strcmp(argv[i], "--signatures") == 0 && i + 1 < argc) {
      signatures_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--add") == 0 && i + 1 < argc) {
      ops.push_back({MaintenanceOp::kAdd, argv[++i]});
    } else if (std::strcmp(argv[i], "--remove") == 0 && i + 1 < argc) {
      ops.push_back({MaintenanceOp::kRemove, argv[++i]});
    } else if (std::strcmp(argv[i], "--update") == 0 && i + 1 < argc) {
      ops.push_back({MaintenanceOp::kUpdate, argv[++i]});
    } else {
      return Usage(argv[0]);
    }
  }

  // Reject malformed configuration up front with a message instead of a
  // downstream TJ_CHECK abort: the same ValidateOptions surface the daemon
  // uses to turn bad client requests into error responses.
  const Status valid_pruner = ValidateOptions(options.pruner);
  if (!valid_pruner.ok()) return cli::InvalidOptions(valid_pruner);
  if (!watch_dir.empty() && serve_socket.empty()) {
    std::fprintf(stderr, "--watch requires --serve\n");
    return Usage(argv[0]);
  }
  if (index_cache_budget_set && !serve_socket.empty()) {
    std::fprintf(stderr,
                 "--index-cache-budget is batch-only; the daemon caches no "
                 "indexes\n");
    return Usage(argv[0]);
  }
  if (!serve_socket.empty() && !ops.empty()) {
    std::fprintf(stderr,
                 "--add/--remove/--update are client requests in serve "
                 "mode; use --client\n");
    return Usage(argv[0]);
  }
  const int prepared = cli::PrepareOptions(options.join, storage);
  if (prepared != 0) return prepared;

  TableCatalog catalog(storage);
  const auto loaded_dir = catalog.AddCsvDirectory(dir);
  if (!loaded_dir.ok()) {
    std::fprintf(stderr, "error loading %s: %s\n", dir.c_str(),
                 loaded_dir.status().ToString().c_str());
    return 1;
  }
  if (loaded_dir->skipped > 0) {
    std::fprintf(stderr,
                 "warning: skipped %zu unreadable file(s) under %s\n",
                 loaded_dir->skipped, dir.c_str());
  }
  // The 2-table floor is checked after the --add/--remove/--update ops run:
  // an --add may bootstrap a 1-table directory into a valid catalog.
  std::printf("catalog: %zu tables, %zu columns", catalog.num_tables(),
              catalog.num_columns());
  if (storage.spill_enabled()) {
    std::printf(" (%zu bytes spilled, %zu resident)",
                catalog.SpilledBytes(), catalog.ResidentCellBytes());
  }
  std::printf("\n");

  if (!signatures_path.empty() &&
      std::filesystem::exists(signatures_path)) {
    const Status loaded = catalog.LoadSignaturesFromFile(signatures_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "ignoring signature cache %s: %s\n",
                   signatures_path.c_str(), loaded.ToString().c_str());
    } else {
      std::printf("loaded signature cache from %s\n",
                  signatures_path.c_str());
    }
  }

  if (!serve_socket.empty()) {
    serve::ServeOptions serve_options;
    serve_options.socket_path = serve_socket;
    serve_options.watch_dir = watch_dir;
    serve_options.discovery = options;
    return RunDaemon(&catalog, std::move(serve_options),
                     options.num_threads);
  }

  // One cache spans the whole invocation: the batch run's pre-warm, or —
  // in the incremental flow — every post-maintenance shortlist evaluation.
  IndexCache index_cache(index_cache_budget);
  options.index_cache = &index_cache;

  CorpusDiscoveryResult result;
  if (ops.empty()) {
    if (catalog.num_tables() < 2) {
      std::fprintf(stderr, "%s holds %zu table(s); need at least 2\n",
                   dir.c_str(), catalog.num_tables());
      return 1;
    }
    result = DiscoverJoinableColumns(&catalog, options);
  } else {
    // Incremental flow: build the shortlist once, then fold each
    // maintenance op in by rescoring only the touched table's pairs.
    ThreadPool pool(options.num_threads);
    catalog.ComputeSignatures(&pool);
    IncrementalPairPruner pruner(options.pruner);
    pruner.Rebuild(catalog, &pool);
    for (const MaintenanceOp& op : ops) {
      if (op.kind == MaintenanceOp::kRemove) {
        auto id = catalog.TableIndex(op.arg);
        if (!id.ok() || !catalog.RemoveTable(op.arg).ok()) {
          std::fprintf(stderr, "--remove %s: no such table\n",
                       op.arg.c_str());
          return 1;
        }
        pruner.OnTableRemoved(*id);
        std::printf("removed %s (no rescoring)\n", op.arg.c_str());
        continue;
      }
      auto table = ReadCsvFile(op.arg, CsvOptions(), storage);
      if (!table.ok()) {
        std::fprintf(stderr, "%s: %s\n", op.arg.c_str(),
                     table.status().ToString().c_str());
        return 1;
      }
      table->set_name(std::filesystem::path(op.arg).stem().string());
      if (op.kind == MaintenanceOp::kAdd) {
        auto id = catalog.AddTable(*std::move(table));
        if (!id.ok()) {
          std::fprintf(stderr, "--add %s: %s\n", op.arg.c_str(),
                       id.status().ToString().c_str());
          return 1;
        }
        catalog.ComputeSignatures(&pool);
        pruner.OnTableAdded(catalog, *id, &pool);
        std::printf("added %s: scored %zu column pairs\n", op.arg.c_str(),
                    pruner.last_scored_pairs());
      } else {
        auto id = catalog.UpdateTable(*std::move(table));
        if (!id.ok()) {
          std::fprintf(stderr, "--update %s: %s\n", op.arg.c_str(),
                       id.status().ToString().c_str());
          return 1;
        }
        catalog.ComputeSignatures(&pool);
        pruner.OnTableUpdated(catalog, *id, &pool);
        std::printf("updated %s: rescored %zu column pairs\n",
                    op.arg.c_str(), pruner.last_scored_pairs());
      }
    }
    if (catalog.num_tables() < 2) {
      std::fprintf(stderr,
                   "catalog holds %zu table(s) after maintenance ops; need "
                   "at least 2\n",
                   catalog.num_tables());
      return 1;
    }
    // Reuse the maintenance pool so the whole incremental run — sketches,
    // rescoring, and the pair-level fan-out — stays on exactly one pool.
    result = EvaluateShortlist(catalog, pruner.Snapshot(), options, &pool);
  }

  if (!signatures_path.empty()) {
    const Status saved = catalog.SaveSignaturesToFile(signatures_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "error saving signature cache: %s\n",
                   saved.ToString().c_str());
    }
  }

  std::printf("column pairs: %zu total, %zu pruned (%.1f%%), %zu evaluated\n",
              result.total_column_pairs, result.pruned_pairs,
              100.0 * result.PruningRatio(), result.results.size());
  const IndexCacheStats cache_stats = index_cache.GetStats();
  std::printf("index cache: %llu hits, %llu misses, %llu evictions, "
              "%llu bytes\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              static_cast<unsigned long long>(cache_stats.evictions),
              static_cast<unsigned long long>(cache_stats.bytes));
  TablePrinter printer({"rank", "source", "target", "score", "pairs",
                        "joined", "coverage", "best transformation"});
  const size_t n = std::min(top, result.results.size());
  for (size_t i = 0; i < n; ++i) {
    const CorpusPairResult& r = result.results[i];
    printer.AddRow(
        {StrPrintf("%zu", i + 1),
         catalog.table(r.source.table).name() + "." +
             catalog.column(r.source).name(),
         catalog.table(r.target.table).name() + "." +
             catalog.column(r.target).name(),
         FormatDouble(r.candidate.score, 3), StrPrintf("%zu", r.learning_pairs),
         StrPrintf("%zu", r.joined_rows), FormatDouble(r.top_coverage, 2),
         r.transformations.empty() ? "-" : r.transformations.front()});
  }
  printer.Print();

  if (!out_path.empty()) {
    Table out("corpus_results");
    Column source("source"), target("target"), score("score"),
        pairs("learning_pairs"), joined("joined_rows"), cov("top_coverage"),
        rules("transformations");
    for (const CorpusPairResult& r : result.results) {
      source.Append(catalog.table(r.source.table).name() + "." +
                    catalog.column(r.source).name());
      target.Append(catalog.table(r.target.table).name() + "." +
                    catalog.column(r.target).name());
      score.Append(StrPrintf("%.6f", r.candidate.score));
      pairs.Append(StrPrintf("%zu", r.learning_pairs));
      joined.Append(StrPrintf("%zu", r.joined_rows));
      cov.Append(StrPrintf("%.4f", r.top_coverage));
      rules.Append(JoinStrings(r.transformations, " ; "));
    }
    for (Column* c : {&source, &target, &score, &pairs, &joined, &cov,
                      &rules}) {
      if (!out.AddColumn(std::move(*c)).ok()) {
        std::fprintf(stderr, "internal error assembling output\n");
        return 1;
      }
    }
    const Status written = WriteCsvFile(out, out_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", out_path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("results written to %s\n", out_path.c_str());
  }
  return 0;
}
