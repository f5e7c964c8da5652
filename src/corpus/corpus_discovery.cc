#include "corpus/corpus_discovery.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "match/row_matcher.h"

namespace tj {
namespace {

/// Runs the per-pair engine on one shortlisted candidate. Executed either
/// inside a chunk of the pair-level ParallelFor (where every inner phase
/// runs at one chunk) or inline when the fan-out has one chunk (where the
/// inner phases get the whole pool, if there is one).
CorpusPairResult EvaluatePair(const CorpusColumnSource& source,
                              const ColumnPairCandidate& candidate,
                              const JoinOptions& join_options,
                              bool use_orientation_hint) {
  CorpusPairResult result;
  result.candidate = candidate;

  // Fallible residency first: a pair whose column bytes are unreadable
  // (spill I/O double-failure the storage layer could not absorb) degrades
  // to an error-carrying result instead of aborting the fan-out.
  const auto column_a = source.ResidentColumn(candidate.a);
  const auto column_b = source.ResidentColumn(candidate.b);
  if (!column_a.ok() || !column_b.ok()) {
    const Status& bad =
        !column_a.ok() ? column_a.status() : column_b.status();
    result.source = candidate.a;
    result.target = candidate.b;
    result.error = bad.ToString();
    std::fprintf(stderr, "warning: skipping shortlisted pair: %s\n",
                 result.error.c_str());
    return result;
  }

  // The sketch hint reproduces PickSourceColumn bit-for-bit (mean_length ==
  // AverageLength), so hinted runs skip the per-pair column rescan.
  const bool a_is_source =
      use_orientation_hint
          ? candidate.a_is_source
          : PickSourceColumn(**column_a, **column_b);
  result.source = a_is_source ? candidate.a : candidate.b;
  result.target = a_is_source ? candidate.b : candidate.a;

  // Cross-pair memoization: with a cache configured, key the target side
  // by (table content fingerprint, column ordinal) so this pair's index
  // build is shared with every other pair targeting the same column (the
  // matcher indexes no source column). A source that tracks no
  // fingerprints (returns 0) leaves the key disengaged and the cache
  // bypassed.
  JoinOptions local = join_options;
  if (local.match_options.index_cache != nullptr) {
    local.match_options.target_cache_key.fingerprint =
        source.table_fingerprint(result.target.table);
    local.match_options.target_cache_key.column = result.target.column;
  }

  // join_options carries min_learning_pairs, so an unlearnable pair stops
  // right after candidate matching — no discovery, no equi-join.
  const JoinResult joined = TransformJoinColumns(
      a_is_source ? **column_a : **column_b,
      a_is_source ? **column_b : **column_a,
      /*golden=*/nullptr, local);
  result.learning_pairs = joined.learning_pairs;
  result.joined_rows = joined.joined.size();
  result.top_coverage = joined.discovery.TopCoverageFraction();
  result.transformations = joined.applied_transformations;
  return result;
}

/// Builds the per-pair JoinOptions every evaluation path shares: the one
/// pool threaded through every inner phase plus the learning-pair floor.
/// The run's pool overrides the per-pair thread fields; with none (one
/// thread, or a caller inside a chunk) every inner phase runs at one chunk.
JoinOptions PairJoinOptions(const CorpusDiscoveryOptions& options,
                            ThreadPool* pool) {
  JoinOptions join_options = options.join;
  join_options.discovery.pool = pool;
  join_options.discovery.num_threads = 1;
  join_options.match_options.pool = pool;
  join_options.match_options.num_threads = 1;
  join_options.match_options.index_cache = options.index_cache;
  join_options.min_learning_pairs =
      std::max(join_options.min_learning_pairs, options.min_learning_pairs);
  return join_options;
}

/// Builds every distinct shortlisted target-side column's inverted index
/// into the cache before the pair fan-out starts, in shortlist order (first
/// appearance wins), fanned out over the pool. The side follows the
/// orientation hint the fan-out evaluates with; source columns are never
/// indexed. Pairs then start from warm entries instead of racing the same
/// build N ways; single-flight would make such races safe, but warming
/// keeps the fan-out's workers on distinct columns. Columns whose source
/// tracks no fingerprint or whose bytes are unreadable are skipped — the
/// pair evaluation reports those errors itself.
void PrewarmIndexCache(const CorpusColumnSource& source,
                       const PairPrunerResult& pruned,
                       const JoinOptions& join_options, ThreadPool* pool) {
  std::vector<ColumnRef> warm;
  std::unordered_set<uint64_t> seen;
  warm.reserve(pruned.shortlist.size());
  for (const ColumnPairCandidate& candidate : pruned.shortlist) {
    const ColumnRef ref = candidate.a_is_source ? candidate.b : candidate.a;
    const uint64_t id = (static_cast<uint64_t>(ref.table) << 32) | ref.column;
    if (seen.insert(id).second) warm.push_back(ref);
  }
  ParallelFor(
      pool, warm.size(), ChunkCount(pool, warm.size(), warm.size()),
      [&](int /*worker*/, size_t /*chunk*/, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const ColumnRef ref = warm[i];
          const auto column = source.ResidentColumn(ref);
          if (!column.ok()) continue;
          IndexCacheKey key;
          key.fingerprint = source.table_fingerprint(ref.table);
          key.column = ref.column;
          if (!key.engaged()) continue;
          AcquireColumnIndex(**column, join_options.match_options, key,
                             /*pool=*/nullptr);
        }
      });
}

/// Shared pair-level fan-out: evaluates the shortlist on `pool`, one chunk
/// per pair, each writing its own shortlist-order slot. `release_catalog`
/// (optional) enables the budgeted page-release refcounting below; a
/// snapshot-backed source passes nullptr.
void EvaluateShortlistOnPool(const CorpusColumnSource& source,
                             const TableCatalog* release_catalog,
                             const PairPrunerResult& pruned,
                             const CorpusDiscoveryOptions& options,
                             ThreadPool* pool,
                             CorpusDiscoveryResult* result) {
  result->total_column_pairs = pruned.total_pairs;
  result->pruned_pairs = pruned.pruned_pairs;
  if (pruned.shortlist.empty()) return;

  const JoinOptions join_options = PairJoinOptions(options, pool);

  if (options.index_cache != nullptr) {
    PrewarmIndexCache(source, pruned, join_options, pool);
  }

  // Out-of-core catalogs under a memory budget: when the LAST shortlisted
  // pair touching a table finishes, its worker writes back and drops the
  // table's resident pages (views stay valid; re-reads would fault back
  // in), so the run's RSS tracks the tables that still have pending pairs
  // instead of accumulating the whole corpus. Refcounting — rather than
  // releasing after every pair — keeps hot tables shared by many pairs
  // from being synced and re-faulted once per pair. Releasing never
  // changes bytes, so determinism is unaffected.
  std::unique_ptr<std::atomic<uint32_t>[]> pending_pairs;
  if (release_catalog != nullptr &&
      release_catalog->storage_options().spill_enabled() &&
      release_catalog->storage_options().memory_budget_bytes > 0) {
    pending_pairs =
        std::make_unique<std::atomic<uint32_t>[]>(release_catalog->num_slots());
    for (const ColumnPairCandidate& candidate : pruned.shortlist) {
      pending_pairs[candidate.a.table].fetch_add(
          1, std::memory_order_relaxed);
      pending_pairs[candidate.b.table].fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  const auto finish_table = [&](uint32_t t) {
    if (pending_pairs[t].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      release_catalog->table(t).ReleasePages();
    }
  };

  // One chunk per pair: pair costs vary wildly, so let the ticket scheduler
  // balance. Each pair writes its own shortlist-order slot — the merged
  // output never depends on scheduling or thread count.
  const size_t num_pairs = pruned.shortlist.size();
  result->results.resize(num_pairs);
  ParallelFor(pool, num_pairs, ChunkCount(pool, num_pairs, num_pairs),
              [&](int /*worker*/, size_t /*chunk*/, size_t begin,
                  size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  const ColumnPairCandidate& candidate = pruned.shortlist[i];
                  result->results[i] =
                      EvaluatePair(source, candidate, join_options,
                                   /*use_orientation_hint=*/true);
                  if (pending_pairs != nullptr) {
                    finish_table(candidate.a.table);
                    finish_table(candidate.b.table);
                  }
                }
              });

  for (const CorpusPairResult& pair : result->results) {
    if (!pair.error.empty()) ++result->failed_pairs;
  }
}

}  // namespace

std::string CorpusDiscoveryResult::Describe(const CorpusColumnSource& catalog,
                                            size_t max_items) const {
  std::string out = StrPrintf(
      "column pairs: %zu total, %zu pruned (%.1f%%), %zu evaluated\n",
      total_column_pairs, pruned_pairs, 100.0 * PruningRatio(),
      results.size());
  if (failed_pairs > 0) {
    out += StrPrintf("  (%zu pair(s) skipped on storage errors)\n",
                     failed_pairs);
  }
  const size_t n = std::min(max_items, results.size());
  for (size_t i = 0; i < n; ++i) {
    const CorpusPairResult& r = results[i];
    // Metadata-only accessors: describing results must never fault evicted
    // tables back in (or abort on a column whose bytes became unreadable).
    if (!r.error.empty()) {
      out += StrPrintf("  %2zu. %s.%s <-> %s.%s  SKIPPED: %s\n", i + 1,
                       catalog.table_name(r.source.table).c_str(),
                       catalog.column_name(r.source).c_str(),
                       catalog.table_name(r.target.table).c_str(),
                       catalog.column_name(r.target).c_str(),
                       r.error.c_str());
      continue;
    }
    const std::string best =
        r.transformations.empty() ? "-" : r.transformations.front();
    out += StrPrintf(
        "  %2zu. %s.%s -> %s.%s  score=%.3f pairs=%zu joined=%zu cov=%.2f  "
        "%s\n",
        i + 1, catalog.table_name(r.source.table).c_str(),
        catalog.column_name(r.source).c_str(),
        catalog.table_name(r.target.table).c_str(),
        catalog.column_name(r.target).c_str(), r.candidate.score,
        r.learning_pairs, r.joined_rows, r.top_coverage, best.c_str());
  }
  return out;
}

Status ValidateOptions(const CorpusDiscoveryOptions& options) {
  TJ_RETURN_IF_ERROR(ValidateOptions(options.pruner));
  TJ_RETURN_IF_ERROR(ValidateOptions(options.join));
  return Status::OK();
}

CorpusDiscoveryResult DiscoverJoinableColumns(
    TableCatalog* catalog, const CorpusDiscoveryOptions& options) {
  CorpusDiscoveryResult result;

  // The run's single pool: signatures, pair scoring, pair-level fan-out,
  // and (through the options plumbing) every per-pair phase.
  ThreadPool pool(options.num_threads);

  catalog->ComputeSignatures(&pool);
  const PairPrunerResult pruned =
      ShortlistPairs(*catalog, options.pruner, &pool);
  EvaluateShortlistOnPool(*catalog, catalog, pruned, options, &pool,
                          &result);
  return result;
}

CorpusDiscoveryResult EvaluateShortlist(const TableCatalog& catalog,
                                        const PairPrunerResult& shortlist,
                                        const CorpusDiscoveryOptions& options,
                                        ThreadPool* pool) {
  CorpusDiscoveryResult result;
  const PoolRef pool_ref(pool, options.num_threads);
  EvaluateShortlistOnPool(catalog, &catalog, shortlist, options,
                          pool_ref.get(), &result);
  return result;
}

CorpusDiscoveryResult EvaluateShortlist(const CorpusColumnSource& source,
                                        const PairPrunerResult& shortlist,
                                        const CorpusDiscoveryOptions& options,
                                        ThreadPool* pool) {
  CorpusDiscoveryResult result;
  const PoolRef pool_ref(pool, options.num_threads);
  EvaluateShortlistOnPool(source, /*release_catalog=*/nullptr, shortlist,
                          options, pool_ref.get(), &result);
  return result;
}

CorpusPairResult EvaluateCandidate(const CorpusColumnSource& source,
                                   const ColumnPairCandidate& candidate,
                                   const CorpusDiscoveryOptions& options,
                                   ThreadPool* pool,
                                   bool use_orientation_hint) {
  const PoolRef pool_ref(pool, options.num_threads);
  return EvaluatePair(source, candidate,
                      PairJoinOptions(options, pool_ref.get()),
                      use_orientation_hint);
}

}  // namespace tj
