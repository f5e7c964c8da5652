#include "corpus/pair_pruner.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "corpus/signature.h"

namespace tj {
namespace {

/// Candidate pair ordering: score descending, then catalog order. Strict
/// weak ordering with no floating-point ties left to chance — scores are
/// computed identically regardless of chunking, so the sort is stable
/// across thread counts.
bool RankBefore(const ColumnPairCandidate& x, const ColumnPairCandidate& y) {
  if (x.score != y.score) return x.score > y.score;
  if (!(x.a == y.a)) return x.a < y.a;
  return x.b < y.b;
}

struct ChunkOutput {
  std::vector<ColumnPairCandidate> survivors;
  size_t considered = 0;
};

/// Sorts + truncates survivors and fills the result counters; shared by the
/// one-shot scan and the incremental snapshot so both rank identically.
PairPrunerResult FinalizeShortlist(std::vector<ColumnPairCandidate> survivors,
                                   size_t considered,
                                   const PairPrunerOptions& options) {
  PairPrunerResult result;
  result.total_pairs = considered;
  result.pruned_pairs = considered - survivors.size();
  std::sort(survivors.begin(), survivors.end(), RankBefore);
  if (options.max_candidates != 0 &&
      survivors.size() > options.max_candidates) {
    survivors.resize(options.max_candidates);
  }
  result.shortlist = std::move(survivors);
  return result;
}

}  // namespace

std::optional<double> ScoreSignaturePair(const ColumnSignature& a,
                                         const ColumnSignature& b,
                                         const PairPrunerOptions& options) {
  if (a.num_rows < options.min_rows || b.num_rows < options.min_rows) {
    return std::nullopt;
  }
  if (options.require_charset_overlap &&
      (a.charset_mask & b.charset_mask) == 0) {
    return std::nullopt;
  }
  const double score = EstimateNgramContainment(a, b);
  if (score < options.min_containment) return std::nullopt;
  return score;
}

bool ScoreColumnPair(const TableCatalog& catalog, ColumnRef a, ColumnRef b,
                     const PairPrunerOptions& options,
                     ColumnPairCandidate* out) {
  // A missing signature means ComputeSignatures could not read the column
  // (spill I/O failure survived by the catalog): prune its pairs instead
  // of aborting. In a healthy run every live column has a signature.
  if (!catalog.HasSignature(a) || !catalog.HasSignature(b)) return false;
  const ColumnSignature& sig_a = catalog.signature(a);
  const ColumnSignature& sig_b = catalog.signature(b);
  const std::optional<double> score =
      ScoreSignaturePair(sig_a, sig_b, options);
  if (!score.has_value()) return false;
  out->a = a;
  out->b = b;
  out->score = *score;
  // mean_length is the exact AverageLength of the column, so this hint
  // reproduces PickSourceColumn's choice without touching the cells.
  out->a_is_source = sig_a.mean_length >= sig_b.mean_length;
  return true;
}

PairPrunerResult ShortlistPairs(const TableCatalog& catalog,
                                const PairPrunerOptions& options,
                                ThreadPool* pool) {
  const std::vector<ColumnRef> columns = catalog.AllColumns();
  const size_t n = columns.size();
  if (n < 2) return PairPrunerResult();

  // Evaluates all pairs (columns[i], columns[j]) for i in [begin, end),
  // j > i — cross-table only — appending survivors in catalog order.
  auto scan_rows = [&](size_t begin, size_t end, ChunkOutput* out) {
    ColumnPairCandidate candidate;
    for (size_t i = begin; i < end; ++i) {
      const ColumnRef a = columns[i];
      for (size_t j = i + 1; j < n; ++j) {
        const ColumnRef b = columns[j];
        if (a.table == b.table) continue;  // self-joins are out of scope
        ++out->considered;
        if (ScoreColumnPair(catalog, a, b, options, &candidate)) {
          out->survivors.push_back(candidate);
        }
      }
    }
  };

  std::vector<ColumnPairCandidate> survivors;
  size_t considered = 0;
  if (pool != nullptr && pool->size() > 1 && !InParallelFor()) {
    // Parallel over the triangle's rows. Row i carries n - i - 1 pairs, so
    // over-decompose heavily and let the ticket scheduler balance; chunks
    // are merged in chunk order, keeping the pre-sort survivor order (and
    // thus the final ranking) identical to the serial scan.
    const size_t num_chunks =
        std::min(n, static_cast<size_t>(pool->size()) * 8);
    std::vector<ChunkOutput> chunks(num_chunks);
    pool->ParallelFor(n, num_chunks,
                      [&](int /*worker*/, size_t chunk, size_t begin,
                          size_t end) {
                        scan_rows(begin, end, &chunks[chunk]);
                      });
    for (ChunkOutput& chunk : chunks) {
      survivors.insert(survivors.end(), chunk.survivors.begin(),
                       chunk.survivors.end());
      considered += chunk.considered;
    }
  } else {
    ChunkOutput out;
    scan_rows(0, n, &out);
    survivors = std::move(out.survivors);
    considered = out.considered;
  }

  return FinalizeShortlist(std::move(survivors), considered, options);
}

void IncrementalPairPruner::Rebuild(const TableCatalog& catalog,
                                    ThreadPool* pool) {
  survivors_.clear();
  table_columns_.clear();
  tracked_columns_total_ = 0;
  lsh_.Clear();
  total_pairs_ = 0;
  size_t scored = 0;
  for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
    if (!catalog.IsLive(t)) continue;
    OnTableAdded(catalog, t, pool);
    scored += last_scored_pairs_;
  }
  last_scored_pairs_ = scored;
}

void IncrementalPairPruner::OnTableAdded(const TableCatalog& catalog,
                                         uint32_t table_id,
                                         ThreadPool* pool) {
  TJ_CHECK(catalog.IsLive(table_id));
  TJ_CHECK(table_columns_.find(table_id) == table_columns_.end());

  const auto num_new_columns =
      static_cast<uint32_t>(catalog.table_num_columns(table_id));

  // Probe before inserting: the index holds only previously tracked
  // columns, so the new table cannot collide with itself and OnTableUpdated
  // (remove + re-add) never sees its own stale entries.
  struct Collision {
    ColumnRef mine;
    ColumnRef partner;
  };
  // A zero floor keeps zero-score pairs, which share no bucket, so there
  // every tracked column is a candidate.
  const bool score_all = options_.min_containment <= 0.0;
  std::map<uint32_t, std::vector<Collision>> by_partner;
  for (uint32_t cn = 0; cn < num_new_columns; ++cn) {
    const ColumnRef mine{table_id, cn};
    if (!catalog.HasSignature(mine)) continue;
    if (score_all) {
      for (const auto& [partner, columns] : table_columns_) {
        for (uint32_t cp = 0; cp < columns; ++cp) {
          by_partner[partner].push_back({mine, ColumnRef{partner, cp}});
        }
      }
      continue;
    }
    for (const ColumnRef& hit : lsh_.Probe(catalog.signature(mine))) {
      by_partner[hit.table].push_back({mine, hit});
    }
  }

  std::vector<std::pair<uint32_t, std::vector<Collision>>> partners;
  partners.reserve(by_partner.size());
  for (auto& [partner, collisions] : by_partner) {
    partners.emplace_back(partner, std::move(collisions));
  }

  // Exact-score only the candidate pairs, one survivor slot per partner
  // table appended in partner order, so results are identical for every
  // pool size.
  std::vector<std::vector<ColumnPairCandidate>> scored(partners.size());
  auto score_partner = [&](size_t i) {
    ColumnPairCandidate candidate;
    for (const Collision& c : partners[i].second) {
      ColumnRef a = c.mine;
      ColumnRef b = c.partner;
      if (b < a) std::swap(a, b);
      if (ScoreColumnPair(catalog, a, b, options_, &candidate)) {
        scored[i].push_back(candidate);
      }
    }
  };
  if (pool != nullptr && pool->size() > 1 && partners.size() > 1 &&
      !InParallelFor()) {
    pool->ParallelFor(partners.size(),
                      std::min(partners.size(),
                               static_cast<size_t>(pool->size()) * 4),
                      [&](int /*worker*/, size_t /*chunk*/, size_t begin,
                          size_t end) {
                        for (size_t i = begin; i < end; ++i) score_partner(i);
                      });
  } else {
    for (size_t i = 0; i < partners.size(); ++i) score_partner(i);
  }

  last_scored_pairs_ = 0;
  for (size_t i = 0; i < partners.size(); ++i) {
    last_scored_pairs_ += partners[i].second.size();
    survivors_.insert(survivors_.end(), scored[i].begin(), scored[i].end());
  }

  for (uint32_t cn = 0; cn < num_new_columns; ++cn) {
    const ColumnRef mine{table_id, cn};
    if (!catalog.HasSignature(mine)) continue;
    lsh_.Insert(mine, catalog.signature(mine));
  }

  // The totals account the full cross-pair space the exhaustive scan would
  // consider, so Snapshot()'s total/pruned counters match ShortlistPairs
  // however few pairs the probe touched.
  total_pairs_ += num_new_columns * tracked_columns_total_;
  tracked_columns_total_ += num_new_columns;
  table_columns_[table_id] = num_new_columns;
  cumulative_scored_pairs_ += last_scored_pairs_;
}

void IncrementalPairPruner::OnTableRemoved(uint32_t table_id) {
  const auto cols = table_columns_.find(table_id);
  TJ_CHECK(cols != table_columns_.end());
  tracked_columns_total_ -= cols->second;
  // The removed table's share of the pair space: its columns against every
  // still-tracked column.
  total_pairs_ -= static_cast<size_t>(cols->second) * tracked_columns_total_;
  table_columns_.erase(cols);
  lsh_.RemoveTable(table_id);
  std::erase_if(survivors_, [table_id](const ColumnPairCandidate& c) {
    return c.a.table == table_id || c.b.table == table_id;
  });
}

void IncrementalPairPruner::OnTableUpdated(const TableCatalog& catalog,
                                           uint32_t table_id,
                                           ThreadPool* pool) {
  OnTableRemoved(table_id);
  OnTableAdded(catalog, table_id, pool);
}

PairPrunerResult IncrementalPairPruner::Snapshot() const {
  return FinalizeShortlist(survivors_, total_pairs_, options_);
}

Status ValidateOptions(const PairPrunerOptions& options) {
  if (!(options.min_containment >= 0.0) ||
      !(options.min_containment <= 1.0)) {
    return Status::InvalidArgument(
        "PairPrunerOptions::min_containment must be in [0, 1]");
  }
  return Status::OK();
}

}  // namespace tj
