#include "core/coverage.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace tj {
namespace {

/// Per-row memo of unit evaluations. Units repeat across the Cartesian-
/// product transformations, so each unit is evaluated at most once per row;
/// the paper's negative-unit cache is the kBad state.
///
/// The memo is allocated once per worker and invalidated per row with an
/// epoch counter — resetting multi-megabyte state vectors per row would
/// otherwise dominate the runtime on large inputs.
class RowUnitCache {
 public:
  /// With `use_memo` false (the paper's no-cache ablation) every evaluation
  /// recomputes from scratch and no negative knowledge is retained.
  RowUnitCache(size_t num_units, bool use_memo) : use_memo_(use_memo) {
    if (use_memo_) {
      // Epoch and state share one word (epoch << 2 | state): the pruning
      // scan that touches every transformation's units per row then costs
      // one 4-byte load per unit instead of two scattered ones.
      packed_.assign(num_units, 0);
      output_.resize(num_units);
    }
  }

  enum State : uint8_t {
    kUnknown = 0,
    kOk = 1,   // unit applies; output is a substring of the target
    kBad = 2,  // unit fails or its output is not in the target
  };

  /// Starts a new row: logically clears every memo entry in O(1).
  void BeginRow() { ++current_epoch_; }

  State state(UnitId id) const {
    if (!use_memo_) return kUnknown;
    const uint32_t packed = packed_[id];
    if ((packed >> 2) != current_epoch_) return kUnknown;
    return static_cast<State>(packed & 3u);
  }

  /// Evaluates (or recalls) unit `id` on this row. Returns kOk/kBad and, for
  /// kOk, sets *out to the unit's output. `unit_evals` counts memo misses.
  State Evaluate(const UnitInterner& interner, UnitId id,
                 std::string_view source, std::string_view target,
                 uint64_t* unit_evals, std::string_view* out) {
    if (!use_memo_) {
      ++*unit_evals;
      const auto produced = interner.Get(id).Eval(source);
      if (!produced.has_value() ||
          (!produced->empty() &&
           target.find(*produced) == std::string_view::npos)) {
        return kBad;
      }
      *out = *produced;
      return kOk;
    }
    if ((packed_[id] >> 2) != current_epoch_) {
      ++*unit_evals;
      const auto produced = interner.Get(id).Eval(source);
      if (!produced.has_value() ||
          (!produced->empty() &&
           target.find(*produced) == std::string_view::npos)) {
        packed_[id] = (current_epoch_ << 2) | kBad;
      } else {
        packed_[id] = (current_epoch_ << 2) | kOk;
        output_[id] = *produced;
      }
    }
    const auto state = static_cast<State>(packed_[id] & 3u);
    if (state == kOk) *out = output_[id];
    return state;
  }

 private:
  const bool use_memo_;
  // 30-bit row epoch: a cache instance lives for one coverage pass over at
  // most a few thousand rows, nowhere near the billion BeginRow calls a
  // wrap would take.
  uint32_t current_epoch_ = 0;
  std::vector<uint32_t> packed_;
  std::vector<std::string_view> output_;
};

using CoveringPair = std::pair<uint32_t, uint32_t>;  // (transformation, row)

/// True iff `out` is `target[offset, offset + |out|)`.
bool MatchesAt(std::string_view target, size_t offset, std::string_view out) {
  return out.size() <= target.size() - offset &&
         target.compare(offset, out.size(), out) == 0;
}

// ---------------------------------------------------------------------------
// Paper path: the row-major scan of §4.1.5.
// ---------------------------------------------------------------------------

/// Evaluates every transformation against rows [begin, end), appending
/// covering pairs in row-major order. The store's CSR arena makes the scan
/// two contiguous streams (offsets, units), with no pointer chased per
/// transformation per row. Rows are independent (the cache is
/// reset per row), so the counters accumulated into `stats` are exact
/// regardless of how the row space is sharded.
void EvaluateRowRange(const TransformationStore& store,
                      const UnitInterner& interner,
                      const std::vector<ExamplePair>& rows, size_t begin,
                      size_t end, const DiscoveryOptions& options,
                      RowUnitCache* cache,
                      std::vector<CoveringPair>* covering,
                      DiscoveryStats* stats) {
  const size_t num_t = store.size();
  for (size_t row = begin; row < end; ++row) {
    const std::string_view src = rows[row].source;
    const std::string_view tgt = rows[row].target;
    cache->BeginRow();

    for (TransformationId t = 0; t < num_t; ++t) {
      const std::span<const UnitId> t_units = store.Units(t);
      const size_t t_size = t_units.size();

      if (options.enable_neg_cache) {
        // The paper's pruning: skip the transformation outright if any of
        // its units is already known not to cover this row.
        bool pruned = false;
        for (size_t i = 0; i < t_size; ++i) {
          if (cache->state(t_units[i]) == RowUnitCache::kBad) {
            pruned = true;
            break;
          }
        }
        if (pruned) {
          ++stats->cache_hits;
          continue;
        }
      }

      ++stats->full_evaluations;
      size_t offset = 0;
      bool covers = true;
      for (size_t i = 0; i < t_size; ++i) {
        std::string_view out;
        if (cache->Evaluate(interner, t_units[i], src, tgt,
                            &stats->unit_evals,
                            &out) == RowUnitCache::kBad ||
            !MatchesAt(tgt, offset, out)) {
          covers = false;
          break;
        }
        offset += out.size();
      }
      if (covers && offset == tgt.size()) {
        covering->emplace_back(static_cast<uint32_t>(t),
                               static_cast<uint32_t>(row));
        ++stats->covering_pairs;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Default path: one walk per row over a prefix trie of the unit sequences.
// ---------------------------------------------------------------------------

/// The store's unit sequences as a prefix trie, nodes in pre-order so a
/// subtree is the index range [i, end[i]). Node i stands for the prefix
/// ending in unit[i] at depth[i] (the root's children are depth 1). Four
/// parallel arrays keep a node at 13 bytes — about the size of the arena
/// unit references it stands for, since Cartesian-product generation makes
/// sequences share prefixes.
struct UnitTrie {
  static constexpr uint32_t kNoTerminal = std::numeric_limits<uint32_t>::max();
  /// Set in a terminal field when several ids end at the node (only with
  /// enable_dedup off): the low bits index `shared_terminals`.
  static constexpr uint32_t kShared = 1u << 31;
  static constexpr size_t kMaxDepth = std::numeric_limits<uint8_t>::max();

  std::vector<UnitId> unit;
  std::vector<uint8_t> depth;
  std::vector<uint32_t> end;       // one past the node's last descendant
  std::vector<uint32_t> terminal;  // id ending here, kNoTerminal, or kShared|k
  /// Terminal field of the root: empty sequences, reached with nothing
  /// matched.
  uint32_t root_terminal = kNoTerminal;
  /// Runs of [count, id, id, ...] for terminal fields flagged kShared.
  std::vector<uint32_t> shared_terminals;
  size_t max_depth = 0;

  /// Calls fn(id) for every id a terminal field holds, ascending.
  template <typename Fn>
  void ForEachTerminal(uint32_t term, Fn&& fn) const {
    if (term == kNoTerminal) return;
    if ((term & kShared) == 0) {
      fn(term);
      return;
    }
    const uint32_t* run = shared_terminals.data() + (term & ~kShared);
    for (uint32_t k = 1; k <= run[0]; ++k) fn(run[k]);
  }
};

/// Builds the trie by bucketing ids on their unit at each depth: a counting
/// sort on the first unit, then a sort of each bucket's packed
/// (unit + 1) << 32 | id keys one level down, where 0 in the high half marks
/// a sequence that ends at the bucket's node. Each sequence is read from the
/// store's arena once per level, not once per comparison as a sort over
/// whole sequences would.
class TrieBuilder {
 public:
  TrieBuilder(const TransformationStore& store, UnitTrie* trie)
      : store_(store), trie_(trie) {}

  /// False when some sequence is deeper than UnitTrie::kMaxDepth (never
  /// generated: skeletons have at most 2 * max_placeholders + 1 blocks).
  bool Build(size_t num_units) {
    const size_t num_t = store_.size();
    TJ_CHECK(num_t < UnitTrie::kShared);
    // bucket[k + 1] counts first-unit key k: 0 for an empty sequence,
    // unit + 1 otherwise.
    std::vector<uint32_t> bucket(num_units + 2, 0);
    {
      std::vector<uint32_t> first(num_t);
      for (TransformationId t = 0; t < num_t; ++t) {
        const std::span<const UnitId> u = store_.Units(t);
        if (u.size() > UnitTrie::kMaxDepth) return false;
        trie_->max_depth = std::max(trie_->max_depth, u.size());
        first[t] = u.empty() ? 0 : u[0] + 1;
        ++bucket[first[t] + 1];
      }
      for (size_t k = 1; k < bucket.size(); ++k) bucket[k] += bucket[k - 1];
      keys_.resize(num_t);
      std::vector<uint32_t> cursor(bucket.begin(), bucket.end() - 1);
      for (TransformationId t = 0; t < num_t; ++t) {
        keys_[cursor[first[t]]++] = t;
      }
    }
    trie_->root_terminal = Terminals(0, bucket[1]);
    for (size_t k = 1; k <= num_units; ++k) {
      if (bucket[k] == bucket[k + 1]) continue;
      const uint32_t node = AddNode(static_cast<UnitId>(k - 1), 1);
      Expand(node, bucket[k], bucket[k + 1], 1);
      trie_->end[node] = static_cast<uint32_t>(trie_->unit.size());
    }
    return true;
  }

 private:
  uint32_t AddNode(UnitId u, size_t depth) {
    const auto node = static_cast<uint32_t>(trie_->unit.size());
    trie_->unit.push_back(u);
    trie_->depth.push_back(static_cast<uint8_t>(depth));
    trie_->end.push_back(0);
    trie_->terminal.push_back(UnitTrie::kNoTerminal);
    return node;
  }

  static TransformationId IdOf(uint64_t key) {
    return static_cast<TransformationId>(key);
  }

  /// The terminal field for the ids in keys_[lo, hi).
  uint32_t Terminals(size_t lo, size_t hi) {
    if (hi - lo == 0) return UnitTrie::kNoTerminal;
    if (hi - lo == 1) return IdOf(keys_[lo]);
    const auto run = static_cast<uint32_t>(trie_->shared_terminals.size());
    trie_->shared_terminals.push_back(static_cast<uint32_t>(hi - lo));
    for (size_t k = lo; k < hi; ++k) {
      trie_->shared_terminals.push_back(IdOf(keys_[k]));
    }
    return UnitTrie::kShared | run;
  }

  /// keys_[lo, hi) hold the ids whose first `d` units spell node `node`'s
  /// prefix. Sets the node's terminals and adds its subtrees in pre-order;
  /// the caller sets end[node].
  void Expand(uint32_t node, size_t lo, size_t hi, size_t d) {
    if (hi - lo == 1) {
      // One sequence left: its remaining units form a chain.
      const TransformationId id = IdOf(keys_[lo]);
      const std::span<const UnitId> u = store_.Units(id);
      uint32_t last = node;
      for (size_t k = d; k < u.size(); ++k) last = AddNode(u[k], k + 1);
      trie_->terminal[last] = id;
      const auto chain_end = static_cast<uint32_t>(trie_->unit.size());
      for (uint32_t i = node + 1; i < chain_end; ++i) {
        trie_->end[i] = chain_end;
      }
      return;
    }
    for (size_t k = lo; k < hi; ++k) {
      const TransformationId id = IdOf(keys_[k]);
      const std::span<const UnitId> u = store_.Units(id);
      const uint64_t next = u.size() == d ? 0 : uint64_t{u[d]} + 1;
      keys_[k] = (next << 32) | id;
    }
    std::sort(keys_.begin() + lo, keys_.begin() + hi);
    size_t k = lo;
    while (k < hi && (keys_[k] >> 32) == 0) ++k;
    trie_->terminal[node] = Terminals(lo, k);
    while (k < hi) {
      const uint64_t next = keys_[k] >> 32;
      size_t run_end = k + 1;
      while (run_end < hi && (keys_[run_end] >> 32) == next) ++run_end;
      const uint32_t child = AddNode(static_cast<UnitId>(next - 1), d + 1);
      Expand(child, k, run_end, d + 1);
      trie_->end[child] = static_cast<uint32_t>(trie_->unit.size());
      k = run_end;
    }
  }

  const TransformationStore& store_;
  UnitTrie* trie_;
  std::vector<uint64_t> keys_;
};

/// Walks the trie once per row in [begin, end). At node i the unit's memoized
/// output must continue the target where the parent's prefix stopped;
/// otherwise every sequence below i fails and the walk jumps to end[i] —
/// the negative-unit pruning of §4.1.5, applied once per shared prefix
/// instead of once per transformation. A sequence covers the row iff its
/// terminal is reached with the whole target matched, so the covering set is
/// exactly the row-major scan's; only the order within a row differs, which
/// the counting sort in ComputeCoverage absorbs.
///
/// Counters: full_evaluations counts the (transformation, row) pairs whose
/// terminal was reached, cache_hits the rest (cut off at some prefix), so
/// the two still sum to transformations x rows. unit_evals counts memo
/// misses.
void WalkRowRange(const UnitTrie& trie, size_t num_t,
                  const UnitInterner& interner,
                  const std::vector<ExamplePair>& rows, size_t begin,
                  size_t end, RowUnitCache* cache,
                  std::vector<CoveringPair>* covering,
                  DiscoveryStats* stats) {
  const auto num_nodes = static_cast<uint32_t>(trie.unit.size());
  // matched[d]: target bytes spelled by the current depth-d prefix.
  std::vector<size_t> matched(trie.max_depth + 1, 0);
  uint64_t reached = 0;
  for (size_t row = begin; row < end; ++row) {
    const std::string_view src = rows[row].source;
    const std::string_view tgt = rows[row].target;
    cache->BeginRow();
    const auto reach = [&](uint32_t term, size_t offset) {
      trie.ForEachTerminal(term, [&](TransformationId t) {
        ++reached;
        if (offset == tgt.size()) {
          covering->emplace_back(t, static_cast<uint32_t>(row));
          ++stats->covering_pairs;
        }
      });
    };
    reach(trie.root_terminal, 0);
    uint32_t i = 0;
    while (i < num_nodes) {
      const size_t d = trie.depth[i];
      const size_t base = matched[d - 1];
      std::string_view out;
      if (cache->Evaluate(interner, trie.unit[i], src, tgt,
                          &stats->unit_evals, &out) == RowUnitCache::kBad ||
          !MatchesAt(tgt, base, out)) {
        i = trie.end[i];
        continue;
      }
      matched[d] = base + out.size();
      reach(trie.terminal[i], matched[d]);
      ++i;
    }
  }
  stats->full_evaluations += reached;
  stats->cache_hits += num_t * (end - begin) - reached;
}

}  // namespace

CoverageIndex ComputeCoverage(const TransformationStore& store,
                              const UnitInterner& interner,
                              const std::vector<ExamplePair>& rows,
                              const DiscoveryOptions& options,
                              DiscoveryStats* stats) {
  ScopedTimer total(&stats->time_apply);
  CoverageIndex index;
  const size_t num_t = store.size();
  index.offsets_.assign(num_t + 1, 0);
  if (num_t == 0) return index;

  // The trie needs the memo (it is what the walk reads); without the
  // negative cache, and whenever the paper's counters are wanted, the
  // row-major scan runs over the store's arena directly. The trie is built
  // once here, serially, and shared read-only by the row shards below.
  std::optional<UnitTrie> trie;
  if (!options.paper_coverage_scan && options.enable_neg_cache) {
    ScopedTimer build_timer(&stats->cpu_apply);
    trie.emplace();
    if (!TrieBuilder(store, &*trie).Build(interner.size())) trie.reset();
  }

  const auto evaluate = [&](size_t begin, size_t end, RowUnitCache* cache,
                            std::vector<CoveringPair>* covering,
                            DiscoveryStats* shard_stats) {
    ScopedTimer cpu_timer(&shard_stats->cpu_apply);
    if (trie) {
      WalkRowRange(*trie, num_t, interner, rows, begin, end, cache, covering,
                   shard_stats);
    } else {
      EvaluateRowRange(store, interner, rows, begin, end, options, cache,
                       covering, shard_stats);
    }
  };

  // Covering pairs are collected row by row and counting-sorted into CSR by
  // transformation afterwards.
  std::vector<CoveringPair> covering;
  const int num_threads = options.pool != nullptr
                              ? options.pool->size()
                              : ResolveNumThreads(options.num_threads);

  if (num_threads == 1 || rows.size() < 2 || InParallelFor()) {
    RowUnitCache cache(interner.size(), options.enable_neg_cache);
    evaluate(0, rows.size(), &cache, &covering, stats);
  } else {
    // Sharded evaluation. Chunks are contiguous row ranges merged in chunk
    // order, so the covering list below has rows in the same order as the
    // serial path and the CSR index comes out bit-identical. The unit cache
    // is worker-scoped (it is large) and reset per row, so dynamic
    // chunk-to-worker assignment cannot change any result or counter.
    // When no shared pool is supplied, never spawn more workers (threads +
    // per-worker caches) than rows.
    PoolRef pool_ref(options.pool,
                     static_cast<int>(std::min<size_t>(
                         static_cast<size_t>(num_threads), rows.size())));
    ThreadPool& pool = pool_ref.get();
    const size_t num_chunks =
        std::min(rows.size(), static_cast<size_t>(pool.size()) * 4);
    std::vector<std::unique_ptr<RowUnitCache>> caches(
        static_cast<size_t>(pool.size()));
    for (auto& cache : caches) {
      cache = std::make_unique<RowUnitCache>(interner.size(),
                                             options.enable_neg_cache);
    }
    std::vector<std::vector<CoveringPair>> chunk_covering(num_chunks);
    std::vector<DiscoveryStats> worker_stats(static_cast<size_t>(pool.size()));

    pool.ParallelFor(rows.size(), num_chunks,
                     [&](int worker, size_t chunk, size_t begin, size_t end) {
                       evaluate(begin, end, caches[worker].get(),
                                &chunk_covering[chunk], &worker_stats[worker]);
                     });

    size_t total_pairs = 0;
    for (const auto& chunk : chunk_covering) total_pairs += chunk.size();
    covering.reserve(total_pairs);
    for (auto& chunk : chunk_covering) {
      covering.insert(covering.end(), chunk.begin(), chunk.end());
    }
    // Full element-wise merge so counters added to the range evaluators
    // later keep aggregating in parallel runs too. Worker wall-time fields
    // are zero (the phase is wall-timed once by the enclosing ScopedTimer);
    // cpu_apply adds each worker's seconds to the build's.
    for (const DiscoveryStats& ws : worker_stats) *stats += ws;
  }

  // Counting sort into CSR. Rows ascend within each transformation because
  // rows are evaluated in ascending order; the order of transformations
  // within a row (id order on the scan, trie order on the walk) is lost
  // here, so both paths produce the same bytes.
  for (const auto& [t, row] : covering) ++index.offsets_[t + 1];
  for (size_t t = 1; t <= num_t; ++t) {
    index.offsets_[t] += index.offsets_[t - 1];
  }
  index.rows_.resize(covering.size());
  std::vector<uint32_t> cursor(index.offsets_.begin(),
                               index.offsets_.end() - 1);
  for (const auto& [t, row] : covering) index.rows_[cursor[t]++] = row;
  return index;
}

}  // namespace tj
