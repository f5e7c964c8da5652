#include "match/row_matcher.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "text/ngram.h"

namespace tj {
namespace {

/// One probe hit: a source gram of `size` bytes that the target index holds
/// under id `gram`.
struct Hit {
  uint32_t gram;
  uint32_t size;
};

/// Pass-1 output of one contiguous row range: every row's hits, row after
/// row, with `row_ends[k]` the end offset of the range's k-th row.
struct ChunkHits {
  std::vector<Hit> hits;
  std::vector<size_t> row_ends;
};

/// Probes the target index with every gram of sizes [kMinGram, kMaxGram]
/// of rows [begin, end) of `source`, recording the hits in (start position,
/// size) order. Each row is lowered first into a scratch string reused
/// across the range, the way the index build lowers target rows. Each start
/// position extends one FNV-1a state a byte at a time, so Mix64(state) is
/// HashString of the current gram without rehashing it. Every prefix of an
/// indexed gram that is at least kMinGram long is indexed too (it occurs in
/// the same target row), so the first miss ends a start position's run: no
/// longer gram from there can hit. Grams the target lacks have Rscore 0 and
/// never become representatives, so nothing else is recorded.
void ProbeRows(const Column& source, size_t begin, size_t end,
               const NgramInvertedIndex& target_index, ChunkHits* out) {
  out->row_ends.reserve(end - begin);
  std::string lowered;
  for (size_t row = begin; row < end; ++row) {
    lowered.clear();
    AppendLowerAscii(source.Get(row), &lowered);
    const std::string_view text = lowered;
    const auto* bytes = reinterpret_cast<const unsigned char*>(text.data());
    for (size_t i = 0; i + kMinGram <= text.size(); ++i) {
      const size_t longest = std::min(kMaxGram, text.size() - i);
      uint64_t state = kFnvOffsetBasis;
      for (size_t n = 1; n <= longest; ++n) {
        state = FnvStep(state, bytes[i + n - 1]);
        if (n < kMinGram) continue;
        const uint32_t gram =
            target_index.GramId(text.substr(i, n), Mix64(state));
        if (gram == NgramInvertedIndex::kNoGram) break;
        out->hits.push_back(Hit{gram, static_cast<uint32_t>(n)});
      }
    }
    out->row_ends.push_back(out->hits.size());
  }
}

}  // namespace

std::shared_ptr<const NgramInvertedIndex> AcquireColumnIndex(
    const Column& column, const RowMatchOptions& options, IndexCacheKey key,
    ThreadPool* pool) {
  const auto build = [&] { return NgramInvertedIndex::Build(column, pool); };
  if (options.index_cache != nullptr && key.engaged()) {
    return options.index_cache->GetOrBuild(key, build);
  }
  return std::make_shared<const NgramInvertedIndex>(build());
}

RowMatchResult FindJoinablePairs(const Column& source, const Column& target,
                                 const RowMatchOptions& options) {
  RowMatchResult result;

  // One pool serves the target index build and the source probe: the
  // shared one, or one owned here of at most as many workers as the larger
  // column has rows (PoolRef). Both phases run at one chunk without it.
  const PoolRef pool_ref(options.pool, options.num_threads,
                         std::max(source.size(), target.size()));
  ThreadPool* pool = pool_ref.get();

  // Cross-pair memoization: with an engaged key the target index comes
  // from (or lands in) options.index_cache — shared across every pair and
  // served query touching this column. Cached or not, the scope holds a
  // shared_ptr, so an eviction mid-scan cannot free it. The source side
  // needs no index: Algorithm 1 only ranks grams the target holds.
  const std::shared_ptr<const NgramInvertedIndex> target_index_ptr =
      AcquireColumnIndex(target, options, options.target_cache_key, pool);
  const NgramInvertedIndex& target_index = *target_index_ptr;

  // Pass 1: probe every source gram against the target index. The probe is
  // embarrassingly parallel over rows; each chunk of rows fills its own
  // flat buffer, read back below in chunk (= row) order.
  const size_t num_chunks = ChunkCount(pool, source.size(), 4);
  std::vector<ChunkHits> chunks(num_chunks);
  ParallelFor(pool, source.size(), num_chunks,
              [&](int /*worker*/, size_t chunk, size_t begin, size_t end) {
                ProbeRows(source, begin, end, target_index, &chunks[chunk]);
              });

  // Source row frequency df_s of every hit gram: the number of distinct
  // source rows holding it, counted through a row-stamped table (stamps
  // are row+1 so row 0 differs from the zero-initialized slots). Grams
  // without hits keep df_s 0 and are never read.
  std::vector<uint32_t> df_stamp(target_index.num_grams(), 0);
  std::vector<uint32_t> source_df(target_index.num_grams(), 0);
  size_t longest_hit = 0;
  {
    uint32_t row = 0;
    for (const ChunkHits& chunk : chunks) {
      size_t hit = 0;
      for (const size_t row_end : chunk.row_ends) {
        const uint32_t stamp = ++row;
        for (; hit < row_end; ++hit) {
          const Hit& h = chunk.hits[hit];
          longest_hit = std::max<size_t>(longest_hit, h.size);
          if (df_stamp[h.gram] != stamp) {
            df_stamp[h.gram] = stamp;
            ++source_df[h.gram];
          }
        }
      }
    }
  }

  // Pass 2, merged in row order: per row and size, the representative is
  // the first hit (in position order) with the largest Rscore — strict `>`
  // on the product of the two IRFs (not an algebraically equal single
  // division, which can differ in the last ulp and flip a tie), so ties
  // break exactly as the paper's left-to-right scan does. Its target
  // postings, sizes ascending, are the row's raw occurrences, emitted with
  // per-row dedup (cross-row duplicates are impossible — the source row is
  // part of the pair). The dedup is a row-stamped table over target rows,
  // so the loop does no hashing and no per-row clear. Slots span only the
  // sizes that hit.
  const size_t num_sizes = longest_hit == 0 ? 0 : longest_hit - kMinGram + 1;
  std::vector<double> best_score(num_sizes);
  std::vector<uint32_t> best_gram(num_sizes);
  std::vector<uint32_t> seen_stamp(target.size(), 0);
  uint32_t row = 0;
  for (const ChunkHits& chunk : chunks) {
    size_t hit = 0;
    for (const size_t row_end : chunk.row_ends) {
      std::fill(best_score.begin(), best_score.end(), 0.0);
      std::fill(best_gram.begin(), best_gram.end(),
                NgramInvertedIndex::kNoGram);
      for (; hit < row_end; ++hit) {
        const Hit& h = chunk.hits[hit];
        const double score =
            (1.0 / static_cast<double>(source_df[h.gram])) *
            (1.0 / static_cast<double>(target_index.postings(h.gram).size()));
        const size_t slot = h.size - kMinGram;
        if (score > best_score[slot]) {
          best_score[slot] = score;
          best_gram[slot] = h.gram;
        }
      }
      bool any = false;
      const uint32_t stamp = row + 1;
      for (const uint32_t rep : best_gram) {
        if (rep == NgramInvertedIndex::kNoGram) continue;
        for (const uint32_t target_row : target_index.postings(rep)) {
          if (seen_stamp[target_row] != stamp) {
            seen_stamp[target_row] = stamp;
            result.pairs.push_back(RowPair{row, target_row});
            any = true;
          }
        }
      }
      if (!any) ++result.unmatched_source_rows;
      ++row;
    }
  }
  return result;
}

bool PickSourceColumn(const Column& a, const Column& b) {
  return a.AverageLength() >= b.AverageLength();
}

Status ValidateOptions(const RowMatchOptions& options) {
  if (options.index_cache == nullptr && options.target_cache_key.engaged()) {
    return Status::InvalidArgument(
        "RowMatchOptions carries an engaged index-cache key but no "
        "index_cache");
  }
  return Status::OK();
}

}  // namespace tj
