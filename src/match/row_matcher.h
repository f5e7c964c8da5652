// Candidate joinable-pair detection (paper §4.2.1, Algorithm 1): for each
// source row and each n-gram size in [kMinGram, kMaxGram] (text/ngram.h),
// the n-gram with the highest Rscore (product of Inverse Row Frequencies in
// both columns) is the row's representative; every target row containing a
// representative becomes a candidate pair. Rows are always ASCII-lowercased
// (the paper ignores capitalization in its examples).

#ifndef TJ_MATCH_ROW_MATCHER_H_
#define TJ_MATCH_ROW_MATCHER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "index/index_cache.h"
#include "index/inverted_index.h"
#include "table/column.h"
#include "table/table_pair.h"

namespace tj {

class ThreadPool;

struct RowMatchOptions {
  /// Worker threads for building the target column's n-gram inverted index
  /// and for probing it with the source rows (0 = hardware concurrency, 1 =
  /// serial). Index content and the emitted pairs are identical across
  /// thread counts.
  int num_threads = 1;

  /// Optional externally-owned pool shared by the index build and the probe
  /// (and across pairs at corpus scale). Overrides num_threads when set; a
  /// call already running inside a chunk of this pool falls back to the
  /// serial probe with identical results.
  ThreadPool* pool = nullptr;

  /// Optional externally-owned cross-pair index cache (index/index_cache.h).
  /// When set and target_cache_key is engaged (nonzero table fingerprint),
  /// the target column's inverted index is fetched from / installed into
  /// the cache instead of rebuilt per call — byte-identical either way,
  /// since Build output is bit-identical at every thread count. An engaged
  /// target key with a null cache is an InvalidArgument (ValidateOptions).
  IndexCache* index_cache = nullptr;
  /// Ignored: FindJoinablePairs builds no source index. Kept only while
  /// callers outside the library still fill it.
  IndexCacheKey source_cache_key;
  IndexCacheKey target_cache_key;
};

struct RowMatchResult {
  /// Candidate pairs in discovery order, deduplicated.
  std::vector<RowPair> pairs;
  /// Number of source rows that produced no candidate at all.
  size_t unmatched_source_rows = 0;
};

/// Algorithm 1. Only the target column is indexed; every source gram is
/// probed against that index, and the source row frequency of Eq. 1 is
/// counted for the grams that hit (a gram the target lacks scores 0 and is
/// never a representative). Both columns' rows are lowered as they are
/// read; neither column is copied. `source` should be the more descriptive
/// column (see PickSourceColumn).
RowMatchResult FindJoinablePairs(const Column& source, const Column& target,
                                 const RowMatchOptions& options);

/// The inverted index FindJoinablePairs uses for `column` — fetched from
/// options.index_cache when `key` is engaged (the cache pre-warm path of
/// corpus discovery), built privately otherwise. `pool` drives a private
/// build (cached or not), nullptr = serial. A pre-warmed entry is the one a
/// pair evaluation would install.
std::shared_ptr<const NgramInvertedIndex> AcquireColumnIndex(
    const Column& column, const RowMatchOptions& options, IndexCacheKey key,
    ThreadPool* pool);

/// The paper designates the column with the longer average value as the
/// source. Returns true when `a` should be the source of (a, b).
bool PickSourceColumn(const Column& a, const Column& b);

/// Validates a RowMatchOptions (an engaged index-cache key needs a cache) —
/// InvalidArgument instead of a downstream failure, so daemon-supplied
/// configurations fail as responses, not process deaths. Defaults always
/// validate.
Status ValidateOptions(const RowMatchOptions& options);

}  // namespace tj

#endif  // TJ_MATCH_ROW_MATCHER_H_
