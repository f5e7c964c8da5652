// IndexCache: cross-pair memoization of CSR n-gram inverted indexes — the
// QJoin observation (PAPERS.md) that repeated discovery over one repository
// keeps rebuilding the same per-column join artifacts. A shortlisted column
// typically appears in many pairs; this cache makes each column's contents
// pay for exactly one `NgramInvertedIndex::Build`. Batch runs use it; the
// daemon does not.
//
// Keying and invalidation: entries are keyed by (table content fingerprint,
// column ordinal). The fingerprint is the catalog's order-sensitive content
// hash (TableFingerprint), recomputed by AddTable/UpdateTable — so a
// mutated table's entries are never *hit* again (the new fingerprint
// misses) and simply age out of the LRU ring. There is no explicit
// invalidate call to forget.
//
// Sharing is sound because Build is bit-identical at every thread count
// (inverted_index.h): a cached index is indistinguishable from the one the
// caller would have built, so cached and uncached runs produce byte-equal
// discovery output (enforced by the cache-labeled property tests and the
// bench identity gate).
//
// Concurrency: one mutex guards the table; builds run OUTSIDE the lock with
// single-flight coordination — the first requester of a key publishes a
// building placeholder, releases the lock, builds, installs, and notifies;
// concurrent requesters of the same key wait on the condvar and share the
// winner's index (exactly one Build per key, proven by the race unit test).
//
// Budget: `budget_bytes` caps the sum of the entries' MemoryBytes();
// exceeding it evicts least-recently-used READY entries until under budget
// again. The most recently installed entry is always retained (a budget
// smaller than one index must not make the cache thrash on nothing), and
// eviction never invalidates handed-out indexes — entries are
// shared_ptr<const ...>, so an evicted index dies with its last user.
// budget_bytes == 0 means unlimited.

#ifndef TJ_INDEX_INDEX_CACHE_H_
#define TJ_INDEX_INDEX_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/hash.h"
#include "index/inverted_index.h"

namespace tj {

/// Identifies one cached index: which column bytes (table content
/// fingerprint + column ordinal). A key with fingerprint 0 is DISENGAGED —
/// the column's contents are unknown to the caller (e.g. a bare column
/// outside any catalog) and the cache is bypassed for it.
struct IndexCacheKey {
  uint64_t fingerprint = 0;  ///< TableFingerprint of the owning table.
  uint32_t column = 0;       ///< Column ordinal within that table.

  bool engaged() const { return fingerprint != 0; }

  bool operator==(const IndexCacheKey& other) const {
    return fingerprint == other.fingerprint && column == other.column;
  }
};

struct IndexCacheKeyHash {
  size_t operator()(const IndexCacheKey& key) const {
    return static_cast<size_t>(
        HashCombine(Mix64(key.fingerprint), key.column));
  }
};

/// Counter snapshot, storage_events-style (see table/storage_events.h):
/// monotonic hit/miss/eviction totals plus the current footprint.
struct IndexCacheStats {
  uint64_t hits = 0;       ///< Requests served from a ready entry
                           ///< (single-flight waiters count as hits —
                           ///< they ran no Build).
  uint64_t misses = 0;     ///< Requests that had to run Build.
  uint64_t evictions = 0;  ///< Entries dropped by budget enforcement.
  uint64_t bytes = 0;      ///< Current sum of cached MemoryBytes().
  uint64_t entries = 0;    ///< Current ready entry count.
};

class IndexCache {
 public:
  /// budget_bytes caps the cached indexes' summed MemoryBytes();
  /// 0 = unlimited.
  explicit IndexCache(size_t budget_bytes = 0)
      : budget_bytes_(budget_bytes) {}

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  using BuildFn = std::function<NgramInvertedIndex()>;

  /// Returns the index for `key`, running `build` (outside the cache lock)
  /// iff no entry exists yet. Concurrent requests for the same key
  /// single-flight: exactly one runs `build`, the rest block and share the
  /// result. The key must be engaged(). The returned index is immutable
  /// and outlives any later eviction of its entry.
  std::shared_ptr<const NgramInvertedIndex> GetOrBuild(
      const IndexCacheKey& key, const BuildFn& build);

  /// Drops every ready entry (in-flight builds complete and install as
  /// usual). Handed-out indexes stay valid.
  void Clear();

  size_t budget_bytes() const { return budget_bytes_; }

  IndexCacheStats GetStats() const;

 private:
  struct Entry {
    std::shared_ptr<const NgramInvertedIndex> index;  // null while building
    size_t bytes = 0;
    /// Position in lru_ (ready entries only; building entries are not
    /// eviction candidates — there is nothing to free yet).
    std::list<IndexCacheKey>::iterator lru_it;
    bool ready = false;
  };

  /// Evicts LRU-tail ready entries until bytes_ <= budget. `keep` (the
  /// entry just installed) is never evicted. Lock must be held.
  void EnforceBudgetLocked(const IndexCacheKey& keep);

  const size_t budget_bytes_;

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::unordered_map<IndexCacheKey, Entry, IndexCacheKeyHash> entries_;
  /// Most recently used at the front; ready entries only.
  std::list<IndexCacheKey> lru_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace tj

#endif  // TJ_INDEX_INDEX_CACHE_H_
