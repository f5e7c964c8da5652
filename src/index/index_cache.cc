#include "index/index_cache.h"

#include <utility>

#include "common/logging.h"

namespace tj {

std::shared_ptr<const NgramInvertedIndex> IndexCache::GetOrBuild(
    const IndexCacheKey& key, const BuildFn& build) {
  TJ_CHECK(key.engaged());
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // Single-flight loser: another thread is mid-Build on this key.
      // Waiting (instead of building a duplicate) is deadlock-free even on
      // a pool worker — the winner's Build runs at one chunk inside a
      // ParallelFor chunk, so it never waits on this thread.
      ready_cv_.wait(lock, [&] {
        auto wit = entries_.find(key);
        return wit == entries_.end() || wit->second.ready;
      });
      it = entries_.find(key);
      // A Clear() between install and wakeup can have dropped the entry;
      // fall through to a fresh miss in that (shutdown-path) case.
      if (it != entries_.end() && it->second.ready) {
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        return it->second.index;
      }
    }
    ++misses_;
    entries_.emplace(key, Entry{});  // building placeholder
  }

  // Build outside the lock: other keys stay fully concurrent, and waiters
  // on this key park on the condvar instead of the mutex.
  auto index = std::make_shared<const NgramInvertedIndex>(build());
  const size_t bytes = index->MemoryBytes();

  std::shared_ptr<const NgramInvertedIndex> result = index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[key];
    entry.index = std::move(index);
    entry.bytes = bytes;
    lru_.push_front(key);
    entry.lru_it = lru_.begin();
    entry.ready = true;
    bytes_ += bytes;
    EnforceBudgetLocked(key);
  }
  ready_cv_.notify_all();
  return result;
}

void IndexCache::EnforceBudgetLocked(const IndexCacheKey& keep) {
  if (budget_bytes_ == 0) return;
  while (bytes_ > budget_bytes_ && !lru_.empty() && !(lru_.back() == keep)) {
    const IndexCacheKey victim = lru_.back();
    auto it = entries_.find(victim);
    TJ_CHECK(it != entries_.end() && it->second.ready);
    bytes_ -= it->second.bytes;
    ++evictions_;
    entries_.erase(it);
    lru_.pop_back();
  }
}

void IndexCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // Drop ready entries only; building placeholders belong to their
  // in-flight winners, which will install over them.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.ready) {
      bytes_ -= it->second.bytes;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  lru_.clear();
}

IndexCacheStats IndexCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IndexCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.bytes = bytes_;
  stats.entries = lru_.size();
  return stats;
}

}  // namespace tj
