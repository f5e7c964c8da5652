#include "core/set_cover.h"

#include <algorithm>
#include <functional>

namespace tj {
namespace {

/// hist[c]: the eligible ids (count >= min_support, count > 0) covering c
/// rows. Sized one past the largest eligible count; empty when none is.
std::vector<uint32_t> CountHistogram(const CoverageIndex& index,
                                     uint32_t min_support) {
  std::vector<uint32_t> hist;
  const size_t n = index.num_transformations();
  for (TransformationId t = 0; t < n; ++t) {
    const uint32_t c = index.Count(t);
    if (c < min_support || c == 0) continue;
    if (c >= hist.size()) hist.resize(c + 1, 0);
    ++hist[c];
  }
  return hist;
}

/// The lazy greedy's priority queue, ordered like a binary max-heap on
/// (count, then smaller id): one bucket per count. Bucket c holds the ids
/// laid out at count c, read in ascending order through a cursor, plus a
/// min-heap of the ids re-inserted at c; a pop takes the smaller of the
/// two heads. Re-inserted counts are below the current top, so the top
/// bucket only moves down and finding it costs O(max count) in total.
class CountBuckets {
 public:
  CountBuckets(const CoverageIndex& index, uint32_t min_support) {
    const std::vector<uint32_t> hist = CountHistogram(index, min_support);
    if (hist.empty()) return;
    // begin_[c] is bucket c's first slot in ids_; begin_[c + 1] ends it.
    begin_.assign(hist.size() + 1, 0);
    for (size_t c = 1; c < hist.size(); ++c) {
      begin_[c + 1] = begin_[c] + hist[c];
    }
    next_.assign(begin_.begin(), begin_.end() - 1);
    ids_.resize(begin_.back());
    const size_t n = index.num_transformations();
    for (TransformationId t = 0; t < n; ++t) {
      const uint32_t c = index.Count(t);
      if (c >= min_support && c > 0) ids_[next_[c]++] = t;
    }
    next_.assign(begin_.begin(), begin_.end() - 1);
    reinserted_.resize(hist.size());
    top_ = static_cast<uint32_t>(hist.size() - 1);
  }

  /// The highest non-empty count, or 0 when every bucket is empty.
  uint32_t TopCount() {
    while (top_ > 0 && next_[top_] == begin_[top_ + 1] &&
           reinserted_[top_].empty()) {
      --top_;
    }
    return top_;
  }

  /// Removes and returns the smallest id of bucket TopCount() (> 0).
  TransformationId Pop() {
    std::vector<TransformationId>& heap = reinserted_[top_];
    const bool unread = next_[top_] < begin_[top_ + 1];
    if (!heap.empty() && (!unread || heap.front() < ids_[next_[top_]])) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const TransformationId id = heap.back();
      heap.pop_back();
      return id;
    }
    return ids_[next_[top_]++];
  }

  /// Files `id` at `count`, which must be below TopCount().
  void Push(uint32_t count, TransformationId id) {
    std::vector<TransformationId>& heap = reinserted_[count];
    heap.push_back(id);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }

 private:
  std::vector<TransformationId> ids_;  // eligible ids by count, then id
  std::vector<uint32_t> begin_;        // per count, plus one end entry
  std::vector<uint32_t> next_;         // per count: first unread slot
  std::vector<std::vector<TransformationId>> reinserted_;  // min-heaps
  uint32_t top_ = 0;
};

}  // namespace

std::vector<RankedTransformation> TopKByCoverage(const CoverageIndex& index,
                                                 size_t k,
                                                 uint32_t min_support) {
  std::vector<RankedTransformation> top;
  const std::vector<uint32_t> hist = CountHistogram(index, min_support);
  if (k == 0 || hist.empty()) return top;
  // The k-th largest count is `cut`: every id above it is kept, and the
  // smallest `at_cut` ids at it fill the rest.
  size_t above = 0;
  uint32_t cut = static_cast<uint32_t>(hist.size() - 1);
  while (cut > 1 && above + hist[cut] < k) above += hist[cut--];
  size_t at_cut = std::min<size_t>(hist[cut], k - above);
  top.reserve(above + at_cut);
  const size_t n = index.num_transformations();
  for (TransformationId t = 0; t < n; ++t) {
    const uint32_t c = index.Count(t);
    if (c < min_support || c < cut) continue;
    if (c > cut) {
      top.push_back({t, c});
    } else if (at_cut > 0) {
      top.push_back({t, c});
      --at_cut;
    }
  }
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    if (a.coverage != b.coverage) return a.coverage > b.coverage;
    return a.id < b.id;
  });
  return top;
}

SetCoverResult GreedySetCover(const CoverageIndex& index, size_t num_rows,
                              const SetCoverOptions& options) {
  SetCoverResult result;
  result.covered.Resize(num_rows);
  CountBuckets queue(index, options.min_support);
  while (queue.TopCount() > 0 && result.covered_rows < num_rows) {
    const TransformationId id = queue.Pop();
    // Recompute the marginal gain (counts only ever decrease).
    uint32_t gain = 0;
    for (uint32_t row : index.RowsOf(id)) {
      if (!result.covered.Test(row)) ++gain;
    }
    if (gain == 0) continue;
    if (gain < queue.TopCount()) {
      queue.Push(gain, id);  // stale: reinsert with the fresh gain
      continue;
    }
    // Select.
    for (uint32_t row : index.RowsOf(id)) result.covered.Set(row);
    result.selected.push_back({id, index.Count(id)});
    result.marginal_gains.push_back(gain);
    result.covered_rows += gain;
  }
  return result;
}

}  // namespace tj
