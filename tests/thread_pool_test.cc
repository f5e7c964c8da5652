// Tests for the parallel-execution subsystem: chunk partition invariants,
// exactly-once execution, reuse, worker ids, exception propagation, and the
// phase idiom's rules (ChunkCount, the null-safe ParallelFor, PoolRef, and
// the two inline paths of ThreadPool::ParallelFor).

#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace tj {
namespace {

TEST(ResolveNumThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ResolveNumThreads(0), 1);
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
  EXPECT_EQ(ResolveNumThreads(-3), 1);
}

TEST(ThreadPool, SizeIncludesCaller) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  ThreadPool serial(1);
  EXPECT_EQ(serial.size(), 1);
}

TEST(ThreadPool, EveryIndexProcessedExactlyOnce) {
  constexpr size_t kTotal = 1000;
  ThreadPool pool(8);
  std::vector<std::atomic<int>> seen(kTotal);
  pool.ParallelFor(kTotal, 37, [&](int, size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      seen[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ChunksAreContiguousAscendingAndScheduleIndependent) {
  constexpr size_t kTotal = 103;
  constexpr size_t kChunks = 7;
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> ranges(kChunks);
  std::set<size_t> chunks;
  pool.ParallelFor(kTotal, kChunks,
                   [&](int, size_t chunk, size_t begin, size_t end) {
                     std::lock_guard<std::mutex> lock(mu);
                     ranges[chunk] = {begin, end};
                     chunks.insert(chunk);
                   });
  ASSERT_EQ(chunks.size(), kChunks);
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, kTotal);
  for (size_t c = 1; c < kChunks; ++c) {
    EXPECT_EQ(ranges[c].first, ranges[c - 1].second);
    EXPECT_LT(ranges[c].first, ranges[c].second);  // no empty chunks
  }
}

TEST(ThreadPool, WorkerIdsAreInRange) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<int> workers;
  pool.ParallelFor(64, 64, [&](int worker, size_t, size_t, size_t) {
    std::lock_guard<std::mutex> lock(mu);
    workers.insert(worker);
  });
  EXPECT_FALSE(workers.empty());
  EXPECT_GE(*workers.begin(), 0);
  EXPECT_LT(*workers.rbegin(), pool.size());
}

TEST(ThreadPool, EmptyRangeNeverInvokesFn) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 4, [&](int, size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, MoreChunksThanItemsClampsToTotal) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(3);
  pool.ParallelFor(3, 100, [&](int, size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) seen[i].fetch_add(1);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, ReusableAcrossSequentialJobs) {
  ThreadPool pool(4);
  for (int job = 0; job < 20; ++job) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, 8, [&](int, size_t, size_t begin, size_t end) {
      size_t local = 0;
      for (size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(16, 16,
                       [&](int, size_t chunk, size_t, size_t) {
                         if (chunk == 5) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> calls{0};
  pool.ParallelFor(8, 8, [&](int, size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(10, 5, [&](int worker, size_t chunk, size_t, size_t) {
    EXPECT_EQ(worker, 0);
    order.push_back(chunk);  // no lock needed: everything runs inline
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

/// Runs a two-chunk job on `pool` whose chunks each wait, up to a deadline,
/// for the other to start. True when both ran at once, i.e. the job reached
/// a worker instead of running inline on the calling thread.
bool ReachesWorkers(ThreadPool& pool) {
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::atomic<int> concurrent{0};
  pool.ParallelFor(2, 2, [&](int, size_t, size_t, size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    if (cv.wait_for(lock, std::chrono::seconds(10),
                    [&] { return started == 2; })) {
      ++concurrent;
    }
  });
  return concurrent.load() == 2;
}

TEST(ThreadPool, ChunkCountIsOneWithoutParallelismElseWorkersTimesFactor) {
  ThreadPool pool(3);
  ThreadPool one(1);
  EXPECT_EQ(ChunkCount(nullptr, 100, 4), 1u);
  EXPECT_EQ(ChunkCount(&one, 100, 4), 1u);
  EXPECT_EQ(ChunkCount(&pool, 0, 4), 1u);
  EXPECT_EQ(ChunkCount(&pool, 1, 4), 1u);
  EXPECT_EQ(ChunkCount(&pool, 2, 4), 2u);
  EXPECT_EQ(ChunkCount(&pool, 100, 4), 12u);
  EXPECT_EQ(ChunkCount(&pool, 7, 4), 7u);
  EXPECT_EQ(ChunkCount(&pool, 100, 1), 3u);
  EXPECT_EQ(ChunkCount(&pool, 100, 100), 100u);  // one chunk per item

  std::atomic<int> nested_counts_above_one{0};
  pool.ParallelFor(6, 6, [&](int, size_t, size_t, size_t) {
    if (ChunkCount(&pool, 100, 4) != 1) ++nested_counts_above_one;
  });
  EXPECT_EQ(nested_counts_above_one.load(), 0);
}

TEST(ThreadPool, NestedCallRunsInlineAsWorkerZeroWithThePartition) {
  ThreadPool pool(3);
  std::atomic<int> failures{0};
  pool.ParallelFor(4, 4, [&](int, size_t, size_t, size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    std::vector<std::tuple<int, size_t, size_t, size_t>> calls;
    bool all_inline = true;
    bool still_in_chunk = true;
    pool.ParallelFor(10, 4, [&](int worker, size_t chunk, size_t begin,
                                size_t end) {
      calls.emplace_back(worker, chunk, begin, end);
      all_inline &= std::this_thread::get_id() == outer;
      still_in_chunk &= ChunkCount(&pool, 100, 4) == 1;
    });
    const std::vector<std::tuple<int, size_t, size_t, size_t>> expected = {
        {0, 0, 0, 2}, {0, 1, 2, 5}, {0, 2, 5, 7}, {0, 3, 7, 10}};
    if (calls != expected || !all_inline || !still_in_chunk) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPool, OneChunkOrWorkerlessDispatchLeavesTheFlagClear) {
  ThreadPool pool(2);
  ThreadPool serial(1);
  bool one_chunk_counts = false;
  bool one_chunk_reaches = false;
  pool.ParallelFor(5, 1, [&](int, size_t, size_t, size_t) {
    one_chunk_counts = ChunkCount(&pool, 100, 4) == 8;
    one_chunk_reaches = ReachesWorkers(pool);
  });
  EXPECT_TRUE(one_chunk_counts);
  EXPECT_TRUE(one_chunk_reaches);

  int workerless_chunks = 0;
  bool workerless_reaches = true;
  serial.ParallelFor(3, 3, [&](int, size_t, size_t, size_t) {
    ++workerless_chunks;
    workerless_reaches &= ReachesWorkers(pool);
  });
  EXPECT_EQ(workerless_chunks, 3);
  EXPECT_TRUE(workerless_reaches);

  // The null-safe ParallelFor's one-chunk path calls the body directly.
  bool inline_reaches = false;
  ParallelFor(&pool, 5, 1, [&](int worker, size_t chunk, size_t begin,
                               size_t end) {
    EXPECT_EQ(std::tie(worker, chunk, begin, end),
              std::make_tuple(0, size_t{0}, size_t{0}, size_t{5}));
    inline_reaches = ReachesWorkers(pool);
  });
  EXPECT_TRUE(inline_reaches);
}

TEST(ThreadPool, NullSafeParallelForRunsThePartitionInlineWithoutAPool) {
  std::vector<std::tuple<int, size_t, size_t, size_t>> calls;
  ParallelFor(nullptr, 10, 4,
              [&](int worker, size_t chunk, size_t begin, size_t end) {
                calls.emplace_back(worker, chunk, begin, end);
              });
  const std::vector<std::tuple<int, size_t, size_t, size_t>> expected = {
      {0, 0, 0, 2}, {0, 1, 2, 5}, {0, 2, 5, 7}, {0, 3, 7, 10}};
  EXPECT_EQ(calls, expected);
  int empty_calls = 0;
  ParallelFor(nullptr, 0, 1, [&](int, size_t, size_t, size_t) {
    ++empty_calls;
  });
  EXPECT_EQ(empty_calls, 0);
}

TEST(ThreadPool, ConcatChunksMovesOneChunkAndAppendsSeveralInOrder) {
  std::vector<std::vector<int>> one = {{1, 2, 3}};
  const int* data = one[0].data();
  const std::vector<int> moved = ConcatChunks(std::move(one));
  EXPECT_EQ(moved.data(), data);
  std::vector<std::vector<int>> several = {{1}, {}, {2, 3}};
  EXPECT_EQ(ConcatChunks(std::move(several)), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(several.empty());  // the chunk buffers went with the call
}

TEST(ThreadPool, PoolRefOwnsAPoolOnlyForSeveralThreadsOutsideAChunk) {
  const uint64_t before = ThreadPool::TotalCreated();
  EXPECT_EQ(PoolRef(nullptr, 1).get(), nullptr);
  EXPECT_EQ(PoolRef(nullptr, -3).get(), nullptr);
  EXPECT_EQ(PoolRef(nullptr, 4, /*max_workers=*/1).get(), nullptr);
  EXPECT_EQ(PoolRef(nullptr, 4, /*max_workers=*/0).get(), nullptr);
  EXPECT_EQ(ThreadPool::TotalCreated() - before, 0u);
  {
    const PoolRef owned(nullptr, 4);
    ASSERT_NE(owned.get(), nullptr);
    EXPECT_EQ(owned.get()->size(), 4);
    const PoolRef capped(nullptr, 4, /*max_workers=*/2);
    ASSERT_NE(capped.get(), nullptr);
    EXPECT_EQ(capped.get()->size(), 2);
  }
  EXPECT_EQ(ThreadPool::TotalCreated() - before, 2u);

  ThreadPool shared(2);
  const uint64_t borrowed_before = ThreadPool::TotalCreated();
  EXPECT_EQ(PoolRef(&shared, 1).get(), &shared);
  EXPECT_EQ(PoolRef(&shared, 8).get(), &shared);
  std::atomic<int> wrong{0};
  shared.ParallelFor(4, 4, [&](int, size_t, size_t, size_t) {
    if (PoolRef(nullptr, 4).get() != nullptr) ++wrong;
    if (PoolRef(&shared, 4).get() != &shared) ++wrong;
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ThreadPool::TotalCreated() - borrowed_before, 0u);
}

}  // namespace
}  // namespace tj
