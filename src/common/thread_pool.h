// ThreadPool: the parallel-execution subsystem behind every parallel phase:
// the discovery pipeline's hot loops (coverage, generation, index build,
// row probe) and the corpus layer's sketch, shortlist, eviction and pair
// fan-out scans.
//
// The only primitive is a chunked ParallelFor. [0, total) is split into
// `num_chunks` contiguous, ascending ranges; chunks are handed to workers
// through an atomic ticket counter — no work stealing and no re-splitting.
// This gives dynamic load balancing while keeping a simple determinism
// contract (below) that every parallel phase in this codebase relies on.
//
// Determinism contract:
//  * The partition of [0, total) into chunks depends only on (total,
//    num_chunks), never on scheduling.
//  * A chunk is executed exactly once, sequentially, by one thread.
//  * Callers that write into per-chunk output buffers and merge them in
//    chunk order therefore produce results that are bit-identical across
//    runs and across thread counts.
//  * Per-worker scratch state (caches, arenas) may be indexed by the
//    `worker` id, which is in [0, size()) and stable while the pool lives.
//    Worker-indexed state must not affect output values, only reuse
//    allocations (e.g. the per-row negative-unit cache, which is reset per
//    row anyway).
//
// The phase idiom: a phase has one body, written for any chunk count. It
// takes its pool from PoolRef, asks ChunkCount how many chunks to cut,
// runs them with the null-safe ParallelFor below, and merges the per-chunk
// outputs in chunk order (ConcatChunks). A one-chunk run is the serial
// path: the body runs inline over [0, total), and a merge of one chunk
// moves it. Only this module decides when a phase runs at one chunk.

#ifndef TJ_COMMON_THREAD_POOL_H_
#define TJ_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace tj {

/// Resolves a thread-count knob: 0 means std::thread::hardware_concurrency
/// (at least 1); negative values clamp to 1.
int ResolveNumThreads(int num_threads);

/// Fixed-size pool of workers driving chunked parallel-for jobs. The calling
/// thread participates as worker 0, so a pool of size N spawns N - 1
/// threads and ThreadPool(1) spawns none (every job runs inline).
class ThreadPool {
 public:
  /// fn(worker, chunk, begin, end): process [begin, end) as chunk `chunk`.
  using ChunkFn =
      std::function<void(int worker, size_t chunk, size_t begin, size_t end)>;

  /// num_threads as in ResolveNumThreads (0 = hardware concurrency).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count, including the calling thread.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn over [0, total) split into num_chunks contiguous ranges
  /// (balanced to within one element; num_chunks is clamped to [1, total]).
  /// Blocks until every chunk finished; rethrows the first exception thrown
  /// by a chunk. Reusable: sequential ParallelFor calls share the workers.
  ///
  /// Two inline rules keep the same partition:
  ///  * A call issued from inside a chunk (of any pool) does not touch the
  ///    pool's job state: it runs every chunk inline, sequentially, as
  ///    worker 0 on the calling thread, still flagged as inside a chunk.
  ///    Phases avoid even that by asking ChunkCount, which is 1 there.
  ///  * A one-chunk call, or any call on a workerless pool, runs inline with
  ///    the in-chunk flag clear: the job state is untouched, so a call made
  ///    from inside fn is a fresh dispatch. A one-pair fan-out thus hands its
  ///    inner phases the whole pool.
  void ParallelFor(size_t total, size_t num_chunks, const ChunkFn& fn);

  /// Number of ThreadPool instances constructed since process start.
  /// Diagnostic for the shared-pool contract (e.g. "a corpus run constructs
  /// exactly one pool"); tests compare deltas around a call.
  static uint64_t TotalCreated();

 private:
  void WorkerLoop(int worker);
  /// Claims and runs chunks of the current job until none remain.
  void RunChunks(int worker, const ChunkFn& fn, size_t total,
                 size_t num_chunks);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // a new job generation is available
  std::condition_variable done_cv_;  // chunks finished / workers checked out
  uint64_t generation_ = 0;          // guarded by mu_
  bool shutdown_ = false;            // guarded by mu_

  // Current job. fn_/total_/num_chunks_ are written under mu_ by
  // ParallelFor and read under mu_ by workers when they adopt the
  // generation; chunk tickets are claimed lock-free.
  const ChunkFn* fn_ = nullptr;
  size_t total_ = 0;
  size_t num_chunks_ = 0;
  std::atomic<size_t> next_chunk_{0};
  std::atomic<bool> job_failed_{false};  // stop claiming once a chunk threw
  size_t finished_chunks_ = 0;       // guarded by mu_
  int active_workers_ = 0;           // guarded by mu_
  std::exception_ptr first_error_;   // guarded by mu_
};

/// The chunk count of a phase over `total` items: 1 with no pool, with a
/// one-worker pool, with fewer than two items, or when the caller runs
/// inside a chunk (a phase nested in a fan-out gets no extra parallelism);
/// otherwise min(total, pool->size() * per_worker). Pass per_worker =
/// total for one chunk per item.
size_t ChunkCount(const ThreadPool* pool, size_t total, size_t per_worker);

/// Runs fn(worker, chunk, begin, end) over [0, total) cut into num_chunks
/// chunks: on `pool` when there are several chunks and a pool, otherwise
/// inline on the calling thread as worker 0 over the same partition,
/// calling fn directly and leaving the in-chunk flag as it is. A one-chunk
/// run is therefore exactly the phase's serial loop.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t total, size_t num_chunks,
                 const Fn& fn) {
  if (total == 0) return;
  if (pool != nullptr && num_chunks > 1) {
    pool->ParallelFor(total, num_chunks, fn);
    return;
  }
  num_chunks = std::min(std::max<size_t>(num_chunks, 1), total);
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    fn(0, chunk, chunk * total / num_chunks,
       (chunk + 1) * total / num_chunks);
  }
}

/// Concatenates per-chunk outputs in chunk order; one chunk is moved. Takes
/// the chunks by value, so their buffers are freed before the caller goes on.
template <typename T>
std::vector<T> ConcatChunks(std::vector<std::vector<T>> chunks) {
  if (chunks.size() == 1) return std::move(chunks[0]);
  size_t size = 0;
  for (const std::vector<T>& chunk : chunks) size += chunk.size();
  std::vector<T> out;
  out.reserve(size);
  for (std::vector<T>& chunk : chunks) {
    out.insert(out.end(), std::make_move_iterator(chunk.begin()),
               std::make_move_iterator(chunk.end()));
  }
  return out;
}

/// The pool a phase runs on. Borrows `shared` when one is given
/// (DiscoveryOptions::pool, RowMatchOptions::pool, a corpus run's pool).
/// Otherwise owns a pool of num_threads workers (as in ResolveNumThreads,
/// capped at max_workers), but only when that is more than one and the
/// caller is not inside a chunk; else get() is nullptr and the phase runs
/// at one chunk without constructing a pool.
class PoolRef {
 public:
  PoolRef(ThreadPool* shared, int num_threads,
          size_t max_workers = std::numeric_limits<size_t>::max());

  PoolRef(const PoolRef&) = delete;
  PoolRef& operator=(const PoolRef&) = delete;

  ThreadPool* get() const { return pool_; }

 private:
  std::optional<ThreadPool> owned_;
  ThreadPool* pool_;
};

}  // namespace tj

#endif  // TJ_COMMON_THREAD_POOL_H_
