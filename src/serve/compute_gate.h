// ComputeGate: the daemon's writer-preferring reader/writer lock. Served
// queries hold it shared while they evaluate against their pinned
// snapshot; startup and mutation batches (catalog changes, signature and
// shortlist maintenance on the daemon pool, budget eviction) hold it
// exclusive, so an eviction never unmaps bytes a query is reading.
//
// Writer preference is the point: once a writer waits, new readers queue
// behind it, so a steady stream of overlapping queries cannot starve
// mutations. libstdc++'s std::shared_mutex wraps glibc's default,
// reader-preferring rwlock, under which they can. The flip side is that a
// thread must take the shared side at most once: a nested lock_shared()
// behind a waiting writer deadlocks.
//
// Satisfies the SharedMutex requirements, so std::unique_lock and
// std::shared_lock work on it.

#ifndef TJ_SERVE_COMPUTE_GATE_H_
#define TJ_SERVE_COMPUTE_GATE_H_

#include <pthread.h>

#include "common/logging.h"

namespace tj::serve {

class ComputeGate {
 public:
  ComputeGate() {
    pthread_rwlockattr_t attr;
    TJ_CHECK(pthread_rwlockattr_init(&attr) == 0);
    TJ_CHECK(pthread_rwlockattr_setkind_np(
                 &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP) == 0);
    TJ_CHECK(pthread_rwlock_init(&lock_, &attr) == 0);
    pthread_rwlockattr_destroy(&attr);
  }
  ~ComputeGate() { pthread_rwlock_destroy(&lock_); }

  ComputeGate(const ComputeGate&) = delete;
  ComputeGate& operator=(const ComputeGate&) = delete;

  void lock() { TJ_CHECK(pthread_rwlock_wrlock(&lock_) == 0); }
  void unlock() { TJ_CHECK(pthread_rwlock_unlock(&lock_) == 0); }
  void lock_shared() { TJ_CHECK(pthread_rwlock_rdlock(&lock_) == 0); }
  void unlock_shared() { TJ_CHECK(pthread_rwlock_unlock(&lock_) == 0); }
  /// Fails while a writer holds the gate or waits for it.
  bool try_lock_shared() { return pthread_rwlock_tryrdlock(&lock_) == 0; }

 private:
  pthread_rwlock_t lock_;
};

}  // namespace tj::serve

#endif  // TJ_SERVE_COMPUTE_GATE_H_
