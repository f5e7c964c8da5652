// CorpusServer: joinability-as-a-service over a unix-domain socket — the
// long-lived daemon behind `corpus_discovery_tool --serve`. Owns the
// serving lifecycle around a live TableCatalog:
//
//  * Snapshot isolation. Every query runs against an immutable, refcounted
//    CorpusSnapshot; mutations build the NEXT snapshot and publish it
//    atomically, so a reader never observes a half-applied batch. Each
//    response carries the epoch that produced it, and responses at a given
//    epoch are byte-identical to a batch run over the same tables.
//
//  * Mutation batching. add/update/remove requests (and watcher events) are
//    queued and drained by one mutation thread; a burst coalesces into a
//    single snapshot rebuild. Mutation requests block until their batch is
//    applied and answer with the resulting epoch. Admission control bounds
//    the queue (ResourceExhausted beyond max_pending_mutations).
//
//  * Concurrency model. Every connection has its own handler thread (at
//    most kMaxConnections live; the next one is answered ResourceExhausted
//    and closed). A joinable / transform-join request holds the compute
//    gate (compute_gate.h) shared and evaluates its pairs serially on its
//    handler thread against the snapshot it pinned, so queries run in
//    parallel with each other. Startup and each mutation batch (catalog
//    change, signatures, shortlist maintenance, snapshot build, budget
//    eviction) hold the gate exclusive and are the only users of the
//    daemon's ThreadPool, whose ParallelFor is single-job. The gate prefers
//    writers, so a waiting batch is never starved by overlapping queries,
//    and eviction never unmaps bytes a query is reading. Stats and name
//    resolution read only the published snapshot and take no gate.
//
// Protocol (length-prefixed JSON frames, protocol.h): requests are objects
// with an "op" field —
//   {"op":"joinable","column":"table.col"[,"support":F]}
//   {"op":"transform-join","source":"t.c","target":"t.c"[,"support":F]}
//   {"op":"add","path":"/x/y.csv"}   (table named after the file stem)
//   {"op":"update","path":"/x/y.csv"}
//   {"op":"remove","name":"table"}
//   {"op":"stats"}
//   {"op":"shutdown"}
// Success responses are {"ok":true,"epoch":E,...}; failures are
// {"ok":false,"code":"InvalidArgument",...,"error":"..."} — a bad request
// never kills the daemon or the connection.

#ifndef TJ_SERVE_SERVER_H_
#define TJ_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "serve/compute_gate.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "serve/watcher.h"

namespace tj {
class ThreadPool;
}  // namespace tj

namespace tj::serve {

/// Cap on live connections. Each one may run its own evaluation, so this
/// also bounds concurrent evaluations and handler stacks.
inline constexpr size_t kMaxConnections = 64;

struct ServeOptions {
  /// Filesystem path of the unix-domain listening socket. A stale socket
  /// file from a previous run is removed at Start.
  std::string socket_path;

  /// When non-empty, a DirWatcher on this directory feeds the mutation
  /// queue: a settled write of NAME.csv becomes add-or-update of table
  /// NAME, a deletion becomes remove. Events are debounced — the batch is
  /// enqueued after `watch_debounce_ms` of quiet, so a multi-file sync
  /// lands as one snapshot rebuild.
  std::string watch_dir;

  /// Quiet period before watcher events are applied (also the watcher's
  /// poll granularity).
  int watch_debounce_ms = 200;

  /// Admission cap on queued mutations; requests beyond it are rejected
  /// with ResourceExhausted instead of queuing unboundedly.
  size_t max_pending_mutations = 64;

  /// Per-frame payload cap for this server.
  size_t max_frame_bytes = kMaxFrameBytes;

  /// Unused by the daemon: served queries build their indexes per pair.
  /// Kept for callers that still size a separate cache from it; to be
  /// removed with the batch-side index cache.
  size_t index_cache_budget_bytes = kDefaultIndexCacheBudgetBytes;

  /// Discovery configuration served queries run with (per-request
  /// "support" overrides only min_join_support). Also carries the pruner
  /// options the live shortlist is maintained with. Queries always run on
  /// one thread with no index cache, so num_threads and index_cache are
  /// ignored here; the pool passed to the constructor sizes startup and
  /// mutation work.
  CorpusDiscoveryOptions discovery;
};

/// Validates a ServeOptions (socket path present, timeouts/caps sane,
/// nested discovery options valid). OK for defaults + a socket path.
Status ValidateOptions(const ServeOptions& options);

/// JSON rendering of one per-pair result, shared by the server and tests
/// (tests rebuild expected responses from batch runs with exactly this).
JsonValue PairResultToJson(const CorpusColumnSource& source,
                           const CorpusPairResult& result);

class CorpusServer {
 public:
  /// The catalog must stay alive (and unmutated by others) for the
  /// server's lifetime; the server becomes its only writer. The pool is
  /// the run's shared ThreadPool (one-pool constraint). Only startup and
  /// mutation batches use it, under the exclusive side of the compute
  /// gate; queries never touch it.
  CorpusServer(TableCatalog* catalog, ThreadPool* pool, ServeOptions options);
  ~CorpusServer();

  CorpusServer(const CorpusServer&) = delete;
  CorpusServer& operator=(const CorpusServer&) = delete;

  /// Computes signatures, builds the initial shortlist + snapshot, binds
  /// the socket, and spawns the accept / mutation / watch threads.
  Status Start();

  /// Blocks until a client "shutdown" request or Shutdown() from another
  /// thread (e.g. a signal handler's flag observed by the caller).
  void Wait();

  /// Wait with a timeout: true when shutdown was requested, false on
  /// timeout — the polling form a signal-interruptible main loop needs
  /// (a signal handler can only set a flag, not notify this condition).
  bool WaitFor(int timeout_ms);

  /// Graceful stop: stops accepting, lets in-flight requests finish,
  /// applies already-queued mutations, joins every thread, unlinks the
  /// socket. Idempotent.
  void Shutdown();

  /// The currently published snapshot (never null after Start).
  std::shared_ptr<const CorpusSnapshot> current_snapshot() const;

  /// Monotonic counters (approximate under concurrency; exact once idle).
  uint64_t queries_served() const { return queries_served_.load(); }
  uint64_t mutations_applied() const { return mutations_applied_.load(); }
  uint64_t snapshot_rebuilds() const { return snapshot_rebuilds_.load(); }

 private:
  struct Mutation {
    enum class Kind { kAdd, kUpdate, kAddOrUpdate, kRemove };
    Kind kind = Kind::kAdd;
    std::string path;  // CSV path (add/update/add-or-update)
    std::string name;  // table name (remove; derived from path otherwise)
    /// Synchronous requests wait on these; watcher mutations are
    /// fire-and-forget (waited == false).
    bool waited = false;
    bool done = false;
    Status status;
    uint64_t epoch = 0;
  };

  void AcceptLoop();
  void HandleConnection(int fd);
  /// Joins the handlers whose connections have closed. An exited thread
  /// keeps its stack mapped until joined, so AcceptLoop reaps before every
  /// spawn and a long-lived daemon holds only its live connections' stacks.
  void ReapFinishedHandlers();
  void MutationLoop();
  void WatchLoop();

  /// Parses + dispatches one request payload; always returns a response
  /// frame body.
  std::string HandleRequest(std::string_view payload);
  JsonValue HandleJoinable(const JsonValue& request);
  JsonValue HandleTransformJoin(const JsonValue& request);
  JsonValue HandleMutation(const JsonValue& request, Mutation::Kind kind);
  JsonValue HandleStats();

  /// Applies one mutation to catalog + pruner. Compute gate must be held
  /// exclusive.
  Status ApplyMutation(Mutation* m);
  /// Builds + publishes a snapshot at the catalog's current epoch.
  /// Compute gate must be held exclusive.
  void PublishSnapshot();

  /// Enqueues and (for waited mutations) blocks until applied.
  Status EnqueueMutation(std::shared_ptr<Mutation> m);

  /// Resolves the per-request discovery options ("support" override) and
  /// pins them to one thread: a query evaluates inline on its handler.
  Result<CorpusDiscoveryOptions> RequestOptions(const JsonValue& request);

  TableCatalog* catalog_;
  ThreadPool* pool_;
  ServeOptions options_;

  IncrementalPairPruner pruner_;

  /// Opened synchronously in Start() so the inotify watch is registered
  /// before Start() returns — a file dropped into the directory right
  /// after startup is never missed. Only WatchLoop touches it afterwards.
  DirWatcher watcher_;

  /// Shared for queries, exclusive for startup and mutation batches (see
  /// file comment).
  ComputeGate gate_;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const CorpusSnapshot> snapshot_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;   // mutation thread wakeup
  std::condition_variable done_cv_;    // waiters on applied mutations
  std::deque<std::shared_ptr<Mutation>> queue_;

  std::atomic<bool> stopping_{false};
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  bool shutdown_requested_ = false;
  bool started_ = false;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::thread mutation_thread_;
  std::thread watch_thread_;
  std::mutex handlers_mu_;
  std::vector<std::thread> handler_threads_;
  /// Handlers that have returned and await their join (guarded by
  /// handlers_mu_). Live connections are handler_threads_ minus these.
  std::vector<std::thread::id> finished_handlers_;

  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> mutations_applied_{0};
  std::atomic<uint64_t> snapshot_rebuilds_{0};
  std::atomic<uint64_t> watch_events_{0};
  std::atomic<uint64_t> requests_rejected_{0};
};

}  // namespace tj::serve

#endif  // TJ_SERVE_SERVER_H_
