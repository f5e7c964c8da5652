#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <shared_mutex>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "table/csv.h"

namespace tj::serve {
namespace {

/// Receive timeout on accepted connections and the accept loop's poll:
/// the granularity at which an idle handler notices server shutdown.
constexpr int kRecvTimeoutMs = 200;

JsonValue ErrorResponse(const Status& status) {
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false));
  response.Set("code", JsonValue::Str(std::string(
                           StatusCodeToString(status.code()))));
  response.Set("error", JsonValue::Str(status.message()));
  return response;
}

/// "table" from "table.csv"; the inverse of the CSV-directory naming rule.
std::string StemOf(const std::string& filename) {
  return std::filesystem::path(filename).stem().string();
}

Status SetRecvTimeout(int fd, int timeout_ms) {
  struct timeval tv = {};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IOError(std::string("setsockopt(SO_RCVTIMEO): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status ValidateOptions(const ServeOptions& options) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("ServeOptions::socket_path is required");
  }
  // sockaddr_un's path buffer is small (108 bytes on Linux); overlong paths
  // would silently truncate into a different filesystem location.
  if (options.socket_path.size() >= sizeof(sockaddr_un::sun_path)) {
    return Status::InvalidArgument(
        "ServeOptions::socket_path exceeds the unix socket path limit (" +
        std::to_string(sizeof(sockaddr_un::sun_path) - 1) + " bytes)");
  }
  if (options.watch_debounce_ms < 1) {
    return Status::InvalidArgument(
        "ServeOptions::watch_debounce_ms must be >= 1");
  }
  if (options.max_pending_mutations == 0) {
    return Status::InvalidArgument(
        "ServeOptions::max_pending_mutations must be >= 1");
  }
  if (options.max_frame_bytes == 0 ||
      options.max_frame_bytes > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "ServeOptions::max_frame_bytes must be in [1, " +
        std::to_string(kMaxFrameBytes) + "]");
  }
  TJ_RETURN_IF_ERROR(ValidateOptions(options.discovery));
  return Status::OK();
}

JsonValue PairResultToJson(const CorpusColumnSource& source,
                           const CorpusPairResult& result) {
  JsonValue json = JsonValue::Object();
  json.Set("source",
           JsonValue::Str(source.table_name(result.source.table) + "." +
                          source.column_name(result.source)));
  json.Set("target",
           JsonValue::Str(source.table_name(result.target.table) + "." +
                          source.column_name(result.target)));
  json.Set("score", JsonValue::Number(result.candidate.score));
  json.Set("learning_pairs",
           JsonValue::Number(static_cast<double>(result.learning_pairs)));
  json.Set("joined_rows",
           JsonValue::Number(static_cast<double>(result.joined_rows)));
  json.Set("top_coverage", JsonValue::Number(result.top_coverage));
  JsonValue transformations = JsonValue::Array();
  for (const std::string& t : result.transformations) {
    transformations.Append(JsonValue::Str(t));
  }
  json.Set("transformations", std::move(transformations));
  if (!result.error.empty()) {
    json.Set("error", JsonValue::Str(result.error));
  }
  return json;
}

CorpusServer::CorpusServer(TableCatalog* catalog, ThreadPool* pool,
                           ServeOptions options)
    : catalog_(catalog),
      pool_(pool),
      options_(std::move(options)),
      pruner_(options_.discovery.pruner) {}

CorpusServer::~CorpusServer() { Shutdown(); }

Status CorpusServer::Start() {
  TJ_RETURN_IF_ERROR(ValidateOptions(options_));
  TJ_CHECK(!started_);  // Start is once-per-instance

  {
    std::lock_guard<ComputeGate> gate(gate_);
    catalog_->ComputeSignatures(pool_);
    pruner_.Rebuild(*catalog_, pool_);
    PublishSnapshot();
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  // A previous daemon's socket file would make bind fail with EADDRINUSE;
  // connecting clients only ever see the file of a live listener.
  ::unlink(options_.socket_path.c_str());
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind '" + options_.socket_path +
                           "': " + std::strerror(err));
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    return Status::IOError(std::string("listen: ") + std::strerror(err));
  }

  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  mutation_thread_ = std::thread([this] { MutationLoop(); });
  if (!options_.watch_dir.empty()) {
    // Register the inotify watch before Start() returns: a file dropped
    // into the directory immediately after startup must not be missed.
    // Watch failure degrades to serve-only (warn), matching restarts
    // against a directory that disappeared.
    const Status opened = watcher_.Open(options_.watch_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "tjd: watch disabled: %s\n",
                   opened.ToString().c_str());
    } else {
      watch_thread_ = std::thread([this] { WatchLoop(); });
    }
  }
  return Status::OK();
}

void CorpusServer::Wait() {
  std::unique_lock<std::mutex> lock(wait_mu_);
  wait_cv_.wait(lock, [this] {
    return shutdown_requested_ || stopping_.load(std::memory_order_relaxed);
  });
}

bool CorpusServer::WaitFor(int timeout_ms) {
  std::unique_lock<std::mutex> lock(wait_mu_);
  return wait_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [this] {
                             return shutdown_requested_ ||
                                    stopping_.load(std::memory_order_relaxed);
                           });
}

void CorpusServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    shutdown_requested_ = true;
  }
  wait_cv_.notify_all();
  if (stopping_.exchange(true)) {
    // A concurrent/earlier Shutdown owns the joins.
    return;
  }
  queue_cv_.notify_all();

  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Handlers see `stopping_` via their receive-timeout poll, finish the
  // request they are answering, and exit — the graceful drain.
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    handlers.swap(handler_threads_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
  // The mutation thread drains the remaining queue before exiting, so an
  // accepted mutation is never silently dropped by shutdown.
  if (mutation_thread_.joinable()) mutation_thread_.join();
  if (watch_thread_.joinable()) watch_thread_.join();
  if (started_) ::unlink(options_.socket_path.c_str());
}

std::shared_ptr<const CorpusSnapshot> CorpusServer::current_snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void CorpusServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    struct pollfd pfd = {};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kRecvTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED) {
        continue;
      }
      break;
    }
    if (!SetRecvTimeout(fd, kRecvTimeoutMs).ok()) {
      ::close(fd);
      continue;
    }
    ReapFinishedHandlers();
    bool at_cap = false;
    {
      std::lock_guard<std::mutex> lock(handlers_mu_);
      if (stopping_.load(std::memory_order_relaxed)) {
        ::close(fd);
        break;
      }
      at_cap = handler_threads_.size() - finished_handlers_.size() >=
               kMaxConnections;
      if (!at_cap) {
        handler_threads_.emplace_back([this, fd] { HandleConnection(fd); });
      }
    }
    if (at_cap) {
      // Best effort: the connection closes either way.
      (void)WriteFrame(fd, ErrorResponse(Status::ResourceExhausted(
                                             "connection limit reached (" +
                                             std::to_string(kMaxConnections) +
                                             " live)"))
                               .Serialize());
      requests_rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
    }
  }
}

void CorpusServer::ReapFinishedHandlers() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    for (const std::thread::id id : finished_handlers_) {
      const auto it = std::find_if(
          handler_threads_.begin(), handler_threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      if (it == handler_threads_.end()) continue;
      finished.push_back(std::move(*it));
      *it = std::move(handler_threads_.back());
      handler_threads_.pop_back();
    }
    finished_handlers_.clear();
  }
  // Each of these has already run its last statement; the join only
  // waits for the thread to unwind and releases its stack.
  for (std::thread& t : finished) t.join();
}

void CorpusServer::HandleConnection(int fd) {
  for (;;) {
    Result<std::string> frame =
        ReadFrame(fd, options_.max_frame_bytes, &stopping_);
    if (!frame.ok()) {
      // NotFound: clean close or server shutdown — both end the
      // connection silently. An oversized frame gets one error response
      // (the stream position is still sane: the payload was skipped by
      // closing); anything else just drops the connection.
      if (frame.status().code() == StatusCode::kInvalidArgument) {
        // Best effort; the connection closes either way.
        (void)WriteFrame(fd, ErrorResponse(frame.status()).Serialize());
      }
      break;
    }
    const std::string response = HandleRequest(*frame);
    if (!WriteFrame(fd, response).ok()) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(handlers_mu_);
  finished_handlers_.push_back(std::this_thread::get_id());
}

std::string CorpusServer::HandleRequest(std::string_view payload) {
  Result<JsonValue> parsed = JsonValue::Parse(payload);
  if (!parsed.ok()) return ErrorResponse(parsed.status()).Serialize();
  const JsonValue& request = *parsed;
  const JsonValue* op = request.Find("op");
  if (op == nullptr || !op->is_string()) {
    return ErrorResponse(Status::InvalidArgument(
                             "request must be an object with a string 'op'"))
        .Serialize();
  }
  const std::string& name = op->AsString();
  JsonValue response;
  if (name == "joinable") {
    response = HandleJoinable(request);
  } else if (name == "transform-join") {
    response = HandleTransformJoin(request);
  } else if (name == "add") {
    response = HandleMutation(request, Mutation::Kind::kAdd);
  } else if (name == "update") {
    response = HandleMutation(request, Mutation::Kind::kUpdate);
  } else if (name == "remove") {
    response = HandleMutation(request, Mutation::Kind::kRemove);
  } else if (name == "stats") {
    response = HandleStats();
  } else if (name == "shutdown") {
    {
      std::lock_guard<std::mutex> lock(wait_mu_);
      shutdown_requested_ = true;
    }
    wait_cv_.notify_all();
    response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    response.Set("epoch", JsonValue::Number(
                              static_cast<double>(current_snapshot()->epoch())));
  } else {
    response =
        ErrorResponse(Status::Unimplemented("unknown op '" + name + "'"));
  }
  if (!response.is_object() || response.Find("ok") == nullptr ||
      !response.Find("ok")->AsBool()) {
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  return response.Serialize();
}

Result<CorpusDiscoveryOptions> CorpusServer::RequestOptions(
    const JsonValue& request) {
  CorpusDiscoveryOptions options = options_.discovery;
  if (const JsonValue* support = request.Find("support")) {
    if (!support->is_number()) {
      return Status::InvalidArgument("'support' must be a number");
    }
    options.join.min_join_support = support->AsNumber();
  }
  // With no pool, EvaluateCandidate builds one of this size per pair when it
  // is more than one (PoolRef); one thread builds none and runs every phase
  // at one chunk, inline on the handler thread. Indexes are built
  // per pair: a shared cache grows with every column concurrent queries
  // touch in an epoch.
  options.num_threads = 1;
  options.index_cache = nullptr;
  TJ_RETURN_IF_ERROR(ValidateOptions(options));
  return options;
}

JsonValue CorpusServer::HandleJoinable(const JsonValue& request) {
  const JsonValue* column = request.Find("column");
  if (column == nullptr || !column->is_string()) {
    return ErrorResponse(
        Status::InvalidArgument("'joinable' needs a string 'column'"));
  }
  Result<CorpusDiscoveryOptions> options = RequestOptions(request);
  if (!options.ok()) return ErrorResponse(options.status());

  const std::shared_ptr<const CorpusSnapshot> snapshot = current_snapshot();
  Result<ColumnRef> ref = snapshot->ResolveColumn(column->AsString());
  if (!ref.ok()) return ErrorResponse(ref.status());

  // Evaluate the shortlisted candidates involving this column, in shortlist
  // (ranked) order — each per-pair result is exactly what a batch
  // EvaluateShortlist over the same snapshot produces for that candidate.
  JsonValue results = JsonValue::Array();
  {
    std::shared_lock<ComputeGate> gate(gate_);
    for (const ColumnPairCandidate& candidate :
         snapshot->shortlist().shortlist) {
      if (!(candidate.a == *ref) && !(candidate.b == *ref)) continue;
      const CorpusPairResult pair = EvaluateCandidate(
          *snapshot, candidate, *options, /*pool=*/nullptr,
          /*use_orientation_hint=*/true);
      results.Append(PairResultToJson(*snapshot, pair));
    }
  }
  queries_served_.fetch_add(1, std::memory_order_relaxed);

  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  response.Set("epoch",
               JsonValue::Number(static_cast<double>(snapshot->epoch())));
  response.Set("column", JsonValue::Str(snapshot->SpecOf(*ref)));
  response.Set("results", std::move(results));
  return response;
}

JsonValue CorpusServer::HandleTransformJoin(const JsonValue& request) {
  const JsonValue* source = request.Find("source");
  const JsonValue* target = request.Find("target");
  if (source == nullptr || !source->is_string() || target == nullptr ||
      !target->is_string()) {
    return ErrorResponse(Status::InvalidArgument(
        "'transform-join' needs string 'source' and 'target'"));
  }
  Result<CorpusDiscoveryOptions> options = RequestOptions(request);
  if (!options.ok()) return ErrorResponse(options.status());

  const std::shared_ptr<const CorpusSnapshot> snapshot = current_snapshot();
  Result<ColumnRef> source_ref = snapshot->ResolveColumn(source->AsString());
  if (!source_ref.ok()) return ErrorResponse(source_ref.status());
  Result<ColumnRef> target_ref = snapshot->ResolveColumn(target->AsString());
  if (!target_ref.ok()) return ErrorResponse(target_ref.status());
  if (*source_ref == *target_ref) {
    return ErrorResponse(
        Status::InvalidArgument("source and target are the same column"));
  }

  // The client fixed the orientation, so the candidate carries it as a
  // hint instead of letting the column rescan pick.
  ColumnPairCandidate candidate;
  candidate.a = *source_ref;
  candidate.b = *target_ref;
  candidate.a_is_source = true;
  CorpusPairResult pair;
  {
    std::shared_lock<ComputeGate> gate(gate_);
    pair = EvaluateCandidate(*snapshot, candidate, *options, /*pool=*/nullptr,
                             /*use_orientation_hint=*/true);
  }
  queries_served_.fetch_add(1, std::memory_order_relaxed);

  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  response.Set("epoch",
               JsonValue::Number(static_cast<double>(snapshot->epoch())));
  response.Set("result", PairResultToJson(*snapshot, pair));
  return response;
}

JsonValue CorpusServer::HandleMutation(const JsonValue& request,
                                       Mutation::Kind kind) {
  auto mutation = std::make_shared<Mutation>();
  mutation->kind = kind;
  mutation->waited = true;
  if (kind == Mutation::Kind::kRemove) {
    const JsonValue* name = request.Find("name");
    if (name == nullptr || !name->is_string()) {
      return ErrorResponse(
          Status::InvalidArgument("'remove' needs a string 'name'"));
    }
    mutation->name = name->AsString();
  } else {
    const JsonValue* path = request.Find("path");
    if (path == nullptr || !path->is_string()) {
      return ErrorResponse(
          Status::InvalidArgument("mutation needs a string 'path'"));
    }
    mutation->path = path->AsString();
    mutation->name = StemOf(mutation->path);
    if (mutation->name.empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "cannot derive a table name from '" + mutation->path + "'"));
    }
  }
  const Status applied = EnqueueMutation(mutation);
  if (!applied.ok()) return ErrorResponse(applied);
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  response.Set("epoch",
               JsonValue::Number(static_cast<double>(mutation->epoch)));
  response.Set("table", JsonValue::Str(mutation->name));
  return response;
}

JsonValue CorpusServer::HandleStats() {
  const std::shared_ptr<const CorpusSnapshot> snapshot = current_snapshot();
  size_t pending = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    pending = queue_.size();
  }
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  response.Set("epoch",
               JsonValue::Number(static_cast<double>(snapshot->epoch())));
  // Snapshot-recorded figures only — stats never scans the live catalog,
  // which may be mid-mutation on the other side of the compute gate.
  response.Set("tables", JsonValue::Number(
                             static_cast<double>(snapshot->num_tables())));
  response.Set("columns", JsonValue::Number(
                              static_cast<double>(snapshot->num_columns())));
  response.Set("shortlist",
               JsonValue::Number(static_cast<double>(
                   snapshot->shortlist().shortlist.size())));
  response.Set("resident_bytes",
               JsonValue::Number(
                   static_cast<double>(snapshot->resident_bytes())));
  response.Set("spilled_bytes",
               JsonValue::Number(
                   static_cast<double>(snapshot->spilled_bytes())));
  response.Set("lsh_buckets",
               JsonValue::Number(
                   static_cast<double>(snapshot->lsh_buckets())));
  response.Set("lsh_entries",
               JsonValue::Number(
                   static_cast<double>(snapshot->lsh_entries())));
  response.Set("queries_served",
               JsonValue::Number(static_cast<double>(
                   queries_served_.load(std::memory_order_relaxed))));
  response.Set("mutations_applied",
               JsonValue::Number(static_cast<double>(
                   mutations_applied_.load(std::memory_order_relaxed))));
  response.Set("snapshot_rebuilds",
               JsonValue::Number(static_cast<double>(
                   snapshot_rebuilds_.load(std::memory_order_relaxed))));
  response.Set("watch_events",
               JsonValue::Number(static_cast<double>(
                   watch_events_.load(std::memory_order_relaxed))));
  response.Set("requests_rejected",
               JsonValue::Number(static_cast<double>(
                   requests_rejected_.load(std::memory_order_relaxed))));
  response.Set("pending_mutations",
               JsonValue::Number(static_cast<double>(pending)));
  return response;
}

Status CorpusServer::EnqueueMutation(std::shared_ptr<Mutation> m) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      return Status::Internal("server is shutting down");
    }
    if (queue_.size() >= options_.max_pending_mutations) {
      return Status::ResourceExhausted(
          "mutation queue is full (" +
          std::to_string(options_.max_pending_mutations) + " pending)");
    }
    queue_.push_back(m);
  }
  queue_cv_.notify_one();
  if (!m->waited) return Status::OK();
  std::unique_lock<std::mutex> lock(queue_mu_);
  done_cv_.wait(lock, [&] { return m->done; });
  return m->status;
}

void CorpusServer::MutationLoop() {
  for (;;) {
    std::deque<std::shared_ptr<Mutation>> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_relaxed);
      });
      if (queue_.empty() && stopping_.load(std::memory_order_relaxed)) {
        return;
      }
      batch.swap(queue_);
    }
    // One snapshot rebuild per drained batch — the coalescing that turns a
    // bursty directory sync into a single epoch step per quiet period.
    uint64_t epoch = 0;
    {
      std::lock_guard<ComputeGate> gate(gate_);
      for (const std::shared_ptr<Mutation>& m : batch) {
        m->status = ApplyMutation(m.get());
        if (m->status.ok()) {
          mutations_applied_.fetch_add(1, std::memory_order_relaxed);
        } else if (!m->waited) {
          // Watcher-driven op with nobody waiting on the status: a torn or
          // unparseable file is warn-skipped; the next settled write of the
          // same file retries it.
          std::fprintf(stderr, "tjd: watch mutation '%s' skipped: %s\n",
                       m->name.c_str(), m->status.ToString().c_str());
        }
      }
      PublishSnapshot();
      epoch = snapshot_->epoch();
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      for (const std::shared_ptr<Mutation>& m : batch) {
        m->epoch = epoch;
        m->done = true;
      }
    }
    done_cv_.notify_all();
  }
}

Status CorpusServer::ApplyMutation(Mutation* m) {
  if (m->kind == Mutation::Kind::kRemove) {
    Result<uint32_t> id = catalog_->TableIndex(m->name);
    if (!id.ok()) return id.status();
    TJ_RETURN_IF_ERROR(catalog_->RemoveTable(m->name));
    pruner_.OnTableRemoved(*id);
    return Status::OK();
  }

  Result<Table> table =
      ReadCsvFile(m->path, CsvOptions(), catalog_->storage_options());
  if (!table.ok()) return table.status();
  table->set_name(m->name);

  Mutation::Kind kind = m->kind;
  if (kind == Mutation::Kind::kAddOrUpdate) {
    kind = catalog_->TableIndex(m->name).ok() ? Mutation::Kind::kUpdate
                                              : Mutation::Kind::kAdd;
  }
  if (kind == Mutation::Kind::kAdd) {
    Result<uint32_t> id = catalog_->AddTable(*std::move(table));
    if (!id.ok()) return id.status();
    catalog_->ComputeSignatures(pool_);
    pruner_.OnTableAdded(*catalog_, *id, pool_);
  } else {
    Result<uint32_t> id = catalog_->UpdateTable(*std::move(table));
    if (!id.ok()) return id.status();
    catalog_->ComputeSignatures(pool_);
    pruner_.OnTableUpdated(*catalog_, *id, pool_);
  }
  return Status::OK();
}

void CorpusServer::PublishSnapshot() {
  std::shared_ptr<const CorpusSnapshot> snapshot =
      CorpusSnapshot::Build(*catalog_, pruner_);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
  snapshot_rebuilds_.fetch_add(1, std::memory_order_relaxed);
}

void CorpusServer::WatchLoop() {
  // watcher_ was opened in Start(), before this thread existed.
  // Pending changes by file name, latest kind wins; flushed as one batch
  // after a quiet poll (the debounce). Entries that fail admission stay
  // pending and are retried next cycle.
  std::vector<DirWatcher::Event> pending;
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<std::vector<DirWatcher::Event>> events =
        watcher_.Poll(options_.watch_debounce_ms);
    if (!events.ok()) {
      std::fprintf(stderr, "tjd: watch on %s stopped: %s\n",
                   options_.watch_dir.c_str(),
                   events.status().ToString().c_str());
      return;
    }
    if (!events->empty()) {
      watch_events_.fetch_add(events->size(), std::memory_order_relaxed);
      for (DirWatcher::Event& event : *events) {
        bool merged = false;
        for (DirWatcher::Event& existing : pending) {
          if (existing.name == event.name) {
            existing.kind = event.kind;
            merged = true;
            break;
          }
        }
        if (!merged) pending.push_back(std::move(event));
      }
      continue;  // not quiet yet — keep accumulating
    }
    if (pending.empty()) continue;

    std::vector<DirWatcher::Event> retry;
    for (const DirWatcher::Event& event : pending) {
      const std::string& name = event.name;
      if (name.size() < 5 || name.substr(name.size() - 4) != ".csv") {
        continue;  // only *.csv files map to tables
      }
      auto mutation = std::make_shared<Mutation>();
      mutation->name = StemOf(name);
      if (event.kind == DirWatcher::Event::Kind::kRemoved) {
        mutation->kind = Mutation::Kind::kRemove;
      } else {
        mutation->kind = Mutation::Kind::kAddOrUpdate;
        mutation->path =
            (std::filesystem::path(options_.watch_dir) / name).string();
      }
      const Status queued = EnqueueMutation(mutation);
      if (queued.code() == StatusCode::kResourceExhausted) {
        retry.push_back(event);
      }
      // Other failures (shutdown) drop the event; per-op apply errors are
      // already warn-only for watcher mutations (nobody waits on them).
    }
    pending = std::move(retry);
  }
}

}  // namespace tj::serve
