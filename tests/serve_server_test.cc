// CorpusServer end-to-end tests over a real unix socket:
//  * served queries are byte-identical to responses rebuilt offline from a
//    replica catalog (the serving layer's consistency contract),
//  * concurrent readers racing a mutation observe only whole epochs — every
//    response matches the expected bytes FOR ITS EPOCH, at 1, 4 and 16
//    clients, on a heap catalog and on a spilled one that evicts,
//  * mutations coalesce, answer with their epoch, and survive bad input,
//  * graceful shutdown never hangs a waiter or drops an accepted mutation,
//  * the live-watch loop mirrors directory changes into served state,
//  * closed connections release their handler threads, and connections
//    beyond the cap are refused.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "datagen/corpus.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "table/csv.h"

namespace tj::serve {
namespace {

namespace fs = std::filesystem;

SynthCorpus ServerCorpus(uint64_t seed = 21) {
  SynthCorpusOptions options;
  options.num_joinable_pairs = 2;
  options.num_noise_tables = 1;
  options.rows = 25;
  options.seed = seed;
  return GenerateSynthCorpus(options);
}

/// A server harness: temp dir, short socket path, catalog from a synthetic
/// corpus, one shared pool.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("tj_serve_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    ASSERT_TRUE(fs::create_directories(dir_));
    socket_path_ = dir_ + "/tjd.sock";
    ASSERT_LT(socket_path_.size(), 100u)
        << "socket path too long for sockaddr_un: " << socket_path_;
  }

  void TearDown() override {
    server_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void LoadCorpus(const SynthCorpus& corpus) {
    for (const Table& table : corpus.tables) {
      ASSERT_TRUE(catalog_.AddTable(table).ok());
    }
  }

  void StartServer(ServeOptions options = {}) {
    options.socket_path = socket_path_;
    pool_ = std::make_unique<ThreadPool>(2);
    server_ = std::make_unique<CorpusServer>(&catalog_, pool_.get(),
                                             std::move(options));
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  Result<std::string> Request(const std::string& json) {
    ServeClient client;
    TJ_RETURN_IF_ERROR(client.Connect(socket_path_));
    return client.CallRaw(json);
  }

  /// Clients hammer one joinable query on ServerCorpus(33), already
  /// loaded and served, while a table is added and removed mid-stream, at
  /// 1, 4 and 16 concurrent clients (defined below).
  void ExpectConcurrentReadersSeeOnlyWholeEpochs(const SynthCorpus& corpus);

  /// Writes one corpus table as CSV into the harness dir.
  std::string WriteTableCsv(const Table& table, const std::string& stem) {
    const std::string path = dir_ + "/" + stem + ".csv";
    EXPECT_TRUE(WriteCsvFile(table, path).ok());
    return path;
  }

  std::string dir_;
  std::string socket_path_;
  TableCatalog catalog_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<CorpusServer> server_;
};

/// Rebuilds the exact response bytes the server must produce for
/// {"op":"joinable","column":spec} at an epoch whose live tables are
/// `tables` (in registration order) — from a completely fresh replica
/// catalog, pruner, and snapshot, stamped with the observed epoch.
std::string ExpectedJoinableResponse(const std::vector<Table>& tables,
                                     const std::string& spec,
                                     uint64_t epoch) {
  TableCatalog replica;
  for (const Table& table : tables) {
    EXPECT_TRUE(replica.AddTable(table).ok());
  }
  replica.ComputeSignatures();
  IncrementalPairPruner pruner;
  pruner.Rebuild(replica);
  const auto snapshot = CorpusSnapshot::Build(replica, pruner);
  auto ref = snapshot->ResolveColumn(spec);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  CorpusDiscoveryOptions options;
  JsonValue results = JsonValue::Array();
  for (const ColumnPairCandidate& candidate :
       snapshot->shortlist().shortlist) {
    if (!(candidate.a == *ref) && !(candidate.b == *ref)) continue;
    const CorpusPairResult pair =
        EvaluateCandidate(*snapshot, candidate, options, /*pool=*/nullptr,
                          /*use_orientation_hint=*/true);
    results.Append(PairResultToJson(*snapshot, pair));
  }
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  response.Set("epoch", JsonValue::Number(static_cast<double>(epoch)));
  response.Set("column", JsonValue::Str(spec));
  response.Set("results", std::move(results));
  return response.Serialize();
}

TEST_F(ServerTest, ServedQueryMatchesBatchBytes) {
  const SynthCorpus corpus = ServerCorpus();
  LoadCorpus(corpus);
  StartServer();

  // Table order is shuffled by the generator: golden[] maps to positions.
  const std::string spec =
      corpus.tables[corpus.golden[0].source_table].name() + ".value";
  const auto response =
      Request("{\"op\":\"joinable\",\"column\":\"" + spec + "\"}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  const uint64_t epoch = server_->current_snapshot()->epoch();
  const std::string expected =
      ExpectedJoinableResponse(corpus.tables, spec, epoch);
  EXPECT_EQ(*response, expected);

  // The joinable set is non-trivial for a synthetic joinable pair.
  const auto parsed = JsonValue::Parse(*response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Find("results")->items().empty());
}

TEST_F(ServerTest, TransformJoinHonorsRequestedOrientation) {
  const SynthCorpus corpus = ServerCorpus();
  LoadCorpus(corpus);
  StartServer();

  const std::string source =
      corpus.tables[corpus.golden[0].source_table].name() + ".value";
  const std::string target =
      corpus.tables[corpus.golden[0].target_table].name() + ".value";
  const auto response =
      Request("{\"op\":\"transform-join\",\"source\":\"" + source +
              "\",\"target\":\"" + target + "\"}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const auto parsed = JsonValue::Parse(*response);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->Find("ok")->AsBool()) << *response;
  const JsonValue* result = parsed->Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("source")->AsString(), source);
  EXPECT_EQ(result->Find("target")->AsString(), target);
  EXPECT_GT(result->Find("joined_rows")->AsNumber(), 0.0);
}

/// Every observed epoch must have exactly ONE response byte pattern, equal
/// to the offline heap replica's bytes for that epoch's table set.
void ServerTest::ExpectConcurrentReadersSeeOnlyWholeEpochs(
    const SynthCorpus& corpus) {
  const uint64_t epoch_before = server_->current_snapshot()->epoch();

  // The table added mid-flight: another joinable partner for table 0's
  // column, so the query's answer genuinely changes across the epoch.
  SynthCorpusOptions extra_options;
  extra_options.num_joinable_pairs = 1;
  extra_options.num_noise_tables = 0;
  extra_options.rows = 25;
  extra_options.seed = 33;  // same seed => joinable against the same pair
  extra_options.name_prefix = "late";
  const SynthCorpus extra = GenerateSynthCorpus(extra_options);
  const Table& extra_table = extra.tables[extra.golden[0].source_table];
  const std::string extra_csv = WriteTableCsv(extra_table, "late-src");

  const std::string spec =
      corpus.tables[corpus.golden[0].source_table].name() + ".value";
  const std::string query =
      "{\"op\":\"joinable\",\"column\":\"" + spec + "\"}";

  for (const int num_clients : {1, 4, 16}) {
    // Responses indexed by the epoch they claim.
    std::mutex mu;
    std::map<uint64_t, std::set<std::string>> by_epoch;
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(num_clients));
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&] {
        ServeClient client;
        if (!client.Connect(socket_path_).ok()) return;
        while (!stop.load()) {
          auto response = client.CallRaw(query);
          if (!response.ok()) return;
          const auto parsed = JsonValue::Parse(*response);
          ASSERT_TRUE(parsed.ok());
          const auto epoch =
              static_cast<uint64_t>(parsed->Find("epoch")->AsNumber());
          std::lock_guard<std::mutex> lock(mu);
          by_epoch[epoch].insert(*response);
        }
      });
    }

    // Let queries flow, then mutate mid-stream (add on the first round,
    // remove on the next — returning to the previous live set each time).
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const auto mutated =
        Request("{\"op\":\"add\",\"path\":\"" + extra_csv + "\"}");
    ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
    ASSERT_NE(mutated->find("\"ok\":true"), std::string::npos) << *mutated;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const auto removed =
        Request("{\"op\":\"remove\",\"name\":\"late-src\"}");
    ASSERT_TRUE(removed.ok());
    ASSERT_NE(removed->find("\"ok\":true"), std::string::npos) << *removed;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    stop.store(true);
    for (std::thread& t : clients) t.join();

    ASSERT_FALSE(by_epoch.empty());
    std::vector<Table> with_extra = corpus.tables;
    with_extra.push_back(extra_table);
    with_extra.back().set_name("late-src");
    for (const auto& [epoch, responses] : by_epoch) {
      ASSERT_EQ(responses.size(), 1u)
          << "epoch " << epoch << " served mixed bytes ("
          << num_clients << " clients)";
      // Which table set was live at this epoch: the added table is live
      // exactly in the window between the two mutations.
      const bool has_extra = (epoch - epoch_before) % 2 == 1;
      const std::string expected = ExpectedJoinableResponse(
          has_extra ? with_extra : corpus.tables, spec, epoch);
      EXPECT_EQ(*responses.begin(), expected)
          << "epoch " << epoch << " (" << num_clients << " clients)";
    }
  }
}

TEST_F(ServerTest, ConcurrentReadersSeeOnlyWholeEpochs) {
  const SynthCorpus corpus = ServerCorpus(33);
  LoadCorpus(corpus);
  StartServer();
  ExpectConcurrentReadersSeeOnlyWholeEpochs(corpus);
}

TEST_F(ServerTest, ConcurrentReadersSeeOnlyWholeEpochsOnSpilledCatalog) {
  // A quarter of the corpus' cell bytes: every mutation batch evicts cold
  // tables, and concurrent queries re-map them (racing each other's
  // re-maps, never an eviction).
  const SynthCorpus corpus = ServerCorpus(33);
  size_t cell_bytes = 0;
  for (const Table& table : corpus.tables) cell_bytes += table.ArenaBytes();
  StorageOptions storage;
  storage.spill_dir = dir_ + "/spill";
  storage.memory_budget_bytes = std::max<size_t>(cell_bytes / 4, 1);
  ASSERT_TRUE(fs::create_directories(storage.spill_dir));
  catalog_ = TableCatalog(storage);
  LoadCorpus(corpus);
  StartServer();
  // A mutation batch enforces the budget; with no query in flight nothing
  // re-maps the evicted tables before the next snapshot records them.
  // Identical contents keep the corpus equal to the offline replica.
  const Table& victim = corpus.tables[0];
  const std::string victim_csv = WriteTableCsv(victim, victim.name());
  const auto updated =
      Request("{\"op\":\"update\",\"path\":\"" + victim_csv + "\"}");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_NE(updated->find("\"ok\":true"), std::string::npos) << *updated;
  const auto stats_frame = Request("{\"op\":\"stats\"}");
  ASSERT_TRUE(stats_frame.ok()) << stats_frame.status().ToString();
  const auto stats = JsonValue::Parse(*stats_frame);
  ASSERT_TRUE(stats.ok());
  ASSERT_LT(stats->Find("resident_bytes")->AsNumber(),
            static_cast<double>(cell_bytes))
      << "the budget evicted nothing";
  ExpectConcurrentReadersSeeOnlyWholeEpochs(corpus);
}

TEST_F(ServerTest, MutationsAdvanceEpochAndAnswerErrors) {
  const SynthCorpus corpus = ServerCorpus();
  LoadCorpus(corpus);
  StartServer();
  const uint64_t epoch0 = server_->current_snapshot()->epoch();

  // Unknown table: error response, daemon stays up.
  auto bad_remove = Request("{\"op\":\"remove\",\"name\":\"ghost\"}");
  ASSERT_TRUE(bad_remove.ok());
  EXPECT_NE(bad_remove->find("\"ok\":false"), std::string::npos);
  EXPECT_NE(bad_remove->find("NotFound"), std::string::npos);

  // Unreadable path: error response.
  auto bad_add =
      Request("{\"op\":\"add\",\"path\":\"" + dir_ + "/missing.csv\"}");
  ASSERT_TRUE(bad_add.ok());
  EXPECT_NE(bad_add->find("\"ok\":false"), std::string::npos);

  // Valid add: ok + a higher epoch; the table then resolves in queries.
  const std::string csv = WriteTableCsv(corpus.tables[0], "copy0");
  auto add = Request("{\"op\":\"add\",\"path\":\"" + csv + "\"}");
  ASSERT_TRUE(add.ok());
  const auto parsed = JsonValue::Parse(*add);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->Find("ok")->AsBool()) << *add;
  EXPECT_GT(parsed->Find("epoch")->AsNumber(),
            static_cast<double>(epoch0));
  EXPECT_EQ(parsed->Find("table")->AsString(), "copy0");

  // Duplicate add: AlreadyExists, epoch still advances only via snapshot
  // (the failed op must not corrupt serving).
  auto dup = Request("{\"op\":\"add\",\"path\":\"" + csv + "\"}");
  ASSERT_TRUE(dup.ok());
  EXPECT_NE(dup->find("AlreadyExists"), std::string::npos) << *dup;

  // Update round-trips too.
  auto update = Request("{\"op\":\"update\",\"path\":\"" + csv + "\"}");
  ASSERT_TRUE(update.ok());
  EXPECT_NE(update->find("\"ok\":true"), std::string::npos) << *update;

  auto stats = Request("{\"op\":\"stats\"}");
  ASSERT_TRUE(stats.ok());
  const auto stats_json = JsonValue::Parse(*stats);
  ASSERT_TRUE(stats_json.ok());
  EXPECT_EQ(stats_json->Find("tables")->AsNumber(),
            static_cast<double>(corpus.tables.size() + 1));
  EXPECT_GE(stats_json->Find("mutations_applied")->AsNumber(), 2.0);
  // The pruner's LSH index counts are reported at default options.
  const JsonValue* lsh_buckets = stats_json->Find("lsh_buckets");
  const JsonValue* lsh_entries = stats_json->Find("lsh_entries");
  ASSERT_NE(lsh_buckets, nullptr) << *stats;
  ASSERT_NE(lsh_entries, nullptr) << *stats;
  EXPECT_GT(lsh_buckets->AsNumber(), 0.0);
  EXPECT_GT(lsh_entries->AsNumber(), 0.0);
  EXPECT_LE(lsh_entries->AsNumber(), stats_json->Find("columns")->AsNumber());
}

TEST_F(ServerTest, MalformedRequestsGetErrorResponsesAndDaemonSurvives) {
  LoadCorpus(ServerCorpus());
  StartServer();

  for (const std::string bad :
       {std::string("this is not json"), std::string("[1,2,3]"),
        std::string("{\"noop\":true}"), std::string("{\"op\":\"wat\"}"),
        std::string("{\"op\":\"joinable\"}"),
        std::string("{\"op\":\"joinable\",\"column\":7}"),
        std::string(
            "{\"op\":\"joinable\",\"column\":\"a.b\",\"support\":2.0}"),
        std::string("{\"op\":\"transform-join\",\"source\":\"a.b\"}")}) {
    const auto response = Request(bad);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_NE(response->find("\"ok\":false"), std::string::npos)
        << "request: " << bad << " response: " << *response;
  }

  // Still serving after the abuse.
  const auto stats = Request("{\"op\":\"stats\"}");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"ok\":true"), std::string::npos);
}

TEST_F(ServerTest, ShutdownOpReleasesWaitAndDrains) {
  const SynthCorpus corpus = ServerCorpus();
  LoadCorpus(corpus);
  StartServer();

  // A mutation racing shutdown must either apply (ok:true) or be rejected
  // cleanly (ok:false) — never hang, never be silently dropped.
  const std::string csv = WriteTableCsv(corpus.tables[0], "draincopy");
  std::string mutation_response;
  std::thread mutator([&] {
    auto response = Request("{\"op\":\"add\",\"path\":\"" + csv + "\"}");
    if (response.ok()) mutation_response = *response;
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto bye = Request("{\"op\":\"shutdown\"}");
  ASSERT_TRUE(bye.ok());
  EXPECT_NE(bye->find("\"ok\":true"), std::string::npos);

  server_->Wait();  // released by the shutdown op
  server_->Shutdown();
  mutator.join();

  if (mutation_response.find("\"ok\":true") != std::string::npos) {
    // Applied: the drained catalog must actually hold the table.
    EXPECT_TRUE(catalog_.TableIndex("draincopy").ok());
  } else {
    EXPECT_FALSE(mutation_response.empty());
  }
  // Socket file is gone after shutdown; double Shutdown is a no-op.
  EXPECT_FALSE(fs::exists(socket_path_));
  server_->Shutdown();
}

TEST_F(ServerTest, WatchMirrorsDirectoryIntoServedState) {
  const SynthCorpus corpus = ServerCorpus();
  LoadCorpus(corpus);
  const std::string watch_dir = dir_ + "/watched";
  ASSERT_TRUE(fs::create_directories(watch_dir));
  ServeOptions options;
  options.watch_dir = watch_dir;
  options.watch_debounce_ms = 50;
  StartServer(std::move(options));
  const size_t tables0 = server_->current_snapshot()->num_tables();

  const auto wait_for_tables = [&](size_t expected) -> bool {
    for (int i = 0; i < 100; ++i) {
      if (server_->current_snapshot()->num_tables() == expected) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  };

  // Drop a new CSV in: it must appear as a served table.
  ASSERT_TRUE(WriteCsvFile(corpus.tables[0],
                           watch_dir + "/fresh.csv")
                  .ok());
  ASSERT_TRUE(wait_for_tables(tables0 + 1));
  EXPECT_TRUE(server_->current_snapshot()->ResolveTable("fresh").ok());
  const uint64_t epoch_added = server_->current_snapshot()->epoch();

  // Rewrite it: same table count, higher epoch (an update).
  ASSERT_TRUE(WriteCsvFile(corpus.tables[1],
                           watch_dir + "/fresh.csv")
                  .ok());
  bool updated = false;
  for (int i = 0; i < 100 && !updated; ++i) {
    updated = server_->current_snapshot()->epoch() > epoch_added;
    if (!updated) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(updated);
  EXPECT_EQ(server_->current_snapshot()->num_tables(), tables0 + 1);

  // Delete it: the table disappears from serving.
  fs::remove(watch_dir + "/fresh.csv");
  ASSERT_TRUE(wait_for_tables(tables0));
  EXPECT_FALSE(server_->current_snapshot()->ResolveTable("fresh").ok());

  // Non-CSV files are ignored.
  {
    std::ofstream noise(watch_dir + "/README.md");
    noise << "not a table\n";
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(server_->current_snapshot()->num_tables(), tables0);
}

/// A "Key:   <number> ..." field of /proc/self/status (e.g. Threads); -1
/// when absent.
long ProcStatusField(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::stol(line.substr(key.size() + 1));
    }
  }
  return -1;
}

/// The [begin, end) address ranges listed in /proc/self/maps.
std::vector<std::pair<unsigned long, unsigned long>> Mappings() {
  std::vector<std::pair<unsigned long, unsigned long>> ranges;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    unsigned long begin = 0;
    unsigned long end = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx", &begin, &end) == 2) {
      ranges.emplace_back(begin, end);
    }
  }
  return ranges;
}

TEST_F(ServerTest, ClosedConnectionsReleaseTheirHandlerThreads) {
  // Every connection gets a handler thread; a finished one must be joined,
  // or its stack stays mapped and a long-lived daemon grows by a stack per
  // client until thread creation fails.
  const SynthCorpus corpus = ServerCorpus();
  LoadCorpus(corpus);
  StartServer();
  ASSERT_TRUE(Request("{\"op\":\"stats\"}").ok());
  const long threads_before = ProcStatusField("Threads");
  ASSERT_GT(threads_before, 0);
  // A handler that returns leaves the Threads count whether or not it is
  // joined; what an unjoined one leaves behind is its stack mapping. A
  // probe thread started the same way measures that mapping's size.
  unsigned long stack_bytes = 0;
  std::thread([&stack_bytes] {
    // The frame, not a local: a sanitizer may move locals to a heap frame.
    const auto address =
        reinterpret_cast<unsigned long>(__builtin_frame_address(0));
    for (const auto& [begin, end] : Mappings()) {
      if (begin <= address && address < end) stack_bytes = end - begin;
    }
  }).join();
  ASSERT_GT(stack_bytes, 0u);
  const auto stacks_mapped = [stack_bytes] {
    long count = 0;
    for (const auto& [begin, end] : Mappings()) {
      if (end - begin == stack_bytes) ++count;
    }
    return count;
  };
  const long stacks_before = stacks_mapped();

  for (int i = 0; i < 2000; ++i) {
    const auto stats = Request("{\"op\":\"stats\"}");
    ASSERT_TRUE(stats.ok()) << "connection " << i;
    ASSERT_NE(stats->find("\"ok\":true"), std::string::npos);
  }

  // The last handler may still be unwinding when the loop ends.
  long threads_after = ProcStatusField("Threads");
  for (int i = 0; i < 100 && threads_after > threads_before + 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    threads_after = ProcStatusField("Threads");
  }
  EXPECT_LE(threads_after, threads_before + 2);
  // Unjoined handlers would leave ~2000 stacks mapped. glibc keeps up to
  // 40 MiB of joined threads' stacks mapped for reuse, and the last
  // handlers may still be live.
  const long cached_stacks = static_cast<long>((40ul << 20) / stack_bytes);
  EXPECT_LE(stacks_mapped(), stacks_before + cached_stacks + 2);
}

TEST_F(ServerTest, ConnectionsBeyondTheCapAreRefused) {
  // Each connection may run its own evaluation, so live connections are
  // capped: the next one reads one ResourceExhausted frame and is closed.
  const SynthCorpus corpus = ServerCorpus();
  LoadCorpus(corpus);
  StartServer();

  std::vector<ServeClient> held(kMaxConnections);
  for (ServeClient& client : held) {
    ASSERT_TRUE(client.Connect(socket_path_).ok());
    const auto stats = client.CallRaw("{\"op\":\"stats\"}");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_NE(stats->find("\"ok\":true"), std::string::npos) << *stats;
  }

  // Read without sending: the refusal is written before any request.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const auto refused = ReadFrame(fd, kMaxFrameBytes, /*stop=*/nullptr);
  ::close(fd);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_NE(refused->find("\"ok\":false"), std::string::npos) << *refused;
  EXPECT_NE(refused->find("ResourceExhausted"), std::string::npos)
      << *refused;

  // Once a held connection closes, its handler exits and a new connection
  // is served (retry: the handler notices the close asynchronously).
  held.back().Close();
  std::string served;
  for (int attempt = 0; attempt < 200 && served.empty(); ++attempt) {
    const auto stats = Request("{\"op\":\"stats\"}");
    if (stats.ok() && stats->find("\"ok\":true") != std::string::npos) {
      served = *stats;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_FALSE(served.empty()) << "no connection served after one closed";
  const auto stats_json = JsonValue::Parse(served);
  ASSERT_TRUE(stats_json.ok());
  EXPECT_GE(stats_json->Find("requests_rejected")->AsNumber(), 1.0);
}

TEST(ServeOptionsTest, ValidateRejectsBadConfigurations) {
  ServeOptions ok;
  ok.socket_path = "/tmp/x.sock";
  EXPECT_TRUE(ValidateOptions(ok).ok());

  ServeOptions no_socket;
  EXPECT_FALSE(ValidateOptions(no_socket).ok());

  ServeOptions long_path = ok;
  long_path.socket_path = std::string(200, 'a');
  EXPECT_FALSE(ValidateOptions(long_path).ok());

  ServeOptions bad_debounce = ok;
  bad_debounce.watch_debounce_ms = 0;
  EXPECT_FALSE(ValidateOptions(bad_debounce).ok());

  ServeOptions bad_queue = ok;
  bad_queue.max_pending_mutations = 0;
  EXPECT_FALSE(ValidateOptions(bad_queue).ok());

  ServeOptions bad_frame = ok;
  bad_frame.max_frame_bytes = 0;
  EXPECT_FALSE(ValidateOptions(bad_frame).ok());

  ServeOptions bad_discovery = ok;
  bad_discovery.discovery.join.min_join_support = 1.5;
  EXPECT_FALSE(ValidateOptions(bad_discovery).ok());
}

}  // namespace
}  // namespace tj::serve
