#include "corpus/catalog.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "table/storage_events.h"

namespace tj {
namespace {

/// Minimal line parser for the signature dump: whitespace-separated tokens,
/// names quoted with the EscapeForDisplay escapes.
class LineCursor {
 public:
  explicit LineCursor(std::string_view line) : line_(line) {}

  void SkipSpace() {
    while (pos_ < line_.size() &&
           (line_[pos_] == ' ' || line_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= line_.size();
  }

  /// Consumes `word` (must be followed by whitespace or end of line).
  bool ConsumeWord(std::string_view word) {
    SkipSpace();
    if (line_.substr(pos_, word.size()) != word) return false;
    const size_t after = pos_ + word.size();
    if (after < line_.size() && line_[after] != ' ' && line_[after] != '\t') {
      return false;
    }
    pos_ = after;
    return true;
  }

  /// Consumes `key` then '=' and leaves the cursor on the value.
  bool ConsumeKey(std::string_view key) {
    SkipSpace();
    if (line_.substr(pos_, key.size()) != key) return false;
    if (pos_ + key.size() >= line_.size() ||
        line_[pos_ + key.size()] != '=') {
      return false;
    }
    pos_ += key.size() + 1;
    return true;
  }

  /// Parses the next token whole at T's width: an integer through
  /// ParseWhole (a sign, trailing bytes or a value outside T is an error,
  /// never wrapped or saturated), a double as the "%a" hex float
  /// SerializeSignatures writes, finite and not negative (a mean length).
  template <typename T>
  Status Number(T* out) {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != ' ' && line_[pos_] != '\t') {
      ++pos_;
    }
    const std::string_view token = line_.substr(start, pos_ - start);
    bool ok = false;
    if constexpr (std::is_floating_point_v<T>) {
      if (token.substr(0, 2) == "0x") {
        const char* end = token.data() + token.size();
        const auto [ptr, ec] = std::from_chars(token.data() + 2, end, *out,
                                               std::chars_format::hex);
        ok = ec == std::errc() && ptr == end && std::isfinite(*out) &&
             !std::signbit(*out);
      }
    } else {
      ok = ParseWhole(token, out);
    }
    if (ok) return Status::OK();
    return Status::InvalidArgument("invalid number '" + std::string(token) +
                                   "'");
  }

  /// Reads `key=<number>` (see Number).
  template <typename T>
  Status Field(std::string_view key, T* out) {
    if (!ConsumeKey(key)) {
      return Status::InvalidArgument("expected " + std::string(key) + "=");
    }
    return Number(out);
  }

  /// Parses a single-quoted string with the EscapeForDisplay escapes.
  Result<std::string> ParseQuoted() {
    SkipSpace();
    return ParseQuotedDisplay(line_, &pos_);
  }

 private:
  std::string_view line_;
  size_t pos_ = 0;
};

constexpr std::string_view kSignatureHeader = "# tj-signatures v2";

}  // namespace

uint64_t TableFingerprint(const Table& table) {
  uint64_t h = HashCombine(0x746a636174ULL /* "tjcat" */,
                           table.num_columns());
  for (const Column& column : table.columns()) {
    h = HashCombine(h, HashString(column.name()));
    h = HashCombine(h, column.size());
    // Block-streamed: fingerprinting an out-of-core table never pins more
    // than ~a block of its cells (see ForEachCellStreamed).
    ForEachCellStreamed(column, [&h](std::string_view cell) {
      h = HashCombine(h, HashString(cell));
    });
  }
  return h;
}

void TableCatalog::AdoptAndFreeze(Table* table) const {
  // Catalog tables land on the catalog's storage (spill files when
  // configured) and are frozen: their cell views stay valid until
  // RemoveTable/UpdateTable replaces the entry. Mutation goes through
  // UpdateTable with a fresh (copied) table.
  if (storage_.spill_enabled()) table->AdoptStorage(storage_);
  table->Freeze();
}

Result<uint32_t> TableCatalog::AddTable(Table table) {
  if (table.name().empty()) {
    return Status::InvalidArgument("catalog tables need a non-empty name");
  }
  if (table_index_.find(table.name()) != table_index_.end()) {
    return Status::AlreadyExists("duplicate table name: " + table.name());
  }
  const auto id = static_cast<uint32_t>(tables_.size());
  TableEntry entry;
  entry.signatures.resize(table.num_columns());
  entry.table = std::make_shared<Table>(std::move(table));
  AdoptAndFreeze(entry.table.get());
  // Fingerprint after adoption: the streamed hash then releases spilled
  // pages as it goes instead of faulting the whole table.
  entry.fingerprint = TableFingerprint(*entry.table);
  entry.last_touch = ++touch_clock_;
  // Measured after the fingerprint pass so the counter reflects the pages
  // the streamed hash already released.
  BumpResidentBytes(0, entry.table->ResidentBytes());
  table_index_.emplace(entry.table->name(), id);
  tables_.push_back(std::move(entry));
  ++num_live_;
  ++mutation_epoch_;
  EnforceMemoryBudget();
  return id;
}

Status TableCatalog::RemoveTable(std::string_view name) {
  const auto it = table_index_.find(name);
  if (it == table_index_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  TableEntry& entry = tables_[it->second];
  // The counter tracks catalog-visible tables: a snapshot still pinning
  // this table keeps its bytes alive, but they stop counting against the
  // catalog's budget the moment the entry is tombstoned.
  BumpResidentBytes(entry.table->ResidentBytes(), 0);
  entry.table.reset();
  entry.signatures.clear();
  entry.fingerprint = 0;
  entry.live = false;
  table_index_.erase(it);
  --num_live_;
  ++mutation_epoch_;
  return Status::OK();
}

Result<uint32_t> TableCatalog::UpdateTable(Table table) {
  const auto it = table_index_.find(table.name());
  if (it == table_index_.end()) {
    return Status::NotFound("no table named '" + table.name() +
                            "' to update");
  }
  const uint32_t id = it->second;
  TableEntry& entry = tables_[id];
  entry.signatures.assign(table.num_columns(), std::nullopt);
  // Dropping the catalog's reference frees the old arena unless a snapshot
  // still pins it (SharedTable): any *view* into the old contents held by
  // this thread (cell views, ExamplePairs) dangles from here on. Shortlists
  // are safe — they hold ColumnRefs (ids + scores), not views — but callers
  // must not hold cell views across an update (tests/storage_view_test.cc
  // exercises this under ASan).
  BumpResidentBytes(entry.table->ResidentBytes(), 0);
  entry.table = std::make_shared<Table>(std::move(table));
  AdoptAndFreeze(entry.table.get());
  entry.fingerprint = TableFingerprint(*entry.table);
  entry.last_touch = ++touch_clock_;
  BumpResidentBytes(0, entry.table->ResidentBytes());
  ++mutation_epoch_;
  EnforceMemoryBudget();
  return id;
}

Result<TableCatalog::CsvDirectoryReport> TableCatalog::AddCsvDirectory(
    const std::string& dir, const CsvOptions& csv) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("not a directory: " + dir);
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    return Status::IOError("error listing " + dir + ": " + ec.message());
  }
  std::sort(files.begin(), files.end());
  CsvDirectoryReport report;
  for (const fs::path& path : files) {
    // One bad file must not abort a repository scan: unreadable or
    // unparseable entries (and name clashes) are warned about and skipped —
    // and counted, so callers can report the partial load; every healthy
    // table still loads.
    auto table = ReadCsvFile(path.string(), csv, storage_);
    if (!table.ok()) {
      std::fprintf(stderr, "warning: skipping %s: %s\n",
                   path.string().c_str(),
                   table.status().ToString().c_str());
      ++report.skipped;
      continue;
    }
    table->set_name(path.stem().string());
    auto added = AddTable(*std::move(table));
    if (!added.ok()) {
      std::fprintf(stderr, "warning: skipping %s: %s\n",
                   path.string().c_str(),
                   added.status().ToString().c_str());
      ++report.skipped;
      continue;
    }
    ++report.added;
  }
  return report;
}

const Table& TableCatalog::table(uint32_t t) const {
  TJ_CHECK(t < tables_.size());
  TJ_CHECK(tables_[t].live);
  // Transparent re-map: reads through an entry the budget enforcement
  // evicted come back automatically. Called unconditionally — not gated on
  // resident() — so a caller racing another thread's in-flight re-map
  // still refreshes its column base pointers (racing re-maps serialize
  // per column). Best-effort: a re-map failure already fell back to the
  // heap inside Column; the residual double-failure case is surfaced by
  // ResidentTable for callers that can propagate it.
  const Table& table = *tables_[t].table;
  if (budget_active()) {
    // Account the re-fault so the budget counter sees reads, not just
    // registrations. Racing readers can double-count the same re-map; the
    // drift is upward-only and resynced by the next signature pass.
    const size_t before = table.ResidentBytes();
    (void)table.EnsureResident();
    BumpResidentBytes(before, table.ResidentBytes());
  } else {
    (void)table.EnsureResident();
  }
  return table;
}

Result<const Table*> TableCatalog::ResidentTable(uint32_t t) const {
  if (t >= tables_.size() || !tables_[t].live) {
    return Status::NotFound(
        StrPrintf("no live table with id %u", static_cast<unsigned>(t)));
  }
  const Table& table = *tables_[t].table;
  if (budget_active()) {
    const size_t before = table.ResidentBytes();
    const Status resident = table.EnsureResident();
    BumpResidentBytes(before, table.ResidentBytes());
    TJ_RETURN_IF_ERROR(resident);
  } else {
    TJ_RETURN_IF_ERROR(table.EnsureResident());
  }
  return &table;
}

std::shared_ptr<const Table> TableCatalog::SharedTable(uint32_t t) const {
  TJ_CHECK(t < tables_.size());
  TJ_CHECK(tables_[t].live);
  return tables_[t].table;
}

const std::string& TableCatalog::table_name(uint32_t t) const {
  TJ_CHECK(t < tables_.size());
  TJ_CHECK(tables_[t].live);
  return tables_[t].table->name();
}

size_t TableCatalog::table_num_columns(uint32_t t) const {
  TJ_CHECK(t < tables_.size());
  TJ_CHECK(tables_[t].live);
  return tables_[t].table->num_columns();
}

Result<uint32_t> TableCatalog::TableIndex(std::string_view name) const {
  const auto it = table_index_.find(name);
  if (it == table_index_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  return it->second;
}

uint64_t TableCatalog::fingerprint(uint32_t t) const {
  TJ_CHECK(t < tables_.size());
  TJ_CHECK(tables_[t].live);
  return tables_[t].fingerprint;
}

size_t TableCatalog::num_columns() const {
  size_t total = 0;
  for (const TableEntry& entry : tables_) {
    if (entry.live) total += entry.table->num_columns();
  }
  return total;
}

std::vector<ColumnRef> TableCatalog::AllColumns() const {
  std::vector<ColumnRef> refs;
  refs.reserve(num_columns());
  for (uint32_t t = 0; t < tables_.size(); ++t) {
    if (!tables_[t].live) continue;
    for (uint32_t c = 0; c < tables_[t].table->num_columns(); ++c) {
      refs.push_back(ColumnRef{t, c});
    }
  }
  return refs;
}

const Column& TableCatalog::column(ColumnRef ref) const {
  TJ_CHECK(ref.table < tables_.size());
  TJ_CHECK(tables_[ref.table].live);
  const Column& column = tables_[ref.table].table->column(ref.column);
  if (budget_active()) {  // unconditional re-map — see table() above
    const size_t before = column.ResidentBytes();
    (void)column.EnsureResident();
    BumpResidentBytes(before, column.ResidentBytes());
  } else {
    (void)column.EnsureResident();
  }
  return column;
}

Result<const Column*> TableCatalog::ResidentColumn(ColumnRef ref) const {
  if (ref.table >= tables_.size() || !tables_[ref.table].live) {
    return Status::NotFound(StrPrintf("no live table with id %u",
                                      static_cast<unsigned>(ref.table)));
  }
  const Table& owner = *tables_[ref.table].table;
  if (ref.column >= owner.num_columns()) {
    return Status::NotFound(StrPrintf(
        "table '%s' has no column %u", owner.name().c_str(),
        static_cast<unsigned>(ref.column)));
  }
  const Column& column = owner.column(ref.column);
  if (budget_active()) {
    const size_t before = column.ResidentBytes();
    const Status resident = column.EnsureResident();
    BumpResidentBytes(before, column.ResidentBytes());
    TJ_RETURN_IF_ERROR(resident);
  } else {
    TJ_RETURN_IF_ERROR(column.EnsureResident());
  }
  return &column;
}

const std::string& TableCatalog::column_name(ColumnRef ref) const {
  TJ_CHECK(ref.table < tables_.size());
  TJ_CHECK(tables_[ref.table].live);
  return tables_[ref.table].table->column(ref.column).name();
}

size_t TableCatalog::ResidentCellBytes() const {
  size_t total = 0;
  for (const TableEntry& entry : tables_) {
    if (entry.live) total += entry.table->ResidentBytes();
  }
  return total;
}

size_t TableCatalog::SpilledBytes() const {
  size_t total = 0;
  for (const TableEntry& entry : tables_) {
    if (entry.live) total += entry.table->SpilledBytes();
  }
  return total;
}

Status TableCatalog::EnsureTableResident(uint32_t t) const {
  TJ_CHECK(t < tables_.size());
  TJ_CHECK(tables_[t].live);
  const Table& table = *tables_[t].table;
  if (budget_active()) {
    const size_t before = table.ResidentBytes();
    const Status resident = table.EnsureResident();
    BumpResidentBytes(before, table.ResidentBytes());
    TJ_RETURN_IF_ERROR(resident);
  } else {
    TJ_RETURN_IF_ERROR(table.EnsureResident());
  }
  tables_[t].last_touch = ++touch_clock_;
  return Status::OK();
}

void TableCatalog::BumpResidentBytes(size_t before, size_t after) const {
  if (!budget_active() || before == after) return;
  std::atomic<size_t>& bytes = resident_bytes_.bytes;
  if (after > before) {
    bytes.fetch_add(after - before, std::memory_order_relaxed);
    return;
  }
  // Clamped at zero: racing re-maps make the deltas approximate, so a
  // subtraction must not wrap below 0.
  const size_t delta = before - after;
  size_t current = bytes.load(std::memory_order_relaxed);
  while (!bytes.compare_exchange_weak(
      current, current > delta ? current - delta : 0,
      std::memory_order_relaxed)) {
  }
}

void TableCatalog::ResyncResidentBytes() const {
  if (!budget_active()) return;
  resident_bytes_.bytes.store(ResidentCellBytes(), std::memory_order_relaxed);
}

void TableCatalog::EnforceMemoryBudget(ThreadPool* pool) const {
  if (!budget_active()) return;
  // The running counter replaces the per-call ResidentCellBytes() rescan
  // that made budgeted ingest O(N^2) in catalog size. Its only drift is the
  // upward slack of racing double-counted re-maps (resynced at every
  // ComputeSignatures) — enforcement may briefly overshoot the budget,
  // never evict too much.
  size_t resident = CachedResidentBytes();
  if (resident <= storage_.memory_budget_bytes) return;
  // Coldest-first: sort live resident spilled tables by last touch and
  // evict until the budget holds. The newest entry is spared so the table
  // being worked on is never evicted under its caller.
  std::vector<const TableEntry*> candidates;
  uint64_t newest = 0;
  if (pool != nullptr && pool->size() > 1 && tables_.size() > 1 &&
      !InParallelFor()) {
    // Sharded candidate scan: each chunk of table slots collects its own
    // candidate list and local newest-touch, merged in chunk order — the
    // merged vector (and thus the eviction order after the sort) is
    // identical to the serial scan. Probing spilled()/resident() walks
    // every column, so at catalog scale the scan dominates enforcement
    // when nothing needs evicting.
    struct Shard {
      std::vector<const TableEntry*> candidates;
      uint64_t newest = 0;
    };
    const size_t num_chunks =
        std::min(tables_.size(), static_cast<size_t>(pool->size()) * 4);
    std::vector<Shard> shards(num_chunks);
    pool->ParallelFor(tables_.size(), num_chunks,
                      [&](int /*worker*/, size_t chunk, size_t begin,
                          size_t end) {
                        Shard& shard = shards[chunk];
                        for (size_t t = begin; t < end; ++t) {
                          const TableEntry& entry = tables_[t];
                          if (!entry.live) continue;
                          shard.newest =
                              std::max(shard.newest, entry.last_touch);
                          if (entry.table->spilled() &&
                              entry.table->resident()) {
                            shard.candidates.push_back(&entry);
                          }
                        }
                      });
    for (const Shard& shard : shards) {
      newest = std::max(newest, shard.newest);
      candidates.insert(candidates.end(), shard.candidates.begin(),
                        shard.candidates.end());
    }
  } else {
    for (const TableEntry& entry : tables_) {
      if (!entry.live) continue;
      newest = std::max(newest, entry.last_touch);
      if (entry.table->spilled() && entry.table->resident()) {
        candidates.push_back(&entry);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const TableEntry* a, const TableEntry* b) {
              return a->last_touch < b->last_touch;
            });
  for (const TableEntry* entry : candidates) {
    if (resident <= storage_.memory_budget_bytes) break;
    if (entry->last_touch == newest) break;
    const size_t before = entry->table->ResidentBytes();
    const Status evicted = entry->table->Evict();
    // Count what actually left RAM: a sync failure keeps that column (and
    // its possibly-unsynced pages) resident by design — skip the table,
    // keep going with colder candidates, and let the budget run over
    // rather than risk dropping bytes the disk never confirmed.
    const size_t after = entry->table->ResidentBytes();
    const size_t freed = before > after ? before - after : 0;
    BumpResidentBytes(before, after);
    resident -= freed < resident ? freed : resident;
    if (!evicted.ok()) {
      std::fprintf(stderr,
                   "warning: budget eviction skipping table '%s': %s\n",
                   entry->table->name().c_str(),
                   evicted.ToString().c_str());
      RecordSpillErrorRecovered();
    }
  }
}

void TableCatalog::ComputeSignatures(ThreadPool* pool) {
  std::vector<ColumnRef> missing;
  auto collect_missing = [&](size_t begin, size_t end,
                             std::vector<ColumnRef>* out) {
    for (size_t t = begin; t < end; ++t) {
      if (!tables_[t].live) continue;
      for (uint32_t c = 0; c < tables_[t].table->num_columns(); ++c) {
        if (!tables_[t].signatures[c].has_value()) {
          out->push_back(ColumnRef{static_cast<uint32_t>(t), c});
        }
      }
    }
  };
  if (pool != nullptr && pool->size() > 1 && tables_.size() > 1 &&
      !InParallelFor()) {
    // Sharded collection: per-chunk vectors merged in chunk order are the
    // slot-order list the serial loop builds, so the compute fan-out below
    // sees an identical work list for every pool size. A no-op pass over a
    // million-table catalog is this scan — worth fanning out on its own.
    const size_t num_chunks =
        std::min(tables_.size(), static_cast<size_t>(pool->size()) * 4);
    std::vector<std::vector<ColumnRef>> shards(num_chunks);
    pool->ParallelFor(tables_.size(), num_chunks,
                      [&](int /*worker*/, size_t chunk, size_t begin,
                          size_t end) {
                        collect_missing(begin, end, &shards[chunk]);
                      });
    for (std::vector<ColumnRef>& shard : shards) {
      missing.insert(missing.end(), shard.begin(), shard.end());
    }
  } else {
    collect_missing(0, tables_.size(), &missing);
  }
  if (missing.empty()) return;

  auto compute = [&](ColumnRef ref) {
    // Fallible residency: a column whose bytes cannot be made readable
    // (re-map AND file read failed) keeps a missing signature — the pruner
    // skips pairs involving it, and a later ComputeSignatures retries once
    // the fault clears — instead of aborting the whole sketch pass.
    const auto resident = ResidentColumn(ref);
    if (!resident.ok()) {
      std::fprintf(stderr,
                   "warning: skipping signature for column '%s.%s': %s\n",
                   table_name(ref.table).c_str(),
                   column_name(ref).c_str(),
                   resident.status().ToString().c_str());
      RecordSpillErrorRecovered();
      return;
    }
    tables_[ref.table].signatures[ref.column] =
        ComputeColumnSignature(**resident);
  };
  if (pool != nullptr && pool->size() > 1 && missing.size() > 1 &&
      !InParallelFor()) {
    // Each column writes its own slot, so any chunking is deterministic;
    // over-decompose to balance uneven column sizes.
    pool->ParallelFor(missing.size(),
                      std::min(missing.size(),
                               static_cast<size_t>(pool->size()) * 4),
                      [&](int /*worker*/, size_t /*chunk*/, size_t begin,
                          size_t end) {
                        for (size_t i = begin; i < end; ++i) {
                          compute(missing[i]);
                        }
                      });
  } else {
    for (ColumnRef ref : missing) compute(ref);
  }
  // The sketch pass streams spilled columns block-wise, but re-mapped
  // tables may now exceed the budget again; settle it before returning.
  // This is also the counter's resync point: the exact scan here folds in
  // any double-counted re-maps the incremental accounting missed since the
  // last pass.
  ResyncResidentBytes();
  EnforceMemoryBudget(pool);
}

bool TableCatalog::HasSignature(ColumnRef ref) const {
  TJ_CHECK(ref.table < tables_.size());
  TJ_CHECK(tables_[ref.table].live);
  TJ_CHECK(ref.column < tables_[ref.table].signatures.size());
  return tables_[ref.table].signatures[ref.column].has_value();
}

const ColumnSignature& TableCatalog::signature(ColumnRef ref) const {
  TJ_CHECK(HasSignature(ref));
  return *tables_[ref.table].signatures[ref.column];
}

std::string TableCatalog::SerializeSignatures() const {
  std::string out(kSignatureHeader);
  out += "\n";
  out += StrPrintf("options ngram=%zu hashes=%zu seed=%llu lowercase=1\n",
                   kSketchNgram, kSketchSlots,
                   static_cast<unsigned long long>(kSketchSeed));
  for (const TableEntry& entry : tables_) {
    if (!entry.live) continue;
    bool any = false;
    for (const auto& sig : entry.signatures) {
      if (sig.has_value()) any = true;
    }
    if (!any) continue;
    out += StrPrintf("table '%s' fp=%llu\n",
                     EscapeForDisplay(entry.table->name()).c_str(),
                     static_cast<unsigned long long>(entry.fingerprint));
    for (size_t c = 0; c < entry.signatures.size(); ++c) {
      const auto& sig = entry.signatures[c];
      if (!sig.has_value()) continue;
      // meanlen uses %a (hex float) so the double round-trips exactly.
      out += StrPrintf(
          "column '%s' rows=%u distinct=%llu minlen=%u maxlen=%u meanlen=%a "
          "charset=%u\n",
          EscapeForDisplay(entry.table->column(c).name()).c_str(),
          sig->num_rows, static_cast<unsigned long long>(sig->distinct_ngrams),
          sig->min_length, sig->max_length, sig->mean_length,
          sig->charset_mask);
      out += "minhash";
      for (uint64_t h : sig->minhash) {
        out += StrPrintf(" %llu", static_cast<unsigned long long>(h));
      }
      out += "\n";
    }
  }
  return out;
}

Status TableCatalog::LoadSignatures(std::string_view text) {
  // Parse into a staging list first so a malformed dump installs nothing.
  std::vector<std::pair<ColumnRef, ColumnSignature>> staged;
  constexpr uint32_t kNoTable = ~0u;
  uint32_t current_table = kNoTable;
  bool saw_header = false;
  bool saw_options = false;
  // True while inside a table block whose sketches must be discarded
  // (unknown table or stale fingerprint). Lines are still syntax-checked.
  bool skipping_block = false;
  // Whether the most recent column line (staged or skipped) is still
  // waiting for its minhash line.
  bool column_pending = false;
  ColumnSignature skipped_sig;  // throwaway target inside skipped blocks

  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    auto fail = [&](const std::string& msg) {
      return Status::InvalidArgument(
          StrPrintf("signatures line %zu: %s", line_no, msg.c_str()));
    };

    line = TrimAscii(line);
    if (line.empty()) continue;
    if (!saw_header) {
      // Any other header (the fingerprint-less v1 format included) fails
      // closed; the caller rescans and saves v2.
      if (line != kSignatureHeader) {
        return fail("expected the '" + std::string(kSignatureHeader) +
                    "' header");
      }
      saw_header = true;
      continue;
    }
    if (line[0] == '#') continue;

    LineCursor cursor(line);
    if (cursor.ConsumeWord("options")) {
      size_t ngram = 0;
      size_t hashes = 0;
      uint64_t seed = 0;
      unsigned lowercase = 0;
      Status parsed = cursor.Field("ngram", &ngram);
      if (parsed.ok()) parsed = cursor.Field("hashes", &hashes);
      if (parsed.ok()) parsed = cursor.Field("seed", &seed);
      if (parsed.ok()) parsed = cursor.Field("lowercase", &lowercase);
      if (!parsed.ok()) return fail(parsed.message());
      if (ngram != kSketchNgram || hashes != kSketchSlots ||
          seed != kSketchSeed || lowercase != 1) {
        return fail("sketch parameters disagree with the sketch geometry");
      }
      saw_options = true;
      continue;
    }
    if (!saw_options) return fail("expected options line first");

    if (cursor.ConsumeWord("table")) {
      if (column_pending) return fail("previous column missing its minhash");
      auto name = cursor.ParseQuoted();
      if (!name.ok()) return fail(name.status().message());
      uint64_t recorded_fp = 0;
      const Status parsed = cursor.Field("fp", &recorded_fp);
      if (!parsed.ok()) return fail(parsed.message());
      // A block for a table this catalog no longer has, or whose content
      // changed since the cache was written, is stale: skip it, and the
      // sketches are recomputed.
      auto index = TableIndex(*name);
      skipping_block =
          !index.ok() || recorded_fp != tables_[*index].fingerprint;
      current_table = skipping_block ? kNoTable : *index;
      continue;
    }
    if (cursor.ConsumeWord("column")) {
      if (column_pending) return fail("previous column missing its minhash");
      auto name = cursor.ParseQuoted();
      if (!name.ok()) return fail(name.status().message());
      ColumnSignature sig;
      Status parsed = cursor.Field("rows", &sig.num_rows);
      if (parsed.ok()) parsed = cursor.Field("distinct", &sig.distinct_ngrams);
      if (parsed.ok()) parsed = cursor.Field("minlen", &sig.min_length);
      if (parsed.ok()) parsed = cursor.Field("maxlen", &sig.max_length);
      if (parsed.ok()) parsed = cursor.Field("meanlen", &sig.mean_length);
      if (parsed.ok()) parsed = cursor.Field("charset", &sig.charset_mask);
      if (!parsed.ok()) return fail(parsed.message());
      // Fields no fresh sketch can hold together: ComputeColumnSignature
      // ORs only the CharsetBit classes of lowercased text (never
      // kCharsetUpper), and its mean is an exact length sum over the row
      // count (0/0/0 for an empty column).
      constexpr uint32_t kSketchCharsets = kCharsetLower | kCharsetDigit |
                                           kCharsetSpace | kCharsetPunct |
                                           kCharsetOther;
      if ((sig.charset_mask & ~kSketchCharsets) != 0) {
        return fail("charset= has bits no lowercased sketch sets");
      }
      if (!(sig.min_length <= sig.mean_length &&
            sig.mean_length <= sig.max_length)) {
        return fail("expected minlen <= meanlen <= maxlen");
      }
      if (skipping_block) {
        skipped_sig = std::move(sig);
        column_pending = true;
        continue;
      }
      if (current_table == kNoTable) {
        return fail("column before any table");
      }
      const uint32_t owner_id = current_table;
      const Table& owner = *tables_[owner_id].table;
      auto col = owner.ColumnIndex(*name);
      if (!col.ok()) {
        return fail("table '" + owner.name() + "' has no column '" + *name +
                    "'");
      }
      if (sig.num_rows !=
          column(ColumnRef{owner_id, static_cast<uint32_t>(*col)}).size()) {
        return fail("row count disagrees with the catalog table");
      }
      staged.emplace_back(ColumnRef{owner_id, static_cast<uint32_t>(*col)},
                          std::move(sig));
      column_pending = true;
      continue;
    }
    if (cursor.ConsumeWord("minhash")) {
      if (!column_pending) return fail("minhash before any column");
      ColumnSignature& sig =
          skipping_block ? skipped_sig : staged.back().second;
      if (!sig.minhash.empty()) return fail("duplicate minhash line");
      sig.minhash.reserve(kSketchSlots);
      while (!cursor.AtEnd()) {
        uint64_t h = 0;
        const Status parsed = cursor.Number(&h);
        if (!parsed.ok()) return fail(parsed.message());
        sig.minhash.push_back(h);
      }
      if (sig.minhash.size() != kSketchSlots) {
        return fail(StrPrintf("expected %zu minhash slots, got %zu",
                              kSketchSlots, sig.minhash.size()));
      }
      // A fresh sketch's every distinct gram lowers every slot, so its
      // slots are all empty (no grams) or none is. A mix would split the
      // batch scan, which counts matching empty slots, from the LSH probe,
      // which skips them.
      const auto empty_slots = static_cast<size_t>(std::count(
          sig.minhash.begin(), sig.minhash.end(), kEmptyMinhashSlot));
      if (empty_slots != (sig.distinct_ngrams == 0 ? kSketchSlots : 0)) {
        return fail("minhash slots disagree with distinct=");
      }
      column_pending = false;
      continue;
    }
    return fail("unrecognized line");
  }
  if (!saw_header) {
    return Status::InvalidArgument("signatures: missing tj-signatures header");
  }
  if (column_pending) {
    return Status::InvalidArgument(
        "signatures: truncated dump — last column is missing its minhash "
        "line");
  }
  for (const auto& [ref, sig] : staged) {
    if (sig.minhash.size() != kSketchSlots) {
      return Status::InvalidArgument(
          "signatures: column '" +
          tables_[ref.table].table->column(ref.column).name() +
          "' is missing its minhash line");
    }
  }

  for (auto& [ref, sig] : staged) {
    tables_[ref.table].signatures[ref.column] = std::move(sig);
  }
  return Status::OK();
}

Status TableCatalog::SaveSignaturesToFile(const std::string& path) const {
  // Write-temp + fsync + rename: readers of `path` only ever see the old
  // complete cache or the new complete cache — a crash or I/O failure at
  // any point leaves the previous file byte-identical. (The durability of
  // the rename itself would additionally need a directory fsync; for a
  // cache that self-invalidates on fingerprint mismatch, atomicity is the
  // property that matters.)
  const std::string text = SerializeSignatures();
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + tmp + " for writing: " +
                           std::strerror(errno));
  }
  const auto fail = [&](const std::string& what) {
    const int saved_errno = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IOError(what + " " + tmp + ": " +
                           std::strerror(saved_errno));
  };
  size_t off = 0;
  while (off < text.size()) {
    const int injected = TJ_FAILPOINT("catalog/save-write");
    ssize_t n;
    if (injected != 0) {
      errno = injected;
      n = -1;
    } else {
      n = ::write(fd, text.data() + off, text.size() - off);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("cannot write");
    }
    off += static_cast<size_t>(n);
  }
  {
    const int injected = TJ_FAILPOINT("catalog/save-fsync");
    if (injected != 0) {
      errno = injected;
      return fail("cannot fsync");
    }
  }
  if (::fsync(fd) != 0) return fail("cannot fsync");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("cannot close " + tmp + ": " +
                           std::strerror(errno));
  }
  // The window the atomicity guarantee covers: a crash (or injected fault)
  // after the temp file is complete but before the rename must leave the
  // existing cache untouched.
  {
    const int injected = TJ_FAILPOINT("catalog/save-rename");
    if (injected != 0) {
      errno = injected;
      ::unlink(tmp.c_str());
      return Status::IOError("cannot rename " + tmp + " to " + path + ": " +
                             std::strerror(errno));
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved_errno = errno;
    ::unlink(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path + ": " +
                           std::strerror(saved_errno));
  }
  return Status::OK();
}

Status TableCatalog::LoadSignaturesFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("error reading " + path);
  return LoadSignatures(buffer.str());
}

}  // namespace tj
