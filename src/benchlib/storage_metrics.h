// Storage-core measurement shared by bench_table2 and bench_corpus: column
// arena footprint, the spilled-bytes and peak-RSS footprint of the
// out-of-core path, and the size of the flat CSR n-gram index over the
// measured columns. Keeping the loop and the JSON field names in one place
// is what keeps the two benches' CI records in sync.

#ifndef TJ_BENCHLIB_STORAGE_METRICS_H_
#define TJ_BENCHLIB_STORAGE_METRICS_H_

#include <cstdio>

#include "table/table.h"

namespace tj {

/// Process peak resident set size in bytes (getrusage ru_maxrss); the
/// high-water mark since process start, so out-of-core phases must be
/// measured before any in-memory pass faults the whole corpus.
size_t PeakRssBytes();

/// Process resident set size right now, in bytes (/proc/self/statm on
/// Linux; 0 where unavailable). Deltas across a phase bound its footprint
/// even after an earlier phase raised the peak.
size_t CurrentRssBytes();

struct StorageMetrics {
  size_t cells_bytes = 0;           // sum of column arena bytes
  size_t spilled_bytes = 0;         // bytes held in mmap spill files
  /// Peak RSS to report. ru_maxrss is a process-wide high-water mark, so a
  /// bench with an out-of-core phase must sample this BEFORE its in-memory
  /// passes fault the whole corpus (bench_corpus does, right after the
  /// spilled run). 0 = sample at serialization time instead.
  size_t peak_rss_bytes = 0;
  size_t index_total_postings = 0;  // CSR postings over measured columns
  size_t index_memory_bytes = 0;    // CSR footprint of measured columns

  /// Adds a table's arena + spill-file footprint to the byte counters (no
  /// index build).
  void AddCells(const Table& table) {
    cells_bytes += table.ArenaBytes();
    spilled_bytes += table.SpilledBytes();
  }

  /// Builds the n-gram index over `column` (serially) and records its
  /// postings and footprint.
  void MeasureColumn(const Column& column);
};

/// One-line human-readable summary (printed by both benches).
void PrintStorageSummary(const StorageMetrics& m);

/// Writes the storage fields as the TAIL of a JSON object — the byte
/// counters plus peak_rss_bytes sampled at call time — followed by the
/// closing "}\n". The caller's previous field must end with ",\n".
void WriteStorageJsonTail(std::FILE* f, const StorageMetrics& m);

}  // namespace tj

#endif  // TJ_BENCHLIB_STORAGE_METRICS_H_
