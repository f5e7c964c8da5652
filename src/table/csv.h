// RFC-4180-subset CSV reader/writer for loading and persisting benchmark
// tables. Supports quoted fields with embedded separators, quotes, and
// newlines; the first record is the header.
//
// ReadCsvFile streams the file in fixed-size blocks, appending complete
// records straight into the (possibly file-spilled) column arenas — the
// file is never materialized in memory, so ingest RSS is bounded by the
// block size plus one record regardless of file size. Pass a StorageOptions
// with a spill_dir to land the cell bytes in mmap-backed arenas.

#ifndef TJ_TABLE_CSV_H_
#define TJ_TABLE_CSV_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "table/table.h"

namespace tj {

struct CsvOptions {
  /// Whether the first record names the columns; when false, columns are
  /// named col0, col1, ...
  bool has_header = true;
  /// Block size of the streaming file reader (ReadCsvFile). Records longer
  /// than a block still parse — the carry buffer grows to hold them — but
  /// steady-state ingest holds one block plus one partial record. Exposed
  /// mainly so tests can force records to span block boundaries.
  size_t io_block_bytes = 256 * 1024;
};

/// Parses CSV text into a Table. All rows must have the same field count.
/// Cell bytes land on `storage`-selected arenas (heap by default).
Result<Table> ReadCsvString(std::string_view text,
                            const CsvOptions& options = CsvOptions(),
                            const StorageOptions& storage = StorageOptions());

/// Loads a CSV file from disk in streaming blocks (see file comment). The
/// file size seeds per-column Reserve/ReserveChars hints so heap-arena
/// loads avoid regrow-copy cycles.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = CsvOptions(),
                          const StorageOptions& storage = StorageOptions());

/// Serializes a table as CSV (header row included when options.has_header).
std::string WriteCsvString(const Table& table,
                           const CsvOptions& options = CsvOptions());

/// Writes a table to a CSV file on disk.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = CsvOptions());

}  // namespace tj

#endif  // TJ_TABLE_CSV_H_
