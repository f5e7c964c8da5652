#include "table/csv.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/strings.h"

namespace tj {
namespace {

/// Parses one record starting at *pos into the first `*num_fields` elements
/// of `fields`; advances *pos past the record's trailing newline. Returns
/// false at end of input. `fields` is a reusable scratch: elements are
/// cleared and refilled in place (their buffers are kept across records), so
/// a steady-state parse performs no per-field heap allocation.
bool ParseRecord(std::string_view text, size_t* pos, char delim,
                 std::vector<std::string>* fields, size_t* num_fields,
                 Status* status) {
  *num_fields = 0;
  if (*pos >= text.size()) return false;
  const auto next_field = [&]() -> std::string* {
    if (*num_fields == fields->size()) fields->emplace_back();
    std::string* f = &(*fields)[(*num_fields)++];
    f->clear();
    return f;
  };
  std::string* field = next_field();
  bool in_quotes = false;
  bool field_was_quoted = false;
  size_t i = *pos;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field->push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field->push_back(c);
      }
      continue;
    }
    if (c == '"' && field->empty() && !field_was_quoted) {
      in_quotes = true;
      field_was_quoted = true;
    } else if (c == delim) {
      field = next_field();
      field_was_quoted = false;
    } else if (c == '\n' || c == '\r') {
      break;
    } else {
      field->push_back(c);
    }
  }
  if (in_quotes) {
    *status = Status::InvalidArgument("unterminated quoted CSV field");
    return false;
  }
  // Swallow one line terminator (\n, \r, or \r\n).
  if (i < text.size() && text[i] == '\r') ++i;
  if (i < text.size() && text[i] == '\n') ++i;
  *pos = i;
  return true;
}

/// Resumable record-boundary scanner state: where the scan of the current
/// (incomplete) record stopped and its quote state at that point. Keeping
/// it across blocks makes the streaming reader linear — a record spanning
/// many blocks is scanned once, not once per block. Offsets are relative
/// to the carry buffer; Rebase() keeps them valid when its consumed prefix
/// is erased.
struct RecordScan {
  size_t offset = 0;  // first byte not yet examined
  bool in_quotes = false;
  bool field_was_quoted = false;
  bool field_empty = true;

  void StartRecordAt(size_t pos) { *this = RecordScan{pos}; }
  void Rebase(size_t erased_prefix) { offset -= erased_prefix; }
};

/// Returns the offset just past the record whose scan `*scan` tracks (line
/// terminator swallowed), or npos when the input ends before the record
/// does — mid-quotes, or without a trailing newline. The streaming reader
/// uses npos as "wait for the next block" (the scan state persists, so the
/// next call resumes where this one stopped); ParseRecord is then only
/// ever fed complete records (EOF remainder aside).
///
/// Mirrors ParseRecord's quote rules exactly — in particular, a quote only
/// OPENS quoting at field start: a stray mid-field '"' is literal data to
/// both, so the scanner's record boundaries always agree with the parser's
/// and one unbalanced quote cannot make the reader buffer the rest of the
/// file (a legitimately unterminated quoted field still buffers to EOF,
/// where ParseRecord reports it).
size_t FindRecordEnd(std::string_view text, char delim, RecordScan* scan) {
  size_t i = scan->offset;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (scan->in_quotes) {
      if (c == '"') {
        // A quote as the buffer's last byte is ambiguous (closer vs first
        // half of an escaped ""): stop HERE and let the next block resolve
        // it (the quote is re-examined with lookahead available).
        if (i + 1 >= text.size()) break;
        if (text[i + 1] == '"') {
          ++i;
          scan->field_empty = false;
        } else {
          scan->in_quotes = false;
        }
      } else {
        scan->field_empty = false;
      }
      continue;
    }
    if (c == '"' && scan->field_empty && !scan->field_was_quoted) {
      scan->in_quotes = true;
      scan->field_was_quoted = true;
    } else if (c == delim) {
      scan->field_empty = true;
      scan->field_was_quoted = false;
    } else if (c == '\n') {
      return i + 1;
    } else if (c == '\r') {
      // \r\n needs its \n in the buffer to be swallowed as one terminator.
      if (i + 1 >= text.size()) break;
      return text[i + 1] == '\n' ? i + 2 : i + 1;
    } else {
      scan->field_empty = false;
    }
  }
  scan->offset = i;
  return std::string_view::npos;
}

/// Accumulates parsed records into arena-backed columns; shared by the
/// string and streaming readers so header handling, field-count checks, and
/// the reserve hints stay in one place.
class CsvTableBuilder {
 public:
  CsvTableBuilder(const CsvOptions& options, const StorageOptions& storage,
                  size_t input_size_hint)
      : options_(options),
        storage_(storage),
        input_size_hint_(input_size_hint) {}

  Status OnRecord(const std::vector<std::string>& fields, size_t num_fields) {
    if (first_) {
      first_ = false;
      columns_.reserve(num_fields);
      for (size_t i = 0; i < num_fields; ++i) {
        columns_.push_back(Column::WithStorage(
            options_.has_header ? fields[i] : StrPrintf("col%zu", i),
            storage_));
      }
      // Reserve hints wait for the first DATA record: a short header would
      // wildly overestimate the row count.
      if (options_.has_header) return Status::OK();
    }
    if (!hints_applied_) {
      hints_applied_ = true;
      ApplyReserveHints(fields, num_fields);
    }
    if (num_fields != columns_.size()) {
      return Status::InvalidArgument(
          StrPrintf("CSV record has %zu fields, expected %zu", num_fields,
                    columns_.size()));
    }
    for (size_t i = 0; i < num_fields; ++i) {
      columns_[i].Append(fields[i]);
    }
    return Status::OK();
  }

  Result<Table> Finish() {
    if (columns_.empty()) return Status::InvalidArgument("empty CSV input");
    Table table;
    for (Column& column : columns_) {
      TJ_RETURN_IF_ERROR(table.AddColumn(std::move(column)));
    }
    // Loaded tables are frozen: cell views handed out downstream stay valid
    // for the table's lifetime; callers that want to edit copy first.
    table.Freeze();
    return table;
  }

 private:
  /// Sizes each column from the input size: cell bytes are bounded by the
  /// input bytes split across columns, and the row count by input bytes
  /// over the first data record's length. One up-front reservation instead
  /// of regrow-copy cycles.
  void ApplyReserveHints(const std::vector<std::string>& fields,
                         size_t num_fields) {
    if (input_size_hint_ == 0 || columns_.empty()) return;
    size_t record_bytes = num_fields;  // delimiters + newline
    for (size_t i = 0; i < num_fields; ++i) record_bytes += fields[i].size();
    // Clamp so the slots (~16 bytes each, always heap-resident) can never
    // out-reserve the input itself on degenerate near-empty records.
    const size_t rows_hint =
        std::min(input_size_hint_ / std::max<size_t>(record_bytes, 1),
                 input_size_hint_ / 16) +
        1;
    const size_t chars_hint = input_size_hint_ / columns_.size() + 1;
    for (Column& column : columns_) {
      column.Reserve(rows_hint);
      column.ReserveChars(chars_hint);
    }
  }

  const CsvOptions& options_;
  const StorageOptions& storage_;
  size_t input_size_hint_ = 0;
  bool first_ = true;
  bool hints_applied_ = false;
  std::vector<Column> columns_;
};

}  // namespace

Result<Table> ReadCsvString(std::string_view text, const CsvOptions& options,
                            const StorageOptions& storage) {
  CsvTableBuilder builder(options, storage, text.size());
  size_t pos = 0;
  std::vector<std::string> fields;
  size_t num_fields = 0;
  Status status;
  // Cells are appended straight into each column's arena: the reusable
  // `fields` scratch is the only per-record string storage, so the parse
  // allocates O(columns) buffers total instead of one per cell.
  while (ParseRecord(text, &pos, options.delimiter, &fields, &num_fields,
                     &status)) {
    TJ_RETURN_IF_ERROR(builder.OnRecord(fields, num_fields));
  }
  if (!status.ok()) return status;
  return builder.Finish();
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options,
                          const StorageOptions& storage) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);

  std::error_code ec;
  const auto file_size = std::filesystem::file_size(path, ec);
  const size_t size_hint = ec ? 0 : static_cast<size_t>(file_size);

  CsvTableBuilder builder(options, storage, size_hint);
  const size_t block_bytes = std::max<size_t>(options.io_block_bytes, 1);
  std::vector<char> block(block_bytes);
  // Carry buffer: the bytes of the (at most one) record still incomplete at
  // the previous block boundary, plus the current block. Complete records
  // are parsed out eagerly, so the buffer never holds the whole file —
  // steady-state ingest is O(block + longest record).
  std::string buf;
  std::vector<std::string> fields;
  size_t num_fields = 0;
  Status status;
  RecordScan scan;

  while (in) {
    in.read(block.data(), static_cast<std::streamsize>(block.size()));
    const auto got = static_cast<size_t>(in.gcount());
    if (got == 0) break;
    buf.append(block.data(), got);
    size_t pos = 0;
    for (;;) {
      // FindRecordEnd gates availability ("a complete record starts at
      // pos") and resumes from where the previous block's scan stopped;
      // ParseRecord decides the boundary — the two agree by construction,
      // but advancing by the parser's position keeps it the single source
      // of truth.
      if (FindRecordEnd(buf, options.delimiter, &scan) ==
          std::string_view::npos) {
        break;
      }
      if (!ParseRecord(buf, &pos, options.delimiter, &fields, &num_fields,
                       &status)) {
        break;
      }
      if (!status.ok()) return status;
      TJ_RETURN_IF_ERROR(builder.OnRecord(fields, num_fields));
      scan.StartRecordAt(pos);
    }
    if (!status.ok()) return status;
    buf.erase(0, pos);
    scan.Rebase(pos);
  }
  if (in.bad()) return Status::IOError("error reading " + path);

  // EOF remainder: a final record without a trailing newline (or an
  // unterminated quote, which ParseRecord reports).
  size_t pos = 0;
  while (ParseRecord(buf, &pos, options.delimiter, &fields, &num_fields,
                     &status)) {
    TJ_RETURN_IF_ERROR(builder.OnRecord(fields, num_fields));
  }
  if (!status.ok()) return status;
  return builder.Finish();
}

namespace {

bool NeedsQuoting(std::string_view field, char delim) {
  for (char c : field) {
    if (c == delim || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(std::string* out, std::string_view field, char delim) {
  if (!NeedsQuoting(field, delim)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

std::string WriteCsvString(const Table& table, const CsvOptions& options) {
  std::string out;
  const size_t cols = table.num_columns();
  if (options.has_header) {
    for (size_t i = 0; i < cols; ++i) {
      if (i > 0) out.push_back(options.delimiter);
      AppendField(&out, table.column(i).name(), options.delimiter);
    }
    out.push_back('\n');
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < cols; ++i) {
      if (i > 0) out.push_back(options.delimiter);
      AppendField(&out, table.column(i).Get(r), options.delimiter);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteCsvString(table, options);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace tj
