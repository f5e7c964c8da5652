// Table: a named collection of equal-length columns.

#ifndef TJ_TABLE_TABLE_H_
#define TJ_TABLE_TABLE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "table/column.h"

namespace tj {

/// A rectangular table of string cells. Columns are stored by value; all
/// columns must have the same number of rows (enforced by AddColumn).
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }

  /// Adds a column; fails if its length disagrees with existing columns or a
  /// column with the same name already exists.
  Status AddColumn(Column column);

  /// Column access by position (bounds-checked).
  const Column& column(size_t i) const {
    TJ_CHECK(i < columns_.size());
    return columns_[i];
  }
  Column& mutable_column(size_t i) {
    TJ_CHECK(i < columns_.size());
    return columns_[i];
  }

  /// Column lookup by name.
  Result<size_t> ColumnIndex(std::string_view name) const;
  const Column* FindColumn(std::string_view name) const;

  const std::vector<Column>& columns() const { return columns_; }

  /// Freezes every column (see Column::Freeze): cell views become stable for
  /// the table's lifetime, moves included. Copies of the table are unfrozen.
  void Freeze() {
    for (Column& c : columns_) c.Freeze();
  }

  /// Sum of the columns' arena buffer bytes (storage footprint diagnostic).
  size_t ArenaBytes() const {
    size_t total = 0;
    for (const Column& c : columns_) total += c.ArenaBytes();
    return total;
  }

  // -------------------------------------------------------------------
  // Out-of-core controls: column-wise forwarding of the spill levers
  // (see the lifetime rules in table/column.h).
  // -------------------------------------------------------------------

  /// True when any column's arena is file-backed.
  bool spilled() const {
    for (const Column& c : columns_) {
      if (c.spilled()) return true;
    }
    return false;
  }
  /// False while any spilled column is evicted.
  bool resident() const {
    for (const Column& c : columns_) {
      if (!c.resident()) return false;
    }
    return true;
  }
  /// Syncs every spilled column to its file and unmaps (frozen tables
  /// only; views die). The catalog's budget enforcement calls this. Every
  /// column is attempted; the first error is returned (columns whose sync
  /// failed stay resident — see Column::Evict).
  Status Evict() const {
    Status first;
    for (const Column& c : columns_) {
      const Status s = c.Evict();
      if (first.ok() && !s.ok()) first = s;
    }
    return first;
  }
  /// Re-maps every evicted column (no-op when resident). Every column is
  /// attempted; the first error is returned.
  Status EnsureResident() const {
    Status first;
    for (const Column& c : columns_) {
      const Status s = c.EnsureResident();
      if (first.ok() && !s.ok()) first = s;
    }
    return first;
  }
  /// Drops resident pages of every spilled column; views stay valid.
  void ReleasePages() const {
    for (const Column& c : columns_) c.ReleasePages();
  }
  /// Rebuilds every column on the backend `storage` selects (no-op for
  /// columns already on the right kind). Invalidates outstanding views.
  void AdoptStorage(const StorageOptions& storage) {
    for (Column& c : columns_) c.AdoptStorage(storage);
  }
  /// Arena bytes currently addressable in RAM across all columns.
  size_t ResidentBytes() const {
    size_t total = 0;
    for (const Column& c : columns_) total += c.ResidentBytes();
    return total;
  }
  /// Bytes held in spill files across all columns.
  size_t SpilledBytes() const {
    size_t total = 0;
    for (const Column& c : columns_) total += c.SpilledBytes();
    return total;
  }

 private:
  std::string name_;
  std::vector<Column> columns_;
};

}  // namespace tj

#endif  // TJ_TABLE_TABLE_H_
