#include "serve/snapshot.h"

#include <utility>

#include "common/logging.h"

namespace tj::serve {

std::shared_ptr<const CorpusSnapshot> CorpusSnapshot::Build(
    const TableCatalog& catalog, const IncrementalPairPruner& pruner,
    size_t /*unused*/) {
  auto snap = std::shared_ptr<CorpusSnapshot>(new CorpusSnapshot());
  snap->epoch_ = catalog.mutation_epoch();
  snap->slots_.resize(catalog.num_slots());
  snap->fingerprints_.resize(catalog.num_slots(), 0);
  for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
    if (!catalog.IsLive(t)) continue;
    std::shared_ptr<const Table> table = catalog.SharedTable(t);
    snap->fingerprints_[t] = catalog.fingerprint(t);
    snap->by_name_.emplace(table->name(), t);
    snap->num_tables_ += 1;
    snap->num_columns_ += table->num_columns();
    snap->resident_bytes_ += table->ResidentBytes();
    snap->spilled_bytes_ += table->SpilledBytes();
    snap->slots_[t] = std::move(table);
  }
  snap->shortlist_ = pruner.Snapshot();
  snap->lsh_buckets_ = pruner.lsh_index().num_buckets();
  snap->lsh_entries_ = pruner.lsh_index().num_entries();
  return snap;
}

Result<ColumnRef> CorpusSnapshot::ResolveColumn(std::string_view spec) const {
  // Rightmost-first: "data.v2.id" prefers table "data.v2" column "id" over
  // table "data" column "v2.id" only when the former exists — the split
  // whose prefix names a live table with that column wins.
  for (size_t dot = spec.rfind('.'); dot != std::string_view::npos;
       dot = dot == 0 ? std::string_view::npos : spec.rfind('.', dot - 1)) {
    const std::string_view table_part = spec.substr(0, dot);
    const std::string_view column_part = spec.substr(dot + 1);
    auto it = by_name_.find(std::string(table_part));
    if (it == by_name_.end()) continue;
    const Table& table = *slots_[it->second];
    for (uint32_t c = 0; c < table.num_columns(); ++c) {
      if (table.column(c).name() == column_part) {
        return ColumnRef{it->second, c};
      }
    }
    return Status::NotFound("table '" + std::string(table_part) +
                            "' has no column '" + std::string(column_part) +
                            "'");
  }
  return Status::NotFound("no table.column matching '" + std::string(spec) +
                          "' at epoch " + std::to_string(epoch_));
}

Result<uint32_t> CorpusSnapshot::ResolveTable(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound("no table named '" + std::string(name) +
                            "' at epoch " + std::to_string(epoch_));
  }
  return it->second;
}

std::string CorpusSnapshot::SpecOf(ColumnRef ref) const {
  return table_name(ref.table) + "." + column_name(ref);
}

Result<const Column*> CorpusSnapshot::ResidentColumn(ColumnRef ref) const {
  if (!IsLive(ref.table)) {
    return Status::NotFound("snapshot has no table id " +
                            std::to_string(ref.table));
  }
  const Table& table = *slots_[ref.table];
  if (ref.column >= table.num_columns()) {
    return Status::NotFound("table '" + table.name() + "' has no column id " +
                            std::to_string(ref.column));
  }
  // The pinned table may have been evicted by the live catalog's budget
  // enforcement since the snapshot was built; re-map before handing out
  // cell access (no-op while resident). Racing re-maps from concurrent
  // queries are safe; the server evicts only while it holds its compute
  // gate exclusive, so a re-map never races an Evict.
  const Column& column = table.column(ref.column);
  TJ_RETURN_IF_ERROR(column.EnsureResident());
  return &column;
}

const std::string& CorpusSnapshot::table_name(uint32_t t) const {
  TJ_CHECK(IsLive(t));
  return slots_[t]->name();
}

const std::string& CorpusSnapshot::column_name(ColumnRef ref) const {
  TJ_CHECK(IsLive(ref.table));
  const Table& table = *slots_[ref.table];
  TJ_CHECK(ref.column < table.num_columns());
  return table.column(ref.column).name();
}

}  // namespace tj::serve
