// In-memory tables with declared constraints.
//
// A table's rows live in shared, immutable chunks of kChunkRows rows
// (ChunkedRows, types/row_view.h), each one array per column: 8-byte words
// plus a null bitmap for BOOLEAN, BIGINT and DOUBLE, boxed Values for
// VARCHAR. A write publishes a successor table that shares every full
// chunk and copies only the partial tail chunk's arrays, so old and new
// snapshots share all but at most one chunk.
//
// Constraints (primary keys / foreign keys) are not enforced on insert; they
// are *metadata* consumed by the optimizer, in particular by the
// push-skyline-through-non-reductive-join rule (paper section 5.4, citing
// Carey & Kossmann for non-reductiveness).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/row_view.h"
#include "types/schema.h"
#include "types/value.h"

namespace sparkline {

/// \brief Declarative constraint metadata of a table.
struct TableConstraints {
  /// Columns forming a unique, non-null key (empty if undeclared).
  std::vector<std::string> primary_key;

  struct ForeignKey {
    std::vector<std::string> columns;      ///< referencing columns
    std::string ref_table;                 ///< referenced table name
    std::vector<std::string> ref_columns;  ///< referenced (unique) columns
    /// True if the referencing columns are non-null, i.e. every row is
    /// guaranteed a join partner (this is what makes a join non-reductive).
    bool referencing_not_null = true;
  };
  std::vector<ForeignKey> foreign_keys;
};

/// \brief A named, in-memory table, stored column by column.
///
/// The rows live in shared, immutable chunks of kChunkRows rows
/// (ChunkedRows, types/row_view.h), typed by the schema: a NULL read from
/// a column carries the column's type. Once registered in a Catalog a table is
/// an immutable snapshot: scans read its rows in place through RowViews
/// that share ownership of it (docs/ARCHITECTURE.md, "Borrowed rows"), so
/// the Append* methods are for building a table before registration only.
/// Writes to a registered table go through Catalog::InsertInto, which
/// publishes a Successor: it shares every full chunk of this snapshot and
/// copies only the partial tail chunk's arrays.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        rows_(schema_.types()) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  /// The rows in id order: iterable and indexable in place as RowRefs,
  /// and convertible to a std::vector<Row> copy.
  const ChunkedRows& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  TableConstraints& constraints() { return constraints_; }
  const TableConstraints& constraints() const { return constraints_; }

  /// Catalog version stamped when this snapshot was (re)registered /
  /// published by an insert; 0 before registration. Plan fingerprints read
  /// the version of the snapshot a Scan actually holds, so cached results
  /// always describe the rows that were executed, even if the catalog has
  /// moved on since analysis.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }
  void set_version(uint64_t v) {
    version_.store(v, std::memory_order_release);
  }

  /// Appends a row after checking arity and per-column type/nullability
  /// (Conform).
  Status AppendRow(Row row);

  /// `row` as this table stores it: Schema::Conform naming this table.
  Result<Row> Conform(Row row) const;

  /// Appends without validation (used by trusted generators).
  /// \pre `row` has the schema's arity and, outside NULLs, its types.
  void AppendRowUnchecked(const Row& row) { rows_.Append(row); }

  /// Allocates room for a table of `n` rows, chunk by chunk.
  void Reserve(size_t n) { rows_.Reserve(n); }

  /// The unregistered table a write publishes in this one's place: same
  /// name, schema and constraints, sharing every full chunk of this
  /// snapshot and a copy of its partial tail chunk's arrays, with room for
  /// `extra_rows` appends. Appending to the successor never writes a chunk
  /// this table holds, so readers of this snapshot are unaffected.
  std::shared_ptr<Table> Successor(size_t extra_rows) const;

  /// Approximate bytes held by the table's rows.
  int64_t EstimatedBytes() const;

 private:
  std::string name_;
  Schema schema_;
  ChunkedRows rows_;
  TableConstraints constraints_;
  std::atomic<uint64_t> version_{0};
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace sparkline
