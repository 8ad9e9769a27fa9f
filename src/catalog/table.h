// In-memory tables with declared constraints.
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

/// \brief A named, row-oriented, in-memory table.
///
/// Once registered in a Catalog a table is an immutable snapshot: scans
/// read its rows in place through RowViews that share ownership of it
/// (docs/ARCHITECTURE.md, "Borrowed rows"), so the Append* methods are for
/// building a table before registration only. Writes to a registered
/// table go through Catalog::InsertInto, which publishes a copy-on-write
/// successor.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  TableConstraints& constraints() { return constraints_; }
  const TableConstraints& constraints() const { return constraints_; }

  /// Catalog version stamped when this snapshot was (re)registered /
  /// produced by a copy-on-write insert; 0 before registration. Plan
  /// fingerprints read the version of the snapshot a Scan actually holds,
  /// so cached results always describe the rows that were executed, even
  /// if the catalog has moved on since analysis.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }
  void set_version(uint64_t v) {
    version_.store(v, std::memory_order_release);
  }

  /// Appends a row after checking arity and per-column type/nullability.
  Status AppendRow(Row row);

  /// Appends without validation (used by trusted generators).
  void AppendRowUnchecked(Row row) { rows_.push_back(std::move(row)); }

  /// Bulk-copies another table's rows — the copy-on-write fast path of
  /// Catalog::InsertInto. `extra_rows` more rows are reserved in the same
  /// allocation, so the appends that follow never reallocate the copy.
  ///
  /// \pre this table is empty and shares `other`'s schema.
  void CopyRowsFrom(const Table& other, size_t extra_rows) {
    rows_.reserve(other.rows_.size() + extra_rows);
    rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
  }

  void Reserve(size_t n) { rows_.reserve(n); }

  /// Approximate bytes held by the table's rows.
  int64_t EstimatedBytes() const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  TableConstraints constraints_;
  std::atomic<uint64_t> version_{0};
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace sparkline
