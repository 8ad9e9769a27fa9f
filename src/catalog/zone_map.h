// Zone maps: per-column min/max + null-count summaries, the data-skipping
// metadata of the scan path (ROADMAP item 3, after "Extensible Data
// Skipping" in PAPERS.md).
//
// A zone map describes a *set* of rows (a whole table, or one scan
// partition) with one ColumnZone per column. The summaries are maintained
// incrementally: Table observes every appended row, and Catalog::InsertInto
// transplants the predecessor's map into the copy-on-write successor and
// observes only the inserted rows — a min/max merge, never a rebuild.
//
// Soundness mirrors DominanceMatrix::Build: a column is poisoned
// (numeric = false) the moment it sees a non-numeric value, a NaN, or a
// BIGINT whose magnitude exceeds 2^53 — exactly the shapes Build ranks
// instead of keying directly, because their double image could flip a
// comparison. Consumers (zone-map partition
// skipping in LocalSkylineExec) must treat a poisoned column as "no
// information".
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "types/value.h"

namespace sparkline {

/// \brief Min/max/null-count summary of one column over a set of rows.
struct ColumnZone {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  int64_t null_count = 0;
  /// False once the column has seen any value whose double image is not
  /// order-exact (non-numeric, NaN, BIGINT beyond 2^53). A poisoned zone
  /// carries no usable range.
  bool numeric = true;

  /// True when [min, max] is a trustworthy bound over every non-null value
  /// the zone has observed (at least one value seen, column not poisoned).
  bool has_range() const { return numeric && min <= max; }

  void Observe(const Value& v) {
    if (v.is_null()) {
      ++null_count;
      return;
    }
    if (!numeric) return;
    if (!v.type().is_numeric()) {
      numeric = false;
      return;
    }
    if (v.type().id() == TypeId::kInt64) {
      const int64_t i = v.int64_value();
      constexpr int64_t kMaxExact = int64_t{1} << 53;
      if (i > kMaxExact || i < -kMaxExact) {
        numeric = false;
        return;
      }
    }
    const double d = v.ToDouble();
    if (std::isnan(d)) {
      numeric = false;
      return;
    }
    min = std::min(min, d);
    max = std::max(max, d);
  }

  /// Min/max merge with another zone over disjoint rows.
  void MergeFrom(const ColumnZone& other) {
    null_count += other.null_count;
    if (!other.numeric) {
      numeric = false;
      return;
    }
    if (!numeric) return;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
};

/// \brief Per-column zones over one set of rows. A default-constructed map
/// (no columns) means "no metadata" and is what every consumer must expect
/// when the producing operator could not (or chose not to) build one.
struct ZoneMap {
  std::vector<ColumnZone> columns;
  int64_t num_rows = 0;

  ZoneMap() = default;
  explicit ZoneMap(size_t num_columns) : columns(num_columns) {}

  bool valid() const { return !columns.empty(); }

  /// Folds one row in. Rows narrower than the map (should not happen for
  /// schema-validated appends) leave the missing columns untouched.
  void Observe(const Row& row) {
    ++num_rows;
    const size_t n = std::min(columns.size(), row.size());
    for (size_t i = 0; i < n; ++i) columns[i].Observe(row[i]);
  }

  /// Folds in the projection of `row` onto `columns` (a scan's column map:
  /// map column i summarizes row[columns[i]]) without materializing it.
  void ObserveProjected(const Row& row, const std::vector<size_t>& columns) {
    ++num_rows;
    const size_t n = std::min(this->columns.size(), columns.size());
    for (size_t i = 0; i < n; ++i) this->columns[i].Observe(row[columns[i]]);
  }

  /// Merge with a map over disjoint rows of the same schema.
  void MergeFrom(const ZoneMap& other) {
    if (columns.size() != other.columns.size()) {
      // Shape mismatch: no sound merge exists; poison everything.
      for (auto& c : columns) c.numeric = false;
      num_rows += other.num_rows;
      return;
    }
    num_rows += other.num_rows;
    for (size_t i = 0; i < columns.size(); ++i) {
      columns[i].MergeFrom(other.columns[i]);
    }
  }

  /// Ground-truth rebuild, for tests pinning that incremental maintenance
  /// and a from-scratch scan agree.
  static ZoneMap Build(const std::vector<Row>& rows, size_t num_columns) {
    ZoneMap zm(num_columns);
    for (const Row& r : rows) zm.Observe(r);
    return zm;
  }
};

}  // namespace sparkline
