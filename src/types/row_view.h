// Borrowed rows: a partition read in place from an immutable row vector.
//
// Scans hand out RowViews instead of copies (docs/ARCHITECTURE.md, section
// "Borrowed rows"). A view holds the source vector, the source row of each
// view row, and a column map; view row k is the projection of
// (*rows)[ids[k]] onto `columns`. Nothing is copied until a consumer asks
// for materialized rows.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "types/value.h"

namespace sparkline {

/// \brief Rows of a shared, immutable row vector, selected by id and seen
/// through a column map.
///
/// Ownership: `rows` shares ownership of its owner — a scan's aliases the
/// table snapshot's TablePtr, a local relation's its row vector — so the
/// owner lives as long as any view does. The owner must never mutate the
/// vector while a view exists: registered tables are immutable and
/// Catalog::InsertInto writes copy-on-write.
struct RowView {
  std::shared_ptr<const std::vector<Row>> rows;
  /// Source row of each view row, in view order.
  std::vector<uint32_t> ids;
  /// Source column of each view column; empty means every source column,
  /// in order.
  std::vector<size_t> columns;

  /// Every row of `rows` in order, all columns.
  static RowView All(std::shared_ptr<const std::vector<Row>> rows) {
    RowView view;
    view.ids.resize(rows->size());
    for (uint32_t i = 0; i < view.ids.size(); ++i) view.ids[i] = i;
    view.rows = std::move(rows);
    return view;
  }

  size_t size() const { return ids.size(); }

  /// True when `other` reads the same source through the same column map,
  /// so the two views' ids can be mixed into one view.
  bool SameSource(const RowView& other) const {
    return rows == other.rows && columns == other.columns;
  }

  /// The unprojected source row behind view row `k`.
  const Row& source(size_t k) const { return (*rows)[ids[k]]; }

  /// The source column behind view column `c`.
  size_t column(size_t c) const { return columns.empty() ? c : columns[c]; }

  /// Copies view row `k` out: its source row projected onto `columns`.
  Row Materialize(size_t k) const {
    const Row& src = source(k);
    if (columns.empty()) return src;
    Row out;
    out.reserve(columns.size());
    for (const size_t c : columns) out.push_back(src[c]);
    return out;
  }

  /// Copies the view rows `selection` names, in selection order.
  std::vector<Row> Materialize(const std::vector<uint32_t>& selection) const {
    std::vector<Row> out;
    out.reserve(selection.size());
    for (const uint32_t k : selection) out.push_back(Materialize(k));
    return out;
  }

  /// Copies every view row.
  std::vector<Row> Materialize() const {
    std::vector<Row> out;
    out.reserve(ids.size());
    for (size_t k = 0; k < ids.size(); ++k) out.push_back(Materialize(k));
    return out;
  }

  /// EstimateRowBytes(Materialize(k)), without the copy.
  int64_t EstimateRowBytes(size_t k) const {
    const Row& src = source(k);
    if (columns.empty()) return ::sparkline::EstimateRowBytes(src);
    int64_t bytes = static_cast<int64_t>(sizeof(Row));
    for (const size_t c : columns) bytes += src[c].EstimatedBytes();
    return bytes;
  }
};

}  // namespace sparkline
