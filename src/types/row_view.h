// Borrowed rows: partitions read in place from an immutable, chunked row
// store.
//
// A table keeps its rows as a list of shared, immutable chunks of
// kChunkRows rows (ChunkedRows): row id i lives at
// chunks[i >> kChunkShift][i & (kChunkRows - 1)]. An insert shares every
// full chunk of the snapshot it extends and copies only its partial tail
// chunk (Table::Successor), so a published chunk never changes.
//
// Scans hand out RowViews instead of copies (docs/ARCHITECTURE.md, section
// "Borrowed rows"). A view holds the source store, the source row of each
// view row, and a column map; view row k is the projection of
// (*rows)[ids[k]] onto `columns`. Nothing is copied until a consumer asks
// for materialized rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "types/value.h"

namespace sparkline {

/// log2 of the row capacity of a table chunk.
inline constexpr uint32_t kChunkShift = 13;
/// Rows in a full table chunk.
inline constexpr size_t kChunkRows = size_t{1} << kChunkShift;

/// \brief Rows stored as a list of shared, immutable chunks.
///
/// Every chunk but the last holds exactly 2^shift rows, so row id i is
/// chunk i >> shift, slot i & (2^shift - 1). A table's store uses
/// kChunkShift and grows by Append. Single makes one vector the only chunk
/// of a store, with a shift of 32 so that chunk may hold any number of
/// rows a 32-bit id addresses: the store of a local relation, or of rows a
/// query gathered.
///
/// Ownership: stores share their chunks through shared_ptrs. The owner of
/// a store under construction appends to its last chunk only while no
/// other store holds that chunk; a full chunk, and every chunk of a
/// published store, is never written again.
class ChunkedRows {
 public:
  using Chunk = std::vector<Row>;
  using ChunkPtr = std::shared_ptr<const Chunk>;

  ChunkedRows() = default;
  /// Copies would share the chunk under construction.
  ChunkedRows(const ChunkedRows&) = delete;
  ChunkedRows& operator=(const ChunkedRows&) = delete;

  /// A store whose only chunk is `rows`, shared, not copied.
  static std::shared_ptr<const ChunkedRows> Single(
      std::shared_ptr<const Chunk> rows);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::vector<ChunkPtr>& chunks() const { return chunks_; }

  /// The row with id `id`.
  const Row& operator[](size_t id) const {
    return (*chunks_[id >> shift_])[id & mask_];
  }
  const Row& front() const { return (*this)[0]; }

  /// Walks the rows in id order without copying them.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = const Row*;
    using reference = const Row&;

    const_iterator() = default;
    const_iterator(const ChunkedRows* rows, size_t id) : rows_(rows), id_(id) {}
    reference operator*() const { return (*rows_)[id_]; }
    pointer operator->() const { return &(*rows_)[id_]; }
    const_iterator& operator++() {
      ++id_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++id_;
      return old;
    }
    bool operator==(const const_iterator& other) const {
      return id_ == other.id_;
    }
    bool operator!=(const const_iterator& other) const {
      return id_ != other.id_;
    }

   private:
    const ChunkedRows* rows_ = nullptr;
    size_t id_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// Copies every row out, in id order. Implicit, so a std::vector<Row>
  /// can be initialized from a table's rows().
  operator std::vector<Row>() const;  // NOLINT(google-explicit-constructor)

  // --- Building: for the owner of a store that is not yet published. ---

  /// Appends a row to the last chunk, or to a new chunk when the last one
  /// is full or shared. \pre a table store (not made by Single).
  void Append(Row row);

  /// Announces that the store will grow to `n` rows: the chunk list is
  /// reserved, and every chunk started from now on is allocated once with
  /// room for its share of them.
  void Reserve(size_t n);

  /// Starts this empty store as the successor of `prev`: shares every full
  /// chunk of `prev`, copies its partial tail chunk into a chunk of its
  /// own, and reserves room for `extra_rows` appends. Appends never write a
  /// chunk `prev` holds. \pre both are table stores.
  void ShareFrom(const ChunkedRows& prev, size_t extra_rows);

 private:
  void StartChunk();

  std::vector<ChunkPtr> chunks_;
  /// The last chunk while this store may still append to it: one this
  /// store started, not yet full.
  std::shared_ptr<Chunk> tail_;
  size_t size_ = 0;
  size_t reserved_ = 0;  ///< rows announced by Reserve
  uint32_t shift_ = kChunkShift;
  size_t mask_ = kChunkRows - 1;
};

/// \brief Rows of a shared, immutable row store, selected by id and seen
/// through a column map.
///
/// Ownership: `rows` shares ownership of its owner — a scan's aliases the
/// table snapshot's TablePtr, a local relation's wraps its row vector once
/// — so the owner lives as long as any view does. The owner never changes
/// the rows while a view exists: registered tables are immutable, and
/// Catalog::InsertInto publishes a successor that shares the full chunks.
struct RowView {
  std::shared_ptr<const ChunkedRows> rows;
  /// Source row of each view row, in view order.
  std::vector<uint32_t> ids;
  /// Source column of each view column; empty means every source column,
  /// in order.
  std::vector<size_t> columns;

  /// Every row of `rows` in order, all columns.
  static RowView All(std::shared_ptr<const ChunkedRows> rows) {
    RowView view;
    view.ids.resize(rows->size());
    for (uint32_t i = 0; i < view.ids.size(); ++i) view.ids[i] = i;
    view.rows = std::move(rows);
    return view;
  }

  size_t size() const { return ids.size(); }

  /// True when `other` reads the same store through the same column map,
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
