// Borrowed rows: partitions read in place from an immutable, chunked,
// column-oriented row store.
//
// A table keeps its rows as a list of shared, immutable chunks of
// kChunkRows rows (ChunkedRows). A chunk stores one array per column
// (RowChunk): BOOLEAN, BIGINT and DOUBLE values as 8-byte words plus a
// null bitmap, VARCHAR values as boxed Values that share their payloads.
// Row id i is slot i & (kChunkRows - 1) of chunk i >> kChunkShift; a
// RowRef names that (chunk, slot) pair and reads one Value per column. An
// insert shares every full chunk of the snapshot it extends and copies
// only its partial tail chunk's arrays (Table::Successor), so a published
// chunk never changes.
//
// Scans hand out RowViews instead of copies (docs/ARCHITECTURE.md, section
// "Borrowed rows"). A view holds the source store, the source row of each
// view row, and a column map; view row k is the projection of
// (*rows)[ids[k]] onto `columns`. Rows are built only where a consumer
// asks for materialized rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <vector>

#include "types/value.h"

namespace sparkline {

/// log2 of the row capacity of a table chunk.
inline constexpr uint32_t kChunkShift = 13;
/// Rows in a full table chunk.
inline constexpr size_t kChunkRows = size_t{1} << kChunkShift;

class RowChunk;

/// \brief One row of a RowChunk: the chunk and the row's slot in it. Reads
/// one Value per column, built from the column's array; valid while the
/// chunk lives.
class RowRef {
 public:
  RowRef(const RowChunk* chunk, size_t slot) : chunk_(chunk), slot_(slot) {}

  /// Number of columns.
  size_t size() const;
  /// The value of column `c`.
  Value operator[](size_t c) const;
  /// Copies the row out.
  Row Materialize() const;
  /// Implicit, so a `const Row&` can bind a table row (as a copy).
  operator Row() const {  // NOLINT(google-explicit-constructor)
    return Materialize();
  }

 private:
  const RowChunk* chunk_;
  size_t slot_;
};

/// \brief Rows stored column by column: one array per column.
///
/// A BOOLEAN, BIGINT or DOUBLE column is one 8-byte word per row (a
/// DOUBLE's bits, so -0.0, NaN and ±inf round-trip exactly) plus a null
/// bitmap that is absent until the column's first NULL; a NULL reads back
/// as a NULL of the column's type. Any other column keeps boxed Values:
/// VARCHAR, whose values share their payloads, and an owned-row column
/// whose values do not all carry one type tag (see ChunkedRows::Single),
/// so owned rows keep every value's type.
class RowChunk {
 public:
  struct Column {
    DataType type;
    bool boxed = false;
    /// Unboxed values, one word a row (0 under a NULL).
    std::vector<uint64_t> words;
    /// Bit i % 64 of word i / 64 is set when row i is NULL; rows past the
    /// bitmap's end are not NULL.
    std::vector<uint64_t> nulls;
    /// Boxed values, one a row.
    std::vector<Value> values;

    /// True when an unboxed column's row `slot` is NULL.
    bool IsNull(size_t slot) const {
      const size_t w = slot >> 6;
      return w < nulls.size() && ((nulls[w] >> (slot & 63)) & 1u) != 0;
    }

    Value Get(size_t slot) const {
      if (boxed) return values[slot];
      if (IsNull(slot)) return Value::Null(type);
      const uint64_t word = words[slot];
      switch (type.id()) {
        case TypeId::kBool:
          return Value::Bool(word != 0);
        case TypeId::kInt64:
          return Value::Int64(static_cast<int64_t>(word));
        case TypeId::kDouble: {
          double d;
          std::memcpy(&d, &word, sizeof d);
          return Value::Double(d);
        }
        case TypeId::kString:
          break;
      }
      return Value::Null(type);
    }
    /// \pre an unboxed column's non-null values have the column's type.
    void Append(Value v);
    void Reserve(size_t rows);
  };

  size_t size() const { return rows_; }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t c) const { return columns_[c]; }
  RowRef operator[](size_t slot) const { return RowRef(this, slot); }

 private:
  friend class ChunkedRows;
  /// Rows, counted apart from the columns: a chunk of zero columns (the
  /// one empty row of a SELECT without FROM) still holds rows.
  size_t rows_ = 0;
  std::vector<Column> columns_;
};

inline size_t RowRef::size() const { return chunk_->num_columns(); }
inline Value RowRef::operator[](size_t c) const {
  return chunk_->column(c).Get(slot_);
}

/// \brief Rows stored as a list of shared, immutable, column-oriented
/// chunks.
///
/// Every chunk but the last holds exactly 2^shift rows, so row id i is
/// chunk i >> shift, slot i & (2^shift - 1). A table's store is typed by
/// the table's column types, uses kChunkShift and grows by Append. Single
/// converts owned rows into the only chunk of a store, with a shift of 32
/// so that chunk may hold any number of rows a 32-bit id addresses: the
/// store of a local relation, or of rows a query gathered.
///
/// Ownership: stores share their chunks through shared_ptrs. The owner of
/// a store under construction appends to its last chunk only while no
/// other store holds that chunk; a full chunk, and every chunk of a
/// published store, is never written again.
class ChunkedRows {
 public:
  using Chunk = RowChunk;
  using ChunkPtr = std::shared_ptr<const Chunk>;

  ChunkedRows() = default;
  /// An empty table store whose columns have these types.
  explicit ChunkedRows(std::vector<DataType> column_types)
      : types_(std::move(column_types)) {}
  /// Copies would share the chunk under construction.
  ChunkedRows(const ChunkedRows&) = delete;
  ChunkedRows& operator=(const ChunkedRows&) = delete;

  /// A store whose only chunk holds `rows`, converted column by column. A
  /// column whose values all carry one BOOLEAN, BIGINT or DOUBLE type tag
  /// (NULLs included) becomes words; any other column stays boxed.
  /// \pre every row has the first row's arity.
  static std::shared_ptr<const ChunkedRows> Single(std::vector<Row> rows);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::vector<ChunkPtr>& chunks() const { return chunks_; }

  /// The row with id `id`.
  RowRef operator[](size_t id) const {
    return (*chunks_[id >> shift_])[id & mask_];
  }
  /// The chunk holding row `id`, and the row's slot in it: what a reader
  /// of the typed column arrays needs.
  const Chunk& chunk_of(size_t id) const { return *chunks_[id >> shift_]; }
  size_t slot_of(size_t id) const { return id & mask_; }
  RowRef front() const { return (*this)[0]; }

  /// Walks the rows in id order without copying them.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = RowRef;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = RowRef;

    const_iterator() = default;
    const_iterator(const ChunkedRows* rows, size_t id) : rows_(rows), id_(id) {}
    RowRef operator*() const { return (*rows_)[id_]; }
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
  /// is full or shared. A NULL takes its column's type. \pre a table store
  /// (not made by Single), and `row` has its arity and, outside NULLs, its
  /// column types.
  void Append(const Row& row);

  /// Announces that the store will grow to `n` rows: the chunk list is
  /// reserved, and every chunk started from now on is allocated once with
  /// room for its share of them.
  void Reserve(size_t n);

  /// Starts this empty store as the successor of `prev`: shares every full
  /// chunk of `prev`, copies the arrays of its partial tail chunk into a
  /// chunk of its own, and reserves room for `extra_rows` appends. Appends
  /// never write a chunk `prev` holds. \pre both are table stores of the
  /// same column types.
  void ShareFrom(const ChunkedRows& prev, size_t extra_rows);

 private:
  void StartChunk();

  std::vector<DataType> types_;  ///< a table store's column types
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
/// table snapshot's TablePtr, a local relation's is converted once when its
/// logical node is built — so the owner lives as long as any view does.
/// The owner never changes the rows while a view exists: registered tables
/// are immutable, and Catalog::InsertInto publishes a successor that
/// shares the full chunks.
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
  RowRef source(size_t k) const { return (*rows)[ids[k]]; }

  /// The source column behind view column `c`.
  size_t column(size_t c) const { return columns.empty() ? c : columns[c]; }

  /// Copies view row `k` out: its source row projected onto `columns`.
  Row Materialize(size_t k) const {
    const RowRef src = source(k);
    if (columns.empty()) return src.Materialize();
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
    const RowRef src = source(k);
    int64_t bytes = static_cast<int64_t>(sizeof(Row));
    const size_t width = columns.empty() ? src.size() : columns.size();
    for (size_t c = 0; c < width; ++c) {
      bytes += src[column(c)].EstimatedBytes();
    }
    return bytes;
  }
};

}  // namespace sparkline
