#include "types/row_view.h"

#include <algorithm>

#include "common/logging.h"

namespace sparkline {

namespace {

/// The word of a non-null BOOLEAN, BIGINT or DOUBLE value.
uint64_t WordOf(const Value& v) {
  switch (v.type().id()) {
    case TypeId::kBool:
      return v.bool_value() ? 1 : 0;
    case TypeId::kInt64:
      return static_cast<uint64_t>(v.int64_value());
    case TypeId::kDouble: {
      const double d = v.double_value();
      uint64_t word;
      std::memcpy(&word, &d, sizeof word);
      return word;
    }
    case TypeId::kString:
      break;
  }
  SL_DCHECK(false) << "a VARCHAR has no word";
  return 0;
}

}  // namespace

Row RowRef::Materialize() const {
  Row out;
  out.reserve(size());
  for (size_t c = 0; c < size(); ++c) out.push_back((*this)[c]);
  return out;
}

void RowChunk::Column::Append(Value v) {
  if (boxed) {
    values.push_back(std::move(v));
    return;
  }
  const size_t slot = words.size();
  if (v.is_null()) {
    if (nulls.size() <= slot >> 6) nulls.resize((slot >> 6) + 1, 0);
    nulls[slot >> 6] |= uint64_t{1} << (slot & 63);
    words.push_back(0);
    return;
  }
  SL_DCHECK(v.type() == type) << v.type().ToString() << " value in a "
                              << type.ToString() << " column";
  words.push_back(WordOf(v));
}

void RowChunk::Column::Reserve(size_t rows) {
  if (boxed) {
    values.reserve(rows);
  } else {
    words.reserve(rows);
  }
}

std::shared_ptr<const ChunkedRows> ChunkedRows::Single(std::vector<Row> rows) {
  auto store = std::make_shared<ChunkedRows>();
  store->size_ = rows.size();
  store->shift_ = 32;
  store->mask_ = 0xFFFFFFFFu;
  if (rows.empty()) return store;
  auto chunk = std::make_shared<Chunk>();
  chunk->rows_ = rows.size();
  // Two row-major passes, each reading a row's values together: one finds
  // the columns whose values share one type tag, one fills the arrays.
  const size_t width = rows.front().size();
  chunk->columns_.resize(width);
  std::vector<Chunk::Column>& columns = chunk->columns_;
  for (size_t c = 0; c < width; ++c) columns[c].type = rows.front()[c].type();
  std::vector<uint8_t> one_type(width, 1);
  for (const Row& row : rows) {
    SL_CHECK(row.size() == width);
    for (size_t c = 0; c < width; ++c) {
      one_type[c] &= static_cast<uint8_t>(row[c].type() == columns[c].type);
    }
  }
  for (size_t c = 0; c < width; ++c) {
    columns[c].boxed =
        one_type[c] == 0 || columns[c].type == DataType::String();
    columns[c].Reserve(rows.size());
  }
  for (Row& row : rows) {
    for (size_t c = 0; c < width; ++c) columns[c].Append(std::move(row[c]));
  }
  store->chunks_.push_back(std::move(chunk));
  return store;
}

ChunkedRows::operator std::vector<Row>() const {
  std::vector<Row> out;
  out.reserve(size_);
  for (const RowRef row : *this) out.push_back(row.Materialize());
  return out;
}

void ChunkedRows::StartChunk() {
  auto chunk = std::make_shared<Chunk>();
  const size_t capacity =
      reserved_ > size_ ? std::min(kChunkRows, reserved_ - size_) : 0;
  chunk->columns_.resize(types_.size());
  for (size_t c = 0; c < types_.size(); ++c) {
    Chunk::Column& column = chunk->columns_[c];
    column.type = types_[c];
    column.boxed = types_[c] == DataType::String();
    column.Reserve(capacity);
  }
  chunks_.push_back(chunk);
  tail_ = std::move(chunk);
}

void ChunkedRows::Append(const Row& row) {
  SL_DCHECK(shift_ == kChunkShift && row.size() == types_.size());
  if (tail_ == nullptr) StartChunk();
  for (size_t c = 0; c < types_.size(); ++c) {
    tail_->columns_[c].Append(row[c].is_null() ? Value::Null(types_[c])
                                               : row[c]);
  }
  ++tail_->rows_;
  ++size_;
  if (tail_->rows_ == kChunkRows) tail_.reset();  // full: never written again
}

void ChunkedRows::Reserve(size_t n) {
  reserved_ = std::max(reserved_, n);
  chunks_.reserve((reserved_ + kChunkRows - 1) >> kChunkShift);
}

void ChunkedRows::ShareFrom(const ChunkedRows& prev, size_t extra_rows) {
  SL_DCHECK(empty() && shift_ == kChunkShift && prev.shift_ == kChunkShift);
  SL_DCHECK(types_ == prev.types_);
  Reserve(prev.size_ + extra_rows);
  const size_t full = prev.size_ >> kChunkShift;
  chunks_.insert(chunks_.end(), prev.chunks_.begin(),
                 prev.chunks_.begin() + static_cast<std::ptrdiff_t>(full));
  size_ = full << kChunkShift;
  if (size_ < prev.size_) {
    StartChunk();
    const Chunk& tail = *prev.chunks_[full];
    for (size_t c = 0; c < types_.size(); ++c) {
      const Chunk::Column& from = tail.columns_[c];
      Chunk::Column& to = tail_->columns_[c];
      to.words.insert(to.words.end(), from.words.begin(), from.words.end());
      to.values.insert(to.values.end(), from.values.begin(),
                       from.values.end());
      to.nulls = from.nulls;
    }
    tail_->rows_ = tail.rows_;
    size_ = prev.size_;
  }
}

}  // namespace sparkline
