#include "types/row_view.h"

#include <algorithm>

#include "common/logging.h"

namespace sparkline {

std::shared_ptr<const ChunkedRows> ChunkedRows::Single(
    std::shared_ptr<const Chunk> rows) {
  auto store = std::make_shared<ChunkedRows>();
  store->size_ = rows->size();
  store->shift_ = 32;
  store->mask_ = 0xFFFFFFFFu;
  if (!rows->empty()) store->chunks_.push_back(std::move(rows));
  return store;
}

ChunkedRows::operator std::vector<Row>() const {
  std::vector<Row> out;
  out.reserve(size_);
  for (const ChunkPtr& chunk : chunks_) {
    out.insert(out.end(), chunk->begin(), chunk->end());
  }
  return out;
}

void ChunkedRows::StartChunk() {
  auto chunk = std::make_shared<Chunk>();
  if (reserved_ > size_) {
    chunk->reserve(std::min(kChunkRows, reserved_ - size_));
  }
  chunks_.push_back(chunk);
  tail_ = std::move(chunk);
}

void ChunkedRows::Append(Row row) {
  SL_DCHECK(shift_ == kChunkShift);
  if (tail_ == nullptr) StartChunk();
  tail_->push_back(std::move(row));
  ++size_;
  if (tail_->size() == kChunkRows) tail_.reset();  // full: never written again
}

void ChunkedRows::Reserve(size_t n) {
  reserved_ = std::max(reserved_, n);
  chunks_.reserve((reserved_ + kChunkRows - 1) >> kChunkShift);
}

void ChunkedRows::ShareFrom(const ChunkedRows& prev, size_t extra_rows) {
  SL_DCHECK(empty() && shift_ == kChunkShift && prev.shift_ == kChunkShift);
  Reserve(prev.size_ + extra_rows);
  const size_t full = prev.size_ >> kChunkShift;
  chunks_.insert(chunks_.end(), prev.chunks_.begin(),
                 prev.chunks_.begin() + static_cast<std::ptrdiff_t>(full));
  size_ = full << kChunkShift;
  if (size_ < prev.size_) {
    StartChunk();
    const Chunk& tail = *prev.chunks_[full];
    tail_->insert(tail_->end(), tail.begin(), tail.end());
    size_ = prev.size_;
  }
}

}  // namespace sparkline
