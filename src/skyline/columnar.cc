#include "skyline/columnar.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>

#if SPARKLINE_HAVE_AVX2_COMPARE
#include <immintrin.h>
#endif

#include "common/string_util.h"
#include "skyline/kernel_common.h"

namespace sparkline {
namespace skyline {

#if SPARKLINE_HAVE_AVX2_COMPARE
namespace simd {

__attribute__((target("avx2"))) Dominance CompareKeySpansCompleteAvx2(
    const double* left, const double* right, size_t d) {
  __m256d acc_l = _mm256_setzero_pd();
  __m256d acc_r = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256d l = _mm256_loadu_pd(left + i);
    const __m256d r = _mm256_loadu_pd(right + i);
    acc_l = _mm256_or_pd(acc_l, _mm256_cmp_pd(l, r, _CMP_LT_OQ));
    acc_r = _mm256_or_pd(acc_r, _mm256_cmp_pd(r, l, _CMP_LT_OQ));
  }
  bool left_better = _mm256_movemask_pd(acc_l) != 0;
  bool right_better = _mm256_movemask_pd(acc_r) != 0;
  for (; i < d; ++i) {
    left_better |= left[i] < right[i];
    right_better |= right[i] < left[i];
  }
  if (left_better) {
    return right_better ? Dominance::kIncomparable : Dominance::kLeftDominates;
  }
  return right_better ? Dominance::kRightDominates : Dominance::kEqual;
}

}  // namespace simd
#endif  // SPARKLINE_HAVE_AVX2_COMPARE

namespace {

using internal::BatchedCounter;
using internal::DeadlineChecker;

/// Largest BIGINT magnitude exactly representable as double; a dimension
/// holding a larger value is ranked instead of keyed directly.
constexpr int64_t kMaxExactInt = int64_t{1} << 53;

/// The direct key of a non-null value, or nullopt when the value has no
/// exact finite double image (NaN, ±inf, BIGINT beyond 2^53, VARCHAR).
/// Ranking ±inf keeps every key finite, so no Score sum adds +inf to -inf.
/// `numeric` is cleared for BOOLEAN, which keys exactly but is not a number
/// to SFS.
std::optional<double> DirectKey(const Value& v, bool* numeric) {
  switch (v.type().id()) {
    case TypeId::kBool:
      *numeric = false;
      return v.bool_value() ? 1.0 : 0.0;
    case TypeId::kInt64: {
      const int64_t i = v.int64_value();
      if (i > kMaxExactInt || i < -kMaxExactInt) return std::nullopt;
      return static_cast<double>(i);
    }
    case TypeId::kDouble:
      if (!std::isfinite(v.double_value())) return std::nullopt;
      return v.double_value();
    case TypeId::kString:
      break;
  }
  return std::nullopt;
}

Status CheckDims(const std::vector<BoundDimension>& dims) {
  if (dims.empty() || dims.size() > DominanceMatrix::kMaxDims) {
    return Status::Invalid(StrCat("a dominance matrix needs 1 to ",
                                  DominanceMatrix::kMaxDims,
                                  " dimensions, got ", dims.size()));
  }
  return Status::OK();
}

/// Bitmask of the DIFF dimensions.
uint32_t DiffMask(const std::vector<BoundDimension>& dims) {
  uint32_t mask = 0;
  for (size_t j = 0; j < dims.size(); ++j) {
    if (dims[j].goal == SkylineGoal::kDiff) mask |= 1u << j;
  }
  return mask;
}

/// What keying has learned about each dimension, one bit per dimension:
/// `direct` loses a dimension at its first value with no exact double image
/// (which Build then ranks, and which voids a streamed pass), `numeric`
/// loses DIFF dimensions and a dimension holding a non-null BOOLEAN.
struct KeyMasks {
  uint32_t all;  ///< every dimension
  uint32_t direct;
  uint32_t numeric;

  explicit KeyMasks(const std::vector<BoundDimension>& dims)
      : all(dims.size() == 32 ? ~0u : (1u << dims.size()) - 1),
        direct(all),
        numeric(all) {
    for (size_t j = 0; j < dims.size(); ++j) {
      if (dims[j].goal == SkylineGoal::kDiff) numeric &= ~(1u << j);
    }
  }
};

/// Where the keying routines write `rows` rows: row k's keys at
/// keys + k * d, MIN-normalized (MAX negated); its null bitmap in
/// (*nulls)[k]. `nulls` stays empty until the first NULL, then holds one
/// bitmap per row; a non-empty `nulls` must hold `rows` zeros. A NULL keys
/// as the placeholder 0.0.
struct KeyTarget {
  double* keys;
  size_t d;
  std::vector<uint32_t>* nulls;
  size_t rows;

  void SetNull(size_t k, size_t j) {
    if (nulls->empty()) nulls->assign(rows, 0);
    (*nulls)[k] |= 1u << j;
    keys[k * d + j] = 0.0;
  }
  /// Keys one non-null Value through DirectKey (the Value path).
  void SetValue(size_t k, size_t j, const Value& v, SkylineGoal goal,
                KeyMasks* masks) {
    bool is_number = true;
    const std::optional<double> key = DirectKey(v, &is_number);
    if (!is_number) masks->numeric &= ~(1u << j);
    if (!key.has_value()) {
      masks->direct &= ~(1u << j);
      return;
    }
    keys[k * d + j] = goal == SkylineGoal::kMax ? -*key : *key;
  }
};

/// Keys `target->rows` rows through their Values: row_at(k) is row k, read
/// at the ordinals of `dims`. The keying routine over rows the query owns
/// (DominanceMatrix::Build over Rows, and the streamed local stage).
template <typename RowAt>
void KeyValueRows(const RowAt& row_at, const std::vector<BoundDimension>& dims,
                  KeyTarget* target, KeyMasks* masks) {
  for (size_t k = 0; k < target->rows; ++k) {
    const Row& row = row_at(k);
    for (size_t j = 0; j < dims.size(); ++j) {
      const Value& v = row[dims[j].ordinal];
      if (v.is_null()) {
        target->SetNull(k, j);
      } else if ((masks->direct >> j & 1u) != 0) {
        target->SetValue(k, j, v, dims[j].goal, masks);
      }
    }
  }
}

/// Keys dimension `j` of rows [begin, end) of `ids`, which all live in one
/// chunk whose column is `column`. An unboxed column keys its words; a
/// boxed one (VARCHAR, or owned rows of mixed types) its Values.
void KeyColumnRun(const ChunkedRows& store, const RowChunk::Column& column,
                  const uint32_t* ids, size_t begin, size_t end, size_t j,
                  SkylineGoal goal, KeyTarget* target, KeyMasks* masks) {
  const uint32_t bit = 1u << j;
  if (column.boxed) {
    for (size_t k = begin; k < end; ++k) {
      const Value& v = column.values[store.slot_of(ids[k])];
      if (v.is_null()) {
        target->SetNull(k, j);
      } else if ((masks->direct & bit) != 0) {
        target->SetValue(k, j, v, goal, masks);
      }
    }
    return;
  }
  const double sign = goal == SkylineGoal::kMax ? -1.0 : 1.0;
  const uint64_t* words = column.words.data();
  const size_t d = target->d;
  // A non-null BOOLEAN keys exactly but is no number to SFS; a BIGINT
  // beyond 2^53 and a non-finite DOUBLE have no exact finite image.
  for (size_t k = begin; k < end; ++k) {
    const size_t slot = store.slot_of(ids[k]);
    if (column.IsNull(slot)) {
      target->SetNull(k, j);
      continue;
    }
    const uint64_t word = words[slot];
    double key = 0;
    switch (column.type.id()) {
      case TypeId::kBool:
        masks->numeric &= ~bit;
        key = word != 0 ? 1.0 : 0.0;
        break;
      case TypeId::kInt64: {
        const int64_t i = static_cast<int64_t>(word);
        if (i > kMaxExactInt || i < -kMaxExactInt) masks->direct &= ~bit;
        key = static_cast<double>(i);
        break;
      }
      case TypeId::kDouble:
        std::memcpy(&key, &word, sizeof key);
        if (!std::isfinite(key)) masks->direct &= ~bit;
        break;
      case TypeId::kString:
        break;
    }
    target->keys[k * d + j] = sign * key;
  }
}

/// Keys `target->rows` rows of `store` — row k is source row ids[k] — from
/// the chunks' typed words, one column at a time over each run of rows
/// sharing a chunk: the one keying routine over borrowed rows
/// (DominanceMatrix::Build over a RowView, and the streamed local stage).
/// `dims` hold source-column ordinals. A dimension that left
/// masks->direct may hold any key; Build ranks it.
void KeyChunkRows(const ChunkedRows* store, const uint32_t* ids,
                  const std::vector<BoundDimension>& dims, KeyTarget* target,
                  KeyMasks* masks) {
  for (size_t begin = 0; begin < target->rows;) {
    const RowChunk& chunk = store->chunk_of(ids[begin]);
    size_t end = begin + 1;
    while (end < target->rows && &store->chunk_of(ids[end]) == &chunk) ++end;
    for (size_t j = 0; j < dims.size(); ++j) {
      KeyColumnRun(*store, chunk.column(dims[j].ordinal), ids, begin, end, j,
                   dims[j].goal, target, masks);
    }
    begin = end;
  }
}

}  // namespace

Result<DominanceMatrix> DominanceMatrix::Build(
    const std::vector<Row>& rows, const std::vector<BoundDimension>& dims) {
  return BuildFrom(
      rows.size(),
      [&](KeyTarget* target, KeyMasks* masks) {
        KeyValueRows([&](size_t r) -> const Row& { return rows[r]; }, dims,
                     target, masks);
      },
      [&](size_t r) -> const Row& { return rows[r]; }, dims);
}

Result<DominanceMatrix> DominanceMatrix::Build(
    const RowView& rows, const std::vector<BoundDimension>& dims) {
  std::vector<BoundDimension> source_dims = dims;
  for (BoundDimension& dim : source_dims) {
    dim.ordinal = rows.column(dim.ordinal);
  }
  return BuildFrom(
      rows.size(),
      [&](KeyTarget* target, KeyMasks* masks) {
        KeyChunkRows(rows.rows.get(), rows.ids.data(), source_dims, target,
                     masks);
      },
      [&](size_t r) { return rows.source(r); }, source_dims);
}

template <typename KeyRows, typename RowAt>
Result<DominanceMatrix> DominanceMatrix::BuildFrom(
    size_t n, const KeyRows& key_rows, const RowAt& row_at,
    const std::vector<BoundDimension>& dims) {
  SL_RETURN_NOT_OK(CheckDims(dims));
  DominanceMatrix m;
  m.n_ = n;
  m.d_ = dims.size();
  m.keys_.resize(m.n_ * m.d_);
  m.dicts_.assign(m.d_, {});
  m.diff_mask_ = DiffMask(dims);

  // Every row keyed once; a dimension that left `direct` is ranked
  // afterwards.
  KeyMasks masks(dims);
  KeyTarget target{m.keys_.data(), m.d_, &m.nulls_, m.n_};
  key_rows(&target, &masks);
  for (size_t d = 0; d < m.d_; ++d) {
    if ((masks.direct >> d & 1u) != 0) continue;
    m.RankDimension(row_at, dims[d], d);
    masks.numeric &= ~(1u << d);
  }
  m.numeric_minmax_ = masks.numeric == masks.all;
  return m;
}

template <typename RowAt>
void DominanceMatrix::RankDimension(const RowAt& row_at,
                                    const BoundDimension& dim, size_t d) {
  ranked_mask_ |= (1u << d);
  // The non-null values, read once, and the matrix row of each; `order`
  // sorts positions into them.
  std::vector<Value> values;
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < n_; ++r) {
    Value v = row_at(r)[dim.ordinal];
    if (v.is_null()) continue;
    values.push_back(std::move(v));
    rows.push_back(r);
  }
  auto value = [&](uint32_t i) -> const Value& { return values[i]; };
  std::vector<uint32_t> order(values.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  // CompareValues is a total order within one type. A column mixing BIGINT
  // and DOUBLE compares across types as DOUBLE, which is not transitive
  // with exact BIGINT-BIGINT comparison beyond 2^53, so such a dimension
  // ranks every value by its DOUBLE image instead.
  bool mixed = false;
  for (const Value& v : values) mixed |= v.type() != values.front().type();
  auto compare = [&](const Value& a, const Value& b) {
    return mixed ? CompareDoubles(a.ToDouble(), b.ToDouble())
                 : CompareValues(a, b);
  };
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return compare(value(a), value(b)) < 0;
  });
  const double sign = dim.goal == SkylineGoal::kMax ? -1.0 : 1.0;
  std::vector<Value>& dict = dicts_[d];
  for (const uint32_t i : order) {
    if (dict.empty() || compare(dict.back(), value(i)) != 0) {
      dict.push_back(value(i));
    }
    keys_[rows[i] * d_ + d] = sign * static_cast<double>(dict.size() - 1);
  }
}

int64_t DominanceMatrix::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(DominanceMatrix));
  bytes += static_cast<int64_t>(keys_.capacity() * sizeof(double));
  bytes += static_cast<int64_t>(nulls_.capacity() * sizeof(uint32_t));
  for (const auto& dict : dicts_) {
    for (const Value& v : dict) bytes += v.EstimatedBytes();
  }
  return bytes;
}

DominanceMatrix DominanceMatrix::ConcatSelected(
    const std::vector<const DominanceMatrix*>& parts,
    const std::vector<const std::vector<uint32_t>*>& selections) {
  SL_DCHECK(!parts.empty() && parts.size() == selections.size());
  DominanceMatrix out;
  out.d_ = parts[0]->d_;
  out.diff_mask_ = parts[0]->diff_mask_;
  out.numeric_minmax_ = true;
  out.dicts_.assign(out.d_, {});

  size_t total = 0;
  bool any_null = false;
  for (size_t p = 0; p < parts.size(); ++p) {
    SL_DCHECK(parts[p]->d_ == out.d_ && parts[p]->diff_mask_ == out.diff_mask_);
    SL_DCHECK(parts[p]->ranked_mask_ == 0);
    total += selections[p]->size();
    any_null |= parts[p]->has_nulls();
    out.numeric_minmax_ &= parts[p]->numeric_minmax_;
  }
  out.n_ = total;
  out.keys_.resize(total * out.d_);
  if (any_null) out.nulls_.assign(total, 0);

  size_t cursor = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    const DominanceMatrix& part = *parts[p];
    for (const uint32_t r : *selections[p]) {
      std::copy_n(part.row_keys(r), out.d_,
                  out.keys_.begin() + cursor * out.d_);
      if (any_null) out.nulls_[cursor] = part.null_bitmap(r);
      ++cursor;
    }
  }
  return out;
}

std::vector<uint32_t> AllIndices(const DominanceMatrix& matrix) {
  std::vector<uint32_t> idx(matrix.num_rows());
  for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return idx;
}

// --- ColumnarBatch ----------------------------------------------------------

Result<ColumnarBatch> ColumnarBatch::Project(
    RowView rows, const std::vector<BoundDimension>& dims,
    MemoryTracker* memory) {
  return ProjectView(std::move(rows), /*borrowed=*/true, dims, memory);
}

Result<ColumnarBatch> ColumnarBatch::Project(
    std::vector<Row> rows, const std::vector<BoundDimension>& dims,
    MemoryTracker* memory) {
  return ProjectView(RowView::All(ChunkedRows::Single(std::move(rows))),
                     /*borrowed=*/false, dims, memory);
}

Result<ColumnarBatch> ColumnarBatch::ProjectView(
    RowView rows, bool borrowed, const std::vector<BoundDimension>& dims,
    MemoryTracker* memory) {
  SL_ASSIGN_OR_RETURN(DominanceMatrix matrix,
                      DominanceMatrix::Build(rows, dims));
  ColumnarBatch batch;
  batch.reservation_ =
      std::make_shared<const ScopedReservation>(memory, matrix.MemoryBytes());
  batch.matrix_ = std::make_shared<const DominanceMatrix>(std::move(matrix));
  batch.rows_ = std::move(rows);
  batch.borrowed_ = borrowed;
  batch.dims_ = dims;
  batch.indices_ = AllIndices(*batch.matrix_);
  return batch;
}

ColumnarBatch ColumnarBatch::Concat(std::vector<ColumnarBatch>* parts,
                                    MemoryTracker* memory, bool* reprojected) {
  SL_DCHECK(!parts->empty());
  // A single part is still compacted (not passed through): its backing may
  // hold the stage's full input while the view kept only survivors, and the
  // gather is where non-survivors should stop occupying memory — exactly
  // like the row pipeline, whose local stage materializes survivors only.
  std::vector<const DominanceMatrix*> matrices;
  std::vector<const std::vector<uint32_t>*> selections;
  size_t total = 0;
  bool all_parts = true;
  bool ranked = false;
  for (const ColumnarBatch& part : *parts) {
    matrices.push_back(part.matrix_.get());
    selections.push_back(&part.indices_);
    total += part.num_rows();
    all_parts &= !part.parts_.empty();
    ranked |= part.matrix_->ranked_mask() != 0;
  }
  std::optional<DominanceMatrix> merged;
  if (!ranked) merged = DominanceMatrix::ConcatSelected(matrices, selections);

  // Backing rows of the result = the selected rows in view order, so matrix
  // row order is the gathered input order. Parts borrowing from one source
  // through one column map gather their selected ids; any other gather
  // copies the selected rows out.
  const RowView& first = parts->front().rows_;
  bool one_source = true;
  for (const ColumnarBatch& part : *parts) {
    one_source &= part.borrowed_ && part.rows_.SameSource(first);
  }
  RowView backing;
  if (one_source) {
    backing = RowView{first.rows, {}, first.columns};
    backing.ids.reserve(total);
    for (const ColumnarBatch& part : *parts) {
      for (const uint32_t r : part.indices_) {
        backing.ids.push_back(part.rows_.ids[r]);
      }
    }
  } else {
    std::vector<Row> rows;
    rows.reserve(total);
    for (const ColumnarBatch& part : *parts) {
      for (const uint32_t r : part.indices_) {
        rows.push_back(part.rows_.Materialize(r));
      }
    }
    backing = RowView::All(ChunkedRows::Single(std::move(rows)));
  }

  if (ranked) {
    // Rank codes of different parts index different dictionaries: re-rank
    // the gathered rows in one matrix. Build cannot fail here — the parts
    // were built for the same dimensions.
    merged = DominanceMatrix::Build(backing, parts->front().dims_).MoveValue();
    if (reprojected != nullptr) *reprojected = true;
  }

  ColumnarBatch batch;
  batch.reservation_ =
      std::make_shared<const ScopedReservation>(memory, merged->MemoryBytes());
  batch.matrix_ = std::make_shared<const DominanceMatrix>(std::move(*merged));
  batch.rows_ = std::move(backing);
  batch.borrowed_ = one_source;
  batch.dims_ = parts->front().dims_;
  batch.indices_ = AllIndices(*batch.matrix_);
  if (all_parts && !ranked) {
    // The identity view keeps every part's rows contiguous, in view order:
    // the parts' offsets shift by the rows gathered before them.
    batch.parts_.push_back(0);
    uint32_t offset = 0;
    for (const ColumnarBatch& part : *parts) {
      for (size_t j = 1; j < part.parts_.size(); ++j) {
        batch.parts_.push_back(offset + part.parts_[j]);
      }
      offset += static_cast<uint32_t>(part.num_rows());
    }
  }
  return batch;
}

ColumnarBatch ColumnarBatch::WithSelection(std::vector<uint32_t> indices,
                                           bool skyline_part) const& {
  ColumnarBatch batch;
  batch.matrix_ = matrix_;
  batch.rows_ = rows_;
  batch.borrowed_ = borrowed_;
  batch.reservation_ = reservation_;
  batch.dims_ = dims_;
  batch.indices_ = std::move(indices);
  if (skyline_part) {
    batch.parts_ = {0, static_cast<uint32_t>(batch.indices_.size())};
  }
  return batch;
}

ColumnarBatch ColumnarBatch::WithSelection(std::vector<uint32_t> indices,
                                           bool skyline_part) && {
  indices_ = std::move(indices);
  parts_.clear();
  if (skyline_part) parts_ = {0, static_cast<uint32_t>(indices_.size())};
  return std::move(*this);
}

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define SL_NOINLINE __attribute__((noinline))
#else
#define SL_NOINLINE
#endif

/// What a BNL pass keeps: the window's row ids, packed keys and null
/// bitmaps, in window order.
struct BnlWindow {
  std::vector<uint32_t> ids;
  std::vector<double> keys;
  std::vector<uint32_t> nulls;
};

/// Block-Nested-Loop (Börzsönyi et al., adapted in paper section 5.6): the
/// engine's one BNL loop. `rows` hands out the input a block at a time:
/// Refill(window_bytes, &block) loads the next block (0 rows at the end),
/// told what the window holds so far, and keys(k), nulls(k) and id(k) read
/// row k of the block. ColumnarBlockNestedLoop reads a matrix view as one
/// block (MatrixRows); the streamed local stage keys its partition a block
/// at a time (KeyedBlocks).
///
/// The window, the counter and the deadline checker are locals of this
/// function and every Refill stays out of line: held in a class's members,
/// or with the refill inlined, the window scan measured 3-30% slower.
template <typename Rows>
Result<BnlWindow> BlockNestedLoop(Rows* rows, size_t d, uint32_t diff_mask,
                                  const SkylineOptions& options) {
  const bool incomplete = options.nulls == NullSemantics::kIncomplete;
  const bool branchless = !incomplete && diff_mask == 0;

  // The window is the structure every incoming tuple scans, so its keys are
  // kept in a dense local buffer (window_keys[i*d .. i*d+d)) — the scan
  // reads memory sequentially instead of hopping through the matrix by
  // survivor index.
  std::vector<uint32_t> window;
  std::vector<double> window_keys;
  std::vector<uint32_t> window_nulls;

  DeadlineChecker deadline(options);
  BatchedCounter tests(options);
  for (;;) {
    size_t block = 0;
    SL_RETURN_NOT_OK(rows->Refill(
        static_cast<int64_t>((window.capacity() + window_nulls.capacity()) *
                                 sizeof(uint32_t) +
                             window_keys.capacity() * sizeof(double)),
        &block));
    if (block == 0) break;
    for (size_t k = 0; k < block; ++k) {
      const double* keys = rows->keys(k);
      const uint32_t nulls = rows->nulls(k);
      bool eliminated = false;
      size_t i = 0;
      while (i < window.size()) {
        SL_RETURN_NOT_OK(deadline.Check());
        tests.Tick();
        const double* wkeys = window_keys.data() + i * d;
        const Dominance dom =
            branchless ? CompareKeySpansComplete(keys, wkeys, d)
                       : CompareKeySpans(keys, wkeys, d, diff_mask,
                                         incomplete ? (nulls | window_nulls[i])
                                                    : 0);
        if (dom == Dominance::kRightDominates ||
            (dom == Dominance::kEqual && options.distinct)) {
          // The newcomer is dominated (or a duplicate under DISTINCT); by
          // transitivity it cannot dominate anything else in the window.
          eliminated = true;
          break;
        }
        if (dom == Dominance::kLeftDominates) {
          // Swap-erase the dominated window tuple, keys included.
          window[i] = window.back();
          window.pop_back();
          window_nulls[i] = window_nulls.back();
          window_nulls.pop_back();
          std::copy_n(window_keys.end() - d, d, window_keys.begin() + i * d);
          window_keys.resize(window_keys.size() - d);
          continue;  // re-examine the swapped-in element at index i
        }
        ++i;
      }
      if (!eliminated) {
        window.push_back(rows->id(k));
        window_nulls.push_back(nulls);
        window_keys.insert(window_keys.end(), keys, keys + d);
      }
    }
  }
  return BnlWindow{std::move(window), std::move(window_keys),
                   std::move(window_nulls)};
}

/// A matrix view as BlockNestedLoop's input: one block of every row.
class MatrixRows {
 public:
  MatrixRows(const DominanceMatrix& matrix, const std::vector<uint32_t>& input)
      : matrix_(matrix), input_(input) {}

  SL_NOINLINE Status Refill(int64_t /*window_bytes*/, size_t* block) {
    *block = done_ ? 0 : input_.size();
    done_ = true;
    return Status::OK();
  }
  const double* keys(size_t k) const { return matrix_.row_keys(input_[k]); }
  uint32_t nulls(size_t k) const { return matrix_.null_bitmap(input_[k]); }
  uint32_t id(size_t k) const { return input_[k]; }

 private:
  const DominanceMatrix& matrix_;
  const std::vector<uint32_t>& input_;
  bool done_ = false;
};

}  // namespace

Result<std::vector<uint32_t>> ColumnarBlockNestedLoop(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options) {
  MatrixRows rows(matrix, input);
  SL_ASSIGN_OR_RETURN(
      BnlWindow window,
      BlockNestedLoop(&rows, matrix.num_dims(), matrix.diff_mask(), options));
  return std::move(window.ids);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The SFS tie-break: lexicographic order on packed keys. A dominator's
/// first differing key is smaller, so it sorts ahead of a victim whose sort
/// key it ties.
bool KeysLexLess(const double* a, const double* b, size_t d) {
  for (size_t i = 0; i < d; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

/// The SFS filter pass over input in SFS order: no later tuple can
/// dominate an earlier one, so the window only grows — an append-only dense
/// key buffer scanned sequentially per incoming tuple.
///
/// The pass maintains the SaLSa stop bound minC = min over window members
/// of MaxKey and terminates once every remaining tuple's MinKey exceeds it:
/// then every coordinate of every remaining tuple strictly exceeds minC, and
/// the bound's witness strictly dominates them all. The order ascends in a
/// rounded sum, which cannot bound a single coordinate exactly, so a suffix
/// minimum of MinKey decides. NULL bitmaps disable the stop (NULL key slots
/// hold placeholders, so coordinate bounds are meaningless).
Result<std::vector<uint32_t>> SfsFilterPass(const DominanceMatrix& matrix,
                                            const std::vector<uint32_t>& ordered,
                                            const SkylineOptions& options) {
  const size_t d = matrix.num_dims();
  const bool early_stop = !matrix.has_nulls();
  // remaining_min[pos] = the smallest MinKey over ordered[pos..].
  std::vector<double> remaining_min;
  if (early_stop) {
    remaining_min.assign(ordered.size(), kInf);
    double lo = kInf;
    for (size_t pos = ordered.size(); pos-- > 0;) {
      lo = std::min(lo, matrix.MinKey(ordered[pos]));
      remaining_min[pos] = lo;
    }
  }
  double min_c = kInf;

  std::vector<uint32_t> window;
  std::vector<double> window_keys;
  DeadlineChecker deadline(options);
  BatchedCounter tests(options);
  for (size_t pos = 0; pos < ordered.size(); ++pos) {
    const uint32_t tuple = ordered[pos];
    SL_RETURN_NOT_OK(deadline.Check());
    const double* keys = matrix.row_keys(tuple);
    if (early_stop) {
      // Stop point. Strict-only elimination never drops equal tuples, so
      // DISTINCT is unaffected.
      if (remaining_min[pos] > min_c) {
        if (options.early_stop != nullptr) {
          options.early_stop->rows_skipped.fetch_add(
              static_cast<int64_t>(ordered.size() - pos),
              std::memory_order_relaxed);
          options.early_stop->stops.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
    }
    bool eliminated = false;
    for (size_t i = 0; i < window.size(); ++i) {
      SL_RETURN_NOT_OK(deadline.Check());
      tests.Tick();
      // SFS runs only on complete numeric MIN/MAX inputs, so the
      // branchless compare applies unconditionally.
      const Dominance dom =
          CompareKeySpansComplete(window_keys.data() + i * d, keys, d);
      if (dom == Dominance::kLeftDominates ||
          (dom == Dominance::kEqual && options.distinct)) {
        eliminated = true;
        break;
      }
    }
    if (!eliminated) {
      window.push_back(tuple);
      window_keys.insert(window_keys.end(), keys, keys + d);
      if (early_stop) min_c = std::min(min_c, matrix.MaxKey(tuple));
    }
  }
  return window;
}

/// SortInSfsOrder over packed keys: row r's keys at keys + r * d.
void SortInSfsOrder(const double* keys, size_t d, std::vector<uint32_t>* rows) {
  struct Keyed {
    double score;
    uint32_t row;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(rows->size());
  for (const uint32_t r : *rows) {
    keyed.push_back({DominanceMatrix::ScoreOf(keys + r * d, d), r});
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&](const Keyed& a, const Keyed& b) {
                     if (a.score != b.score) return a.score < b.score;
                     return KeysLexLess(keys + a.row * d, keys + b.row * d, d);
                   });
  for (size_t k = 0; k < keyed.size(); ++k) (*rows)[k] = keyed[k].row;
}

}  // namespace

void SortInSfsOrder(const DominanceMatrix& matrix,
                    std::vector<uint32_t>* rows) {
  if (rows->empty()) return;
  SortInSfsOrder(matrix.row_keys(0), matrix.num_dims(), rows);
}

Result<std::vector<uint32_t>> ColumnarSortFilterSkyline(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options) {
  if (options.nulls != NullSemantics::kComplete ||
      !matrix.all_numeric_minmax()) {
    return ColumnarBlockNestedLoop(matrix, input, options);
  }
  std::vector<uint32_t> ordered = input;
  SortInSfsOrder(matrix, &ordered);
  return SfsFilterPass(matrix, ordered, options);
}

Result<std::vector<uint32_t>> ColumnarAllPairsIncomplete(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options) {
  const size_t n = input.size();
  std::vector<char> dominated(n, 0);
  DeadlineChecker deadline(options);
  BatchedCounter tests(options);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      // A dominated tuple may still dominate others (Appendix A); only pairs
      // where both are already flagged are irrelevant.
      if (dominated[i] && dominated[j]) continue;
      SL_RETURN_NOT_OK(deadline.Check());
      tests.Tick();
      const Dominance dom =
          matrix.Compare(input[i], input[j], options.nulls);
      switch (dom) {
        case Dominance::kLeftDominates:
          dominated[j] = 1;
          break;
        case Dominance::kRightDominates:
          dominated[i] = 1;
          break;
        case Dominance::kEqual:
          // Duplicates collapse under DISTINCT only within one null pattern;
          // "equal on common dimensions" across patterns is not equality.
          if (options.distinct &&
              matrix.null_bitmap(input[i]) == matrix.null_bitmap(input[j])) {
            dominated[j] = 1;
          }
          break;
        case Dominance::kIncomparable:
          break;
      }
    }
  }
  // Deferred deletion: only now drop the flagged tuples.
  std::vector<uint32_t> result;
  for (size_t i = 0; i < n; ++i) {
    if (!dominated[i]) result.push_back(input[i]);
  }
  return result;
}

Result<std::vector<uint32_t>> ColumnarValidateAgainstChunk(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& candidates,
    const std::vector<uint32_t>& peer, const SkylineOptions& options) {
  DeadlineChecker deadline(options);
  BatchedCounter tests(options);
  std::vector<uint32_t> survivors;
  survivors.reserve(candidates.size());
  for (const uint32_t c : candidates) {
    const uint32_t bitmap = matrix.null_bitmap(c);
    bool eliminated = false;
    // Early exit on the first witness is sound (peer rows are never
    // eliminated by this pass, so a witness is final).
    for (const uint32_t t : peer) {
      SL_RETURN_NOT_OK(deadline.Check());
      tests.Tick();
      const Dominance dom = matrix.Compare(t, c, options.nulls);
      if (dom == Dominance::kLeftDominates ||
          (dom == Dominance::kEqual && options.distinct && t < c &&
           matrix.null_bitmap(t) == bitmap)) {
        eliminated = true;
        break;
      }
    }
    if (!eliminated) survivors.push_back(c);
  }
  return survivors;
}

std::vector<double> PackKeys(const DominanceMatrix& matrix,
                             const std::vector<uint32_t>& rows) {
  const size_t d = matrix.num_dims();
  std::vector<double> keys(rows.size() * d);
  for (size_t k = 0; k < rows.size(); ++k) {
    std::copy_n(matrix.row_keys(rows[k]), d, keys.begin() + k * d);
  }
  return keys;
}

Result<std::vector<uint32_t>> ColumnarValidateAgainstPeers(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& candidates,
    const std::vector<PeerKeys>& peers, const SkylineOptions& options) {
  SL_DCHECK(options.nulls == NullSemantics::kComplete);
  const size_t d = matrix.num_dims();
  const uint32_t diff_mask = matrix.diff_mask();
  DeadlineChecker deadline(options);
  BatchedCounter tests(options);
  std::vector<uint32_t> survivors;
  survivors.reserve(candidates.size());
  for (const uint32_t c : candidates) {
    const double* keys = matrix.row_keys(c);
    const double score = DominanceMatrix::ScoreOf(keys, d);
    bool eliminated = false;
    for (const PeerKeys& peer : peers) {
      // Only a prefix of the peer can eliminate c: the rows ahead of it in
      // SFS order, and, when an earlier peer's ties count under
      // DISTINCT, the rows identical to it. Binary-search its end.
      const bool ties = options.distinct && peer.earlier;
      size_t end = 0;
      for (size_t hi = peer.size; end < hi;) {
        const size_t mid = end + (hi - end) / 2;
        const double* pkeys = peer.keys + mid * d;
        const double pscore = DominanceMatrix::ScoreOf(pkeys, d);
        const bool ahead =
            pscore < score ||
            (pscore == score && (ties ? !KeysLexLess(keys, pkeys, d)
                                      : KeysLexLess(pkeys, keys, d)));
        if (ahead) {
          end = mid + 1;
        } else {
          hi = mid;
        }
      }
      for (size_t k = 0; k < end; ++k) {
        SL_RETURN_NOT_OK(deadline.Check());
        tests.Tick();
        const double* pkeys = peer.keys + k * d;
        const Dominance dom =
            diff_mask == 0
                ? CompareKeySpansComplete(pkeys, keys, d)
                : CompareKeySpans(pkeys, keys, d, diff_mask, /*skip=*/0);
        if (dom == Dominance::kLeftDominates ||
            (dom == Dominance::kEqual && ties)) {
          eliminated = true;
          break;
        }
      }
      if (eliminated) break;
    }
    if (!eliminated) survivors.push_back(c);
  }
  return survivors;
}

std::vector<std::vector<uint32_t>> PartitionIndicesByNullBitmap(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input) {
  std::map<uint32_t, std::vector<uint32_t>> groups;
  for (const uint32_t r : input) {
    groups[matrix.null_bitmap(r)].push_back(r);
  }
  std::vector<std::vector<uint32_t>> out;
  out.reserve(groups.size());
  for (auto& [bitmap, rows] : groups) out.push_back(std::move(rows));
  return out;
}

std::vector<Row> MaterializeRows(const std::vector<Row>& input,
                                 const std::vector<uint32_t>& indices) {
  std::vector<Row> out;
  out.reserve(indices.size());
  for (const uint32_t i : indices) out.push_back(input[i]);
  return out;
}

Result<std::vector<uint32_t>> RunColumnarKernel(
    SkylineKernel kernel, const DominanceMatrix& matrix,
    const std::vector<uint32_t>& input, const SkylineOptions& options) {
  if (options.nulls == NullSemantics::kComplete) {
    return kernel == SkylineKernel::kSortFilterSkyline
               ? ColumnarSortFilterSkyline(matrix, input, options)
               : ColumnarBlockNestedLoop(matrix, input, options);
  }
  // Incomplete semantics: one BNL per bitmap-uniform group over the shared
  // matrix (no per-group re-projection). Every row of a group holds the
  // 0.0 placeholder in the same NULL slots, so complete dominance over all
  // slots is incomplete dominance within the group: the branchless compare
  // applies, with the same survivors and test counts.
  SkylineOptions group_options = options;
  group_options.nulls = NullSemantics::kComplete;
  std::vector<uint32_t> survivors;
  for (const auto& group : PartitionIndicesByNullBitmap(matrix, input)) {
    SL_ASSIGN_OR_RETURN(std::vector<uint32_t> local,
                        ColumnarBlockNestedLoop(matrix, group, group_options));
    survivors.insert(survivors.end(), local.begin(), local.end());
  }
  return survivors;
}

// --- the streamed local stage -----------------------------------------------

namespace {

template <typename T>
int64_t CapacityBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

/// A partition keyed kKeyBlockRows rows at a time into one reused buffer:
/// the streamed BlockNestedLoop's input. A pass reads the partition's
/// positions [0, n) in order, or a list of them (one null-bitmap group);
/// id(k) is block row k's position. `Keyer::Key(positions, target, masks,
/// scratch)` keys the rows at those positions (and Keyer::NullBitmap reads
/// one row's null bitmap without keying it). A block holding a value with
/// no exact double image ends the pass and voids the stream (ranked()).
///
/// Each Refill charges the block, the window and what the caller holds to
/// `memory` through TryGrow, so a memory limit stops a growing window; the
/// destructor returns the charge.
template <typename Keyer>
class KeyedBlocks {
 public:
  KeyedBlocks(const Keyer& keyer, const std::vector<BoundDimension>& dims,
              MemoryTracker* memory, double* keying_ms)
      : keyer_(keyer),
        d_(dims.size()),
        masks_(dims),
        memory_(memory),
        keying_ms_(keying_ms) {}
  ~KeyedBlocks() {
    if (memory_ != nullptr) memory_->Shrink(charged_);
  }
  KeyedBlocks(const KeyedBlocks&) = delete;
  KeyedBlocks& operator=(const KeyedBlocks&) = delete;

  /// Starts a pass over positions [0, n), or over `*positions` if non-null.
  /// `held_bytes`, what the caller holds besides the window, is charged
  /// with the block.
  void Start(size_t n, const std::vector<uint32_t>* positions,
             int64_t held_bytes) {
    positions_ = positions;
    n_ = positions != nullptr ? positions->size() : n;
    next_ = 0;
    held_bytes_ = held_bytes;
  }

  SL_NOINLINE Status Refill(int64_t window_bytes, size_t* block) {
    *block = ranked() ? 0 : std::min(kKeyBlockRows, n_ - next_);
    if (*block > 0) {
      StopWatch keying;
      const size_t count = *block;
      ids_.resize(count);
      for (size_t k = 0; k < count; ++k) {
        ids_[k] = positions_ != nullptr ? (*positions_)[next_ + k]
                                        : static_cast<uint32_t>(next_ + k);
      }
      keys_.resize(count * d_);
      if (!nulls_.empty()) nulls_.assign(count, 0);
      KeyTarget target{keys_.data(), d_, &nulls_, count};
      keyer_.Key(ids_.data(), &target, &masks_, &scratch_);
      next_ += count;
      *keying_ms_ += keying.ElapsedMillis();
      if (ranked()) *block = 0;
    }
    return Charge(window_bytes + held_bytes_ + CapacityBytes(keys_) +
                  CapacityBytes(nulls_) + CapacityBytes(ids_) +
                  CapacityBytes(scratch_));
  }
  const double* keys(size_t k) const { return keys_.data() + k * d_; }
  uint32_t nulls(size_t k) const { return nulls_.empty() ? 0 : nulls_[k]; }
  uint32_t id(size_t k) const { return ids_[k]; }

  /// A value had no exact double image: the stream is void.
  bool ranked() const { return masks_.direct != masks_.all; }
  /// Some row keyed so far held a NULL.
  bool saw_null() const { return !nulls_.empty(); }
  /// Every dimension is a numeric MIN/MAX (DominanceMatrix's
  /// all_numeric_minmax()) over the rows keyed so far.
  bool numeric() const { return masks_.numeric == masks_.all; }

 private:
  Status Charge(int64_t bytes) {
    if (memory_ == nullptr || bytes == charged_) return Status::OK();
    if (bytes < charged_) {
      memory_->Shrink(charged_ - bytes);
    } else if (!memory_->TryGrow(bytes - charged_)) {
      return Status::ResourceExhausted(StrCat(
          "a local skyline window and key block of ", bytes,
          " bytes do not fit the memory limit (", memory_->current_bytes(),
          " of ", memory_->limit_bytes(), " bytes in use)"));
    }
    charged_ = bytes;
    return Status::OK();
  }

  const Keyer& keyer_;
  const size_t d_;
  KeyMasks masks_;
  MemoryTracker* memory_;
  int64_t charged_ = 0;
  double* keying_ms_;
  const std::vector<uint32_t>* positions_ = nullptr;
  size_t n_ = 0;
  size_t next_ = 0;
  int64_t held_bytes_ = 0;
  std::vector<double> keys_;
  std::vector<uint32_t> nulls_;  ///< empty until the first NULL
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> scratch_;  ///< the keyer's
};

/// Keys borrowed rows from their chunks' typed words (KeyChunkRows).
struct ViewKeyer {
  const RowView& rows;
  std::vector<BoundDimension> dims;  ///< in source-column ordinals

  void Key(const uint32_t* positions, KeyTarget* target, KeyMasks* masks,
           std::vector<uint32_t>* source_ids) const {
    source_ids->resize(target->rows);
    for (size_t k = 0; k < target->rows; ++k) {
      (*source_ids)[k] = rows.ids[positions[k]];
    }
    KeyChunkRows(rows.rows.get(), source_ids->data(), dims, target, masks);
  }
  /// The null bitmap of the row at `position`, from its NULL flags alone.
  uint32_t NullBitmap(size_t position) const {
    const size_t id = rows.ids[position];
    const RowChunk& chunk = rows.rows->chunk_of(id);
    const size_t slot = rows.rows->slot_of(id);
    uint32_t bitmap = 0;
    for (size_t j = 0; j < dims.size(); ++j) {
      const RowChunk::Column& column = chunk.column(dims[j].ordinal);
      if (column.boxed ? column.values[slot].is_null() : column.IsNull(slot)) {
        bitmap |= 1u << j;
      }
    }
    return bitmap;
  }
};

/// Keys rows the query owns through their Values (KeyValueRows).
struct RowKeyer {
  const std::vector<Row>& rows;
  const std::vector<BoundDimension>& dims;

  void Key(const uint32_t* positions, KeyTarget* target, KeyMasks* masks,
           std::vector<uint32_t>* /*scratch*/) const {
    KeyValueRows([&](size_t k) -> const Row& { return rows[positions[k]]; },
                 dims, target, masks);
  }
  uint32_t NullBitmap(size_t position) const {
    uint32_t bitmap = 0;
    for (size_t j = 0; j < dims.size(); ++j) {
      if (rows[position][dims[j].ordinal].is_null()) bitmap |= 1u << j;
    }
    return bitmap;
  }
};

/// A streamed local skyline: the survivors' partition positions in output
/// order, with their packed keys and null bitmaps (empty when the partition
/// held no NULL) in the same order.
struct StreamedWindow {
  std::vector<uint32_t> positions;
  std::vector<double> keys;
  std::vector<uint32_t> nulls;
  bool numeric = false;
};

/// The stream of ColumnarBatch::LocalSkyline over `n` rows, or nullopt when
/// a value with no exact double image voids it. Its dominance tests reach
/// options.counter only when the stream completes. Under incomplete
/// semantics the partition's positions are first grouped by null bitmap,
/// read from the NULL flags alone (ascending bitmap, input order within a
/// group, as RunColumnarKernel groups a matrix), and each group streams
/// through its own window.
template <typename Keyer>
Result<std::optional<StreamedWindow>> StreamLocalSkyline(
    const Keyer& keyer, size_t n, const std::vector<BoundDimension>& dims,
    const SkylineOptions& options, double* keying_ms) {
  const size_t d = dims.size();
  const uint32_t diff_mask = DiffMask(dims);
  DominanceCounter tests;
  SkylineOptions pass = options;
  pass.counter = &tests;
  // Within a bitmap group, complete dominance over every key slot is
  // incomplete dominance (the NULL placeholder invariant).
  pass.nulls = NullSemantics::kComplete;
  KeyedBlocks<Keyer> blocks(keyer, dims, options.memory, keying_ms);
  StreamedWindow out;
  int64_t grouped_bytes = 0;
  // Streams `positions` (every row when null) and appends the window in
  // SFS order, ties in window order.
  auto stream = [&](const std::vector<uint32_t>* positions) -> Status {
    blocks.Start(n, positions,
                 grouped_bytes + CapacityBytes(out.positions) +
                     CapacityBytes(out.keys) + CapacityBytes(out.nulls));
    SL_ASSIGN_OR_RETURN(BnlWindow window,
                        BlockNestedLoop(&blocks, d, diff_mask, pass));
    std::vector<uint32_t> order(window.ids.size());
    for (uint32_t w = 0; w < order.size(); ++w) order[w] = w;
    SortInSfsOrder(window.keys.data(), d, &order);
    out.positions.reserve(out.positions.size() + order.size());
    out.keys.reserve(out.keys.size() + order.size() * d);
    out.nulls.reserve(out.nulls.size() + order.size());
    for (const uint32_t w : order) {
      out.positions.push_back(window.ids[w]);
      out.keys.insert(out.keys.end(), window.keys.begin() + w * d,
                      window.keys.begin() + (w + 1) * d);
      out.nulls.push_back(window.nulls[w]);
    }
    return Status::OK();
  };
  if (options.nulls == NullSemantics::kComplete) {
    SL_RETURN_NOT_OK(stream(nullptr));
  } else {
    // Runs of rows sharing a bitmap skip the map lookup.
    std::map<uint32_t, std::vector<uint32_t>> groups;
    std::vector<uint32_t>* group = nullptr;
    uint32_t bitmap = 0;
    for (uint32_t p = 0; p < n; ++p) {
      const uint32_t b = keyer.NullBitmap(p);
      if (group == nullptr || b != bitmap) {
        group = &groups[b];
        bitmap = b;
      }
      group->push_back(p);
    }
    grouped_bytes = static_cast<int64_t>(n * sizeof(uint32_t));
    for (const auto& entry : groups) {
      if (blocks.ranked()) break;
      SL_RETURN_NOT_OK(stream(&entry.second));
    }
  }
  if (blocks.ranked()) return std::optional<StreamedWindow>();
  if (!blocks.saw_null()) out.nulls = {};
  out.numeric = blocks.numeric();
  if (options.counter != nullptr) {
    options.counter->tests.fetch_add(tests.tests.load(),
                                     std::memory_order_relaxed);
  }
  return std::optional<StreamedWindow>(std::move(out));
}

}  // namespace

Result<ColumnarBatch> ColumnarBatch::LocalSkyline(
    RowView rows, SkylineKernel kernel,
    const std::vector<BoundDimension>& dims, const SkylineOptions& options,
    double* keying_ms) {
  SL_RETURN_NOT_OK(CheckDims(dims));
  std::optional<StreamedWindow> window;
  if (kernel != SkylineKernel::kSortFilterSkyline ||
      options.nulls != NullSemantics::kComplete) {
    ViewKeyer keyer{rows, dims};
    for (BoundDimension& dim : keyer.dims) {
      dim.ordinal = rows.column(dim.ordinal);
    }
    SL_ASSIGN_OR_RETURN(window, StreamLocalSkyline(keyer, rows.size(), dims,
                                                   options, keying_ms));
  }
  if (!window.has_value()) {
    return MatrixSkyline(std::move(rows), /*borrowed=*/true, kernel, dims,
                         options, keying_ms);
  }
  RowView backing{rows.rows, {}, rows.columns};
  backing.ids.reserve(window->positions.size());
  for (const uint32_t p : window->positions) backing.ids.push_back(rows.ids[p]);
  return FromWindow(std::move(backing), /*borrowed=*/true, dims,
                    std::move(window->keys), std::move(window->nulls),
                    window->numeric, options.memory);
}

Result<ColumnarBatch> ColumnarBatch::LocalSkyline(
    std::vector<Row>* rows, SkylineKernel kernel,
    const std::vector<BoundDimension>& dims, const SkylineOptions& options,
    double* keying_ms) {
  SL_RETURN_NOT_OK(CheckDims(dims));
  std::optional<StreamedWindow> window;
  if (kernel != SkylineKernel::kSortFilterSkyline ||
      options.nulls != NullSemantics::kComplete) {
    SL_ASSIGN_OR_RETURN(window,
                        StreamLocalSkyline(RowKeyer{*rows, dims}, rows->size(),
                                           dims, options, keying_ms));
  }
  if (!window.has_value()) {
    return MatrixSkyline(RowView::All(ChunkedRows::Single(std::move(*rows))),
                         /*borrowed=*/false, kernel, dims, options,
                         keying_ms);
  }
  std::vector<Row> survivors;
  survivors.reserve(window->positions.size());
  for (const uint32_t p : window->positions) {
    survivors.push_back(std::move((*rows)[p]));
  }
  return FromWindow(RowView::All(ChunkedRows::Single(std::move(survivors))),
                    /*borrowed=*/false, dims, std::move(window->keys),
                    std::move(window->nulls), window->numeric,
                    options.memory);
}

Result<ColumnarBatch> ColumnarBatch::MatrixSkyline(
    RowView rows, bool borrowed, SkylineKernel kernel,
    const std::vector<BoundDimension>& dims, const SkylineOptions& options,
    double* keying_ms) {
  StopWatch build;
  SL_ASSIGN_OR_RETURN(
      ColumnarBatch batch,
      ProjectView(std::move(rows), borrowed, dims, options.memory));
  *keying_ms += build.ElapsedMillis();
  SL_ASSIGN_OR_RETURN(
      std::vector<uint32_t> survivors,
      RunColumnarKernel(kernel, batch.matrix(), batch.indices(), options));
  // A complete skyline, whichever kernel found it, is an antichain: left
  // in SFS order, it is a skyline part the global [merge] validates in
  // place. An incomplete skyline is one antichain per null-bitmap group:
  // each group, in SFS order and in ascending bitmap order, is read in
  // place by the global [reduce].
  if (options.nulls == NullSemantics::kComplete) {
    SortInSfsOrder(batch.matrix(), &survivors);
  } else {
    std::vector<uint32_t> grouped;
    grouped.reserve(survivors.size());
    for (std::vector<uint32_t>& group :
         PartitionIndicesByNullBitmap(batch.matrix(), survivors)) {
      SortInSfsOrder(batch.matrix(), &group);
      grouped.insert(grouped.end(), group.begin(), group.end());
    }
    survivors = std::move(grouped);
  }
  return std::move(batch).WithSelection(std::move(survivors),
                                        /*skyline_part=*/true);
}

ColumnarBatch ColumnarBatch::FromWindow(RowView backing, bool borrowed,
                                        const std::vector<BoundDimension>& dims,
                                        std::vector<double> keys,
                                        std::vector<uint32_t> nulls,
                                        bool numeric, MemoryTracker* memory) {
  DominanceMatrix matrix;
  matrix.n_ = backing.size();
  matrix.d_ = dims.size();
  matrix.keys_ = std::move(keys);
  matrix.nulls_ = std::move(nulls);
  matrix.diff_mask_ = DiffMask(dims);
  matrix.numeric_minmax_ = numeric;
  matrix.dicts_.assign(matrix.d_, {});
  ColumnarBatch batch;
  batch.reservation_ =
      std::make_shared<const ScopedReservation>(memory, matrix.MemoryBytes());
  batch.matrix_ = std::make_shared<const DominanceMatrix>(std::move(matrix));
  batch.rows_ = std::move(backing);
  batch.borrowed_ = borrowed;
  batch.dims_ = dims;
  batch.indices_ = AllIndices(*batch.matrix_);
  batch.parts_ = {0, static_cast<uint32_t>(batch.indices_.size())};
  return batch;
}

Result<std::vector<Row>> ColumnarSkyline(SkylineKernel kernel,
                                         const std::vector<Row>& input,
                                         const std::vector<BoundDimension>& dims,
                                         const SkylineOptions& options) {
  SL_ASSIGN_OR_RETURN(DominanceMatrix matrix,
                      DominanceMatrix::Build(input, dims));
  ScopedReservation reservation(options.memory, matrix.MemoryBytes());
  SL_ASSIGN_OR_RETURN(
      std::vector<uint32_t> survivors,
      RunColumnarKernel(kernel, matrix, AllIndices(matrix), options));
  return MaterializeRows(input, survivors);
}

Result<DeltaClassification> DeltaClassify(const std::vector<Row>& skyline,
                                          const std::vector<Row>& batch,
                                          const std::vector<BoundDimension>& dims,
                                          const SkylineOptions& options) {
  if (options.nulls != NullSemantics::kComplete) {
    return Status::Invalid(
        "DeltaClassify requires complete dominance semantics (incomplete "
        "dominance is non-transitive, so the cached skyline is not a "
        "sufficient witness set)");
  }
  DeltaClassification out;
  const size_t n = skyline.size();
  const size_t m = batch.size();
  if (m == 0) return out;

  // One combined projection — skyline rows first, batch rows after — so
  // both sides share one key space (rank codes are only comparable within a
  // single matrix).
  std::vector<Row> combined;
  combined.reserve(n + m);
  combined.insert(combined.end(), skyline.begin(), skyline.end());
  combined.insert(combined.end(), batch.begin(), batch.end());
  SL_ASSIGN_OR_RETURN(DominanceMatrix matrix,
                      DominanceMatrix::Build(combined, dims));
  if (matrix.has_nulls()) {
    out.needs_fallback = true;
    return out;
  }
  ScopedReservation reservation(options.memory, matrix.MemoryBytes());

  const auto compare = [&](size_t a, size_t b) {
    internal::CountTest(options);
    return matrix.Compare(static_cast<uint32_t>(a), static_cast<uint32_t>(b),
                          NullSemantics::kComplete);
  };

  // Maintenance runs on the catalog notifier thread, but the classify is
  // still O(|skyline| * |batch|): poll the deadline/cancel state like every
  // other kernel loop so an oversized classify cannot wedge the notifier.
  DeadlineChecker deadline(options);

  // Phase A: a batch tuple survives iff no cached skyline point dominates
  // it (sufficient by transitivity, see header). DISTINCT dim-equality with
  // a cached point cannot be replayed exactly -> conservative fallback.
  std::vector<uint32_t> candidates;
  for (size_t j = 0; j < m; ++j) {
    const size_t bj = n + j;
    bool dominated = false;
    for (size_t i = 0; i < n && !dominated; ++i) {
      SL_RETURN_NOT_OK(deadline.Check());
      switch (compare(i, bj)) {
        case Dominance::kLeftDominates:
          dominated = true;
          break;
        case Dominance::kEqual:
          if (options.distinct) {
            out.needs_fallback = true;
            return out;
          }
          break;
        default:
          break;
      }
    }
    if (!dominated) candidates.push_back(static_cast<uint32_t>(j));
  }

  // Phase B: reduce the survivors to their own skyline — a tuple dominated
  // only by another *new* tuple must not enter either. Pairwise elimination
  // is exact under transitive dominance: every dominated candidate has an
  // undominated (hence never-eliminated) dominator that removes it.
  std::vector<char> dead(candidates.size(), 0);
  for (size_t a = 0; a < candidates.size(); ++a) {
    if (dead[a]) continue;
    for (size_t b = a + 1; b < candidates.size() && !dead[a]; ++b) {
      if (dead[b]) continue;
      SL_RETURN_NOT_OK(deadline.Check());
      switch (compare(n + candidates[a], n + candidates[b])) {
        case Dominance::kLeftDominates:
          dead[b] = 1;
          break;
        case Dominance::kRightDominates:
          dead[a] = 1;
          break;
        case Dominance::kEqual:
          if (options.distinct) {
            out.needs_fallback = true;
            return out;
          }
          break;
        default:
          break;
      }
    }
    if (!dead[a]) out.entering.push_back(candidates[a]);
  }

  // Phase C: cached points dominated by an entering tuple are evicted.
  // kEqual never evicts: without DISTINCT equal tuples coexist, and
  // DISTINCT equality already fell back above.
  if (!out.entering.empty()) {
    for (size_t i = 0; i < n; ++i) {
      SL_RETURN_NOT_OK(deadline.Check());
      for (uint32_t j : out.entering) {
        if (compare(n + j, i) == Dominance::kLeftDominates) {
          out.evicted.push_back(static_cast<uint32_t>(i));
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace skyline
}  // namespace sparkline
