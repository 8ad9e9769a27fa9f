#include "skyline/columnar.h"

#include <algorithm>
#include <cmath>
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

}  // namespace

Result<DominanceMatrix> DominanceMatrix::Build(
    const std::vector<Row>& rows, const std::vector<BoundDimension>& dims) {
  return BuildFrom(
      rows.size(), [&](size_t r) -> const Row& { return rows[r]; }, dims);
}

Result<DominanceMatrix> DominanceMatrix::Build(
    const RowView& rows, const std::vector<BoundDimension>& dims) {
  std::vector<BoundDimension> source_dims = dims;
  for (BoundDimension& dim : source_dims) {
    dim.ordinal = rows.column(dim.ordinal);
  }
  return BuildFrom(
      rows.size(), [&](size_t r) { return rows.source(r); }, source_dims);
}

template <typename RowAt>
Result<DominanceMatrix> DominanceMatrix::BuildFrom(
    size_t n, const RowAt& row_at, const std::vector<BoundDimension>& dims) {
  if (dims.empty() || dims.size() > kMaxDims) {
    return Status::Invalid(StrCat("a dominance matrix needs 1 to ", kMaxDims,
                                  " dimensions, got ", dims.size()));
  }
  DominanceMatrix m;
  m.n_ = n;
  m.d_ = dims.size();
  m.keys_.assign(m.n_ * m.d_, 0.0);
  m.dicts_.assign(m.d_, {});

  // One row-major pass keys every dimension of a row while the row is at
  // hand. A dimension leaves `direct` at its first value without an exact
  // double image and is ranked afterwards; `numeric` tracks the numeric
  // MIN/MAX dimensions.
  const uint32_t all = m.d_ == 32 ? ~0u : (1u << m.d_) - 1;
  uint32_t direct = all;
  uint32_t numeric = all;
  std::vector<double> sign(m.d_, 1.0);
  for (size_t d = 0; d < m.d_; ++d) {
    if (dims[d].goal == SkylineGoal::kDiff) {
      m.diff_mask_ |= 1u << d;
      numeric &= ~(1u << d);
    } else if (dims[d].goal == SkylineGoal::kMax) {
      sign[d] = -1.0;
    }
  }
  for (size_t r = 0; r < m.n_; ++r) {
    const auto& row = row_at(r);
    double* keys = m.keys_.data() + r * m.d_;
    for (size_t d = 0; d < m.d_; ++d) {
      const Value& v = row[dims[d].ordinal];
      if (v.is_null()) {
        if (m.nulls_.empty()) m.nulls_.assign(m.n_, 0);
        m.nulls_[r] |= 1u << d;
        continue;
      }
      if ((direct >> d & 1u) == 0) continue;
      bool is_number = true;
      const std::optional<double> key = DirectKey(v, &is_number);
      if (!is_number) numeric &= ~(1u << d);
      if (key.has_value()) {
        keys[d] = sign[d] * *key;
      } else {
        direct &= ~(1u << d);
      }
    }
  }
  for (size_t d = 0; d < m.d_; ++d) {
    if ((direct >> d & 1u) != 0) continue;
    m.RankDimension(row_at, dims[d], d);
    numeric &= ~(1u << d);
  }
  m.numeric_minmax_ = numeric == all;
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
                                           bool skyline_part) const {
  ColumnarBatch batch = *this;
  batch.indices_ = std::move(indices);
  batch.parts_.clear();
  if (skyline_part) {
    batch.parts_ = {0, static_cast<uint32_t>(batch.indices_.size())};
  }
  return batch;
}

Result<std::vector<uint32_t>> ColumnarBlockNestedLoop(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options) {
  const size_t d = matrix.num_dims();
  const uint32_t diff_mask = matrix.diff_mask();
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
  for (const uint32_t tuple : input) {
    const double* keys = matrix.row_keys(tuple);
    const uint32_t nulls = matrix.null_bitmap(tuple);
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
      window.push_back(tuple);
      window_nulls.push_back(nulls);
      window_keys.insert(window_keys.end(), keys, keys + d);
    }
  }
  return window;
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

}  // namespace

void SortInSfsOrder(const DominanceMatrix& matrix,
                    std::vector<uint32_t>* rows) {
  struct Keyed {
    double score;
    uint32_t row;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(rows->size());
  for (const uint32_t r : *rows) keyed.push_back({matrix.Score(r), r});
  const size_t d = matrix.num_dims();
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&](const Keyed& a, const Keyed& b) {
                     if (a.score != b.score) return a.score < b.score;
                     return KeysLexLess(matrix.row_keys(a.row),
                                        matrix.row_keys(b.row), d);
                   });
  for (size_t k = 0; k < keyed.size(); ++k) (*rows)[k] = keyed[k].row;
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
