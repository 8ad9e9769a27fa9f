// Columnar dominance testing: the one dominance path behind the skyline
// operators (the "new utility" of paper section 5.5).
//
// The paper calls dominance tests "the main cost factor of skyline
// computation" (section 2), yet a row-oriented test pays a tagged-union type
// dispatch, a null check and possibly a string comparison per dimension per
// test. A DominanceMatrix instead projects the skyline dimensions of an
// input *once* into a packed, normalized form:
//
//   - packed `double` keys, with MAX dimensions negated so every comparison
//     in the hot loop is a plain `<` (MIN); each row's keys are contiguous
//     (a d-dimensional tuple fits one or two cache lines, which is what a
//     pairwise dominance test actually touches),
//   - a per-row null bitmap (one bit per dimension, as in paper section 5.7).
//
// Every type the SQL surface admits is encoded order-exactly, so the
// projection never changes a comparison CompareRows would make. A dimension
// whose values are all finite and exact as doubles (BOOLEAN, BIGINT within
// 2^53, finite DOUBLE) keys them directly. Any other dimension — one
// holding a NaN, ±inf, a BIGINT beyond 2^53, or a VARCHAR — is *ranked*:
// its key is the dense rank of the value in a sorted dictionary of that
// dimension's values (ordered by CompareValues, so NaN ranks above +inf),
// negated for MAX. Every key is therefore finite, so no Score sum is NaN.
// Rank codes are only comparable within one matrix, so a gather of parts
// holding a ranked dimension re-ranks them (ColumnarBatch::Concat).
//
// The kernels in this header run entirely over row *indices* into the
// matrix and materialize full Rows only for the final survivors. They must
// agree with BruteForceSkyline (tests/matrix_equivalence_test.cc enforces
// this).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "skyline/algorithms.h"
#include "skyline/dominance.h"
#include "types/row_view.h"

// The explicit AVX2 dominance-test path needs x86 intrinsics plus a
// compiler that supports per-function target attributes (GCC/Clang). Other
// platforms compile the scalar loop only.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SPARKLINE_HAVE_AVX2_COMPARE 1
#else
#define SPARKLINE_HAVE_AVX2_COMPARE 0
#endif

namespace sparkline {
namespace skyline {

/// \brief Raw dominance test over two packed key spans of `d` dimensions.
/// `diff_mask` has one bit per DIFF dimension (equality-only), `skip` one
/// bit per dimension to ignore (the union of the two null bitmaps under
/// incomplete semantics; 0 under complete semantics).
inline Dominance CompareKeySpans(const double* left, const double* right,
                                 size_t d, uint32_t diff_mask, uint32_t skip) {
  bool left_better = false;
  bool right_better = false;
  for (size_t i = 0; i < d; ++i) {
    if ((skip >> i) & 1u) continue;
    const double l = left[i];
    const double r = right[i];
    if (l == r) continue;
    if ((diff_mask >> i) & 1u) {
      // Any difference in a DIFF dimension makes the tuples incomparable.
      return Dominance::kIncomparable;
    }
    if (l < r) {
      if (right_better) return Dominance::kIncomparable;
      left_better = true;
    } else {
      if (left_better) return Dominance::kIncomparable;
      right_better = true;
    }
  }
  if (left_better) return Dominance::kLeftDominates;
  if (right_better) return Dominance::kRightDominates;
  return Dominance::kEqual;
}

/// \brief Branchless dominance test for the common case: complete
/// semantics, no DIFF dimensions. Accumulating the better-on-some-dimension
/// flags without per-dimension early exits leaves a single well-predicted
/// branch per test — measurably faster than the early-exit form on real
/// workloads even though it always scans all d dimensions. This is the
/// scalar reference; CompareKeySpansComplete dispatches to the explicit
/// AVX2 version when the CPU supports it.
inline Dominance CompareKeySpansCompleteScalar(const double* left,
                                               const double* right, size_t d) {
  bool left_better = false;
  bool right_better = false;
  for (size_t i = 0; i < d; ++i) {
    left_better |= left[i] < right[i];
    right_better |= right[i] < left[i];
  }
  if (left_better) {
    return right_better ? Dominance::kIncomparable : Dominance::kLeftDominates;
  }
  return right_better ? Dominance::kRightDominates : Dominance::kEqual;
}

namespace simd {
#if SPARKLINE_HAVE_AVX2_COMPARE
/// \brief Explicit AVX2 compare: both comparison directions run over four
/// dimensions per instruction with OR-accumulated masks, then one movemask
/// per direction. Keys are never NaN (Build ranks NaN and ±inf values into
/// ordinary codes), so the ordered predicate is exact. Only call when
/// Avx2Available() is true. Defined out-of-line with a per-function target
/// attribute so the rest of the binary keeps the baseline ISA.
Dominance CompareKeySpansCompleteAvx2(const double* left, const double* right,
                                      size_t d);

/// \brief Compile-time answer when built with -mavx2, one cached CPUID
/// probe otherwise.
inline bool Avx2Available() {
#if defined(__AVX2__)
  return true;
#else
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
#endif
}
#endif  // SPARKLINE_HAVE_AVX2_COMPARE
}  // namespace simd

/// \brief Complete-case dominance test with SIMD dispatch: the AVX2 path
/// when compiled in and supported by this CPU (below 4 dimensions the
/// vector body would be all tail, so the scalar loop wins), the scalar
/// branchless loop otherwise. Results are identical on every path.
inline Dominance CompareKeySpansComplete(const double* left,
                                         const double* right, size_t d) {
#if SPARKLINE_HAVE_AVX2_COMPARE
  if (d >= 4 && simd::Avx2Available()) {
    return simd::CompareKeySpansCompleteAvx2(left, right, d);
  }
#endif
  return CompareKeySpansCompleteScalar(left, right, d);
}

/// \brief Projection of the skyline dimensions of an input relation into
/// packed key rows, normalized so every MIN/MAX comparison is "smaller is
/// better" over doubles.
///
/// Invariant: every NULL key slot holds the placeholder 0.0 — after Build
/// (directly keyed and ranked dimensions alike), ConcatSelected and a
/// re-ranking ColumnarBatch::Concat. Two rows with one null bitmap
/// therefore compare under complete semantics exactly as under incomplete
/// semantics, which lets RunColumnarKernel reduce each bitmap group with
/// the branchless complete test.
class DominanceMatrix {
 public:
  /// Hard dimension cap: null bitmaps are 32-bit (see dominance.h).
  static constexpr size_t kMaxDims = 32;

  /// \brief Projects `rows` into columnar form (see the file comment for
  /// the direct/ranked encoding rule). Total over every input the analyzer
  /// admits; the only error is Status::Invalid for no dimensions or more
  /// than kMaxDims.
  static Result<DominanceMatrix> Build(const std::vector<Row>& rows,
                                       const std::vector<BoundDimension>& dims);

  /// \brief Same over borrowed rows: matrix row r keys view row r straight
  /// from the typed words of its source chunk — the keying routine the
  /// streamed local stage uses too (ColumnarBatch::LocalSkyline). `dims`
  /// are in view-column ordinals; each is remapped through the view's
  /// column map once per build.
  static Result<DominanceMatrix> Build(const RowView& rows,
                                       const std::vector<BoundDimension>& dims);

  size_t num_rows() const { return n_; }
  size_t num_dims() const { return d_; }

  /// Null bitmap of one row (bit i set = dimension i is NULL).
  uint32_t null_bitmap(uint32_t row) const {
    return nulls_.empty() ? 0 : nulls_[row];
  }
  bool has_nulls() const { return !nulls_.empty(); }

  /// True when every dimension is a directly keyed numeric MIN/MAX — the
  /// precondition of the SFS presort and its stop bound. BOOLEAN, DIFF and
  /// ranked dimensions clear it.
  bool all_numeric_minmax() const { return numeric_minmax_; }

  /// Bitmask of ranked dimensions (keys are dictionary ranks; see Build).
  uint32_t ranked_mask() const { return ranked_mask_; }

  /// The sorted dictionary of a ranked dimension: dictionary(dim)[k] is the
  /// value with rank k (empty for directly keyed dimensions).
  const std::vector<Value>& dictionary(size_t dim) const { return dicts_[dim]; }

  /// The packed keys of one row (d contiguous doubles).
  const double* row_keys(uint32_t row) const { return keys_.data() + row * d_; }

  /// One key (valid for row < num_rows(), dim < num_dims()).
  double key(uint32_t row, size_t dim) const { return row_keys(row)[dim]; }

  /// Monotone SFS score: the sum of the (already negated-for-MAX) keys.
  /// If a dominates b then Score(a) <= Score(b): every partial sum of a is
  /// at most b's, and rounding is monotone (DIFF keys are equal under
  /// dominance). The rounded sums can tie, so a dominator is never later
  /// but not always earlier in score order.
  double Score(uint32_t row) const { return ScoreOf(row_keys(row), d_); }

  /// The same sum over `d` packed keys anywhere (e.g. a copy of a row's
  /// keys): the one summation order every score comparison shares.
  static double ScoreOf(const double* keys, size_t d) {
    double s = 0;
    for (size_t i = 0; i < d; ++i) s += keys[i];
    return s;
  }

  /// Smallest normalized key of one row — the coordinate the SFS stop point
  /// compares with minC. Only meaningful for all-numeric MIN/MAX matrices
  /// without NULLs (NULL slots hold 0.0 placeholders).
  double MinKey(uint32_t row) const {
    const double* keys = row_keys(row);
    double lo = keys[0];
    for (size_t d = 1; d < d_; ++d) lo = std::min(lo, keys[d]);
    return lo;
  }

  /// Largest normalized key of one row — the stop-point coordinate a
  /// skyline point contributes: every tuple whose coordinates all strictly
  /// exceed MaxKey(p) is strictly dominated by p. Same preconditions as
  /// MinKey.
  double MaxKey(uint32_t row) const {
    const double* keys = row_keys(row);
    double hi = keys[0];
    for (size_t d = 1; d < d_; ++d) hi = std::max(hi, keys[d]);
    return hi;
  }

  /// Bitmask of DIFF dimensions (for CompareKeySpans callers).
  uint32_t diff_mask() const { return diff_mask_; }

  /// \brief Byte footprint of the projection: packed keys, null bitmaps and
  /// rank dictionaries. This is what the exec layer charges to the query's
  /// MemoryTracker while a matrix lives.
  int64_t MemoryBytes() const;

  /// \brief Concatenates the *selected* rows of several independently built
  /// matrices into one compact matrix — the columnar shuffle primitive.
  /// Row r of the result is the selections[p][k]-th row of parts[p], in
  /// (part, selection) order. Packed keys and null bitmaps are copied; no
  /// re-projection from row Values happens, which is only sound because
  /// direct keys mean the same thing in every matrix.
  ///
  /// \pre parts is non-empty, all parts share num_dims() and diff_mask()
  /// (they were projected with the same BoundDimension list), no part has a
  /// ranked dimension, and every selection index is valid for its part.
  static DominanceMatrix ConcatSelected(
      const std::vector<const DominanceMatrix*>& parts,
      const std::vector<const std::vector<uint32_t>*>& selections);

  /// \brief Dominance between rows `i` and `j`, equivalent to CompareRows
  /// over the original rows. One call == one dominance test.
  Dominance Compare(uint32_t i, uint32_t j, NullSemantics nulls) const {
    const uint32_t skip =
        nulls == NullSemantics::kIncomplete ? null_bitmap(i) | null_bitmap(j)
                                            : 0;
    return CompareKeySpans(row_keys(i), row_keys(j), d_, diff_mask_, skip);
  }

 private:
  /// Builds a local skyline's compact matrix straight from its window.
  friend class ColumnarBatch;

  DominanceMatrix() = default;

  /// The projection behind both Build overloads: `key_rows(target,
  /// masks)` keys every row into the matrix (KeyTarget and KeyMasks in
  /// columnar.cc), and `row_at(r)` is the row (a Row, or a RowRef into a chunk) holding
  /// matrix row r's values at the ordinals of `dims`, which only ranked
  /// dimensions read again, in a per-dimension pass (RankDimension). The
  /// null bitmaps are allocated at the first NULL.
  template <typename KeyRows, typename RowAt>
  static Result<DominanceMatrix> BuildFrom(
      size_t n, const KeyRows& key_rows, const RowAt& row_at,
      const std::vector<BoundDimension>& dims);

  /// Replaces dimension `d`'s keys with dense ranks of the non-null values
  /// and records its sorted dictionary.
  template <typename RowAt>
  void RankDimension(const RowAt& row_at, const BoundDimension& dim, size_t d);

  size_t n_ = 0;
  size_t d_ = 0;
  std::vector<double> keys_;    ///< row-major packed keys, n_ * d_ entries
  std::vector<uint32_t> nulls_; ///< per-row bitmaps; empty when fully complete
  uint32_t diff_mask_ = 0;      ///< bit per DIFF dimension
  uint32_t ranked_mask_ = 0;    ///< bit per ranked dimension
  bool numeric_minmax_ = false;
  /// Sorted rank dictionaries: dicts_[dim][rank] is the value (empty for
  /// directly keyed dimensions). Kept for decode and memory accounting.
  std::vector<std::vector<Value>> dicts_;
};

/// \brief All row indices 0..n-1 (the identity selection for a kernel run
/// over the whole matrix).
std::vector<uint32_t> AllIndices(const DominanceMatrix& matrix);

// Preconditions shared by every Result-returning kernel below:
//
//   * The matrix must come from DominanceMatrix::Build over the same
//     logical input the index selections refer to; all indices must be
//     < matrix.num_rows(). Build enforces the kMaxDims (32) limit, so
//     the kernels do not re-check it.
//   * Keys are MIN/MAX-normalized at projection time: MAX dimensions are
//     negated, so "smaller is better" holds for every key and the kernels
//     never consult SkylineGoal again. DIFF dimensions are equality-only,
//     flagged in diff_mask().
//   * `options.nulls` selects the semantics (see algorithms.h); under
//     kIncomplete each comparison skips the union of the two rows' null
//     bitmaps, and transitivity is lost.
//   * With `options.deadline_nanos` set, kernels return Status::Timeout
//     soon after the deadline; partial results are discarded.

/// \brief Block-Nested-Loop (Börzsönyi et al., adapted in paper section
/// 5.6) over `input` (indices into the matrix, processed in order): keeps a
/// window of incomparable tuples; correctness relies on the transitivity of
/// dominance. Under kIncomplete the input must therefore be bitmap-uniform
/// (all rows null in the same dimensions) — RunColumnarKernel groups by
/// bitmap first; mixed-bitmap input needs ColumnarAllPairsIncomplete.
/// This is the engine's one BNL loop read over a matrix; the streamed local
/// stage (ColumnarBatch::LocalSkyline) runs the same loop over keyed
/// blocks.
Result<std::vector<uint32_t>> ColumnarBlockNestedLoop(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options);

/// \brief Sorts `rows` (stable) into SFS order: ascending Score, with ties
/// broken lexicographically on the packed keys, then by input order. No
/// row sorts after a row it dominates: a dominator's score is never larger
/// (but may be equal, the sum being rounded), and its keys are
/// lexicographically smaller. It is also the order
/// ColumnarValidateAgainstPeers reads its peers in.
void SortInSfsOrder(const DominanceMatrix& matrix, std::vector<uint32_t>* rows);

/// \brief Sort-Filter-Skyline, the presorting family the paper lists as
/// future work (section 7). Falls back to ColumnarBlockNestedLoop under
/// incomplete semantics or unless all_numeric_minmax(). Sorts into SFS
/// order (SortInSfsOrder), in which no tuple can be dominated by a later
/// one, so the window only grows. The filter pass terminates at the SaLSa
/// stop point (skipped when the matrix has NULL bitmaps).
Result<std::vector<uint32_t>> ColumnarSortFilterSkyline(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options);

/// \brief Global skyline for (potentially) incomplete data: compares all
/// pairs and only *flags* dominated tuples, deleting them after the last
/// comparison. Deferred deletion is what makes cyclic dominance safe
/// (paper section 5.7 / Appendix A, where FlawedGulzarGlobal shows the
/// eager alternative failing). Sound for any mix of null bitmaps.
Result<std::vector<uint32_t>> ColumnarAllPairsIncomplete(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options);

/// \brief One validation round of the parallel incomplete global skyline:
/// keeps the candidates for which `peer` — one rotating chunk's *full* index
/// set, not its candidate set — contains no dominating witness; under
/// DISTINCT an equal peer tuple with the same null bitmap and a smaller
/// matrix index also eliminates. The peer must be the full set because
/// survivor-vs-survivor pruning is unsound under non-transitive dominance.
/// Peer rows are read-only, so rounds over disjoint candidate sets can run
/// in parallel.
///
/// \pre `candidates` and `peer` hold valid matrix row indices; matrix row
/// order must be the global input order (the DISTINCT tie-break).
Result<std::vector<uint32_t>> ColumnarValidateAgainstChunk(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& candidates,
    const std::vector<uint32_t>& peer, const SkylineOptions& options);

/// \brief The packed keys of `rows`, in order: rows.size() * num_dims()
/// contiguous doubles.
std::vector<double> PackKeys(const DominanceMatrix& matrix,
                             const std::vector<uint32_t>& rows);

/// \brief One peer's candidates as ColumnarValidateAgainstPeers reads them:
/// `size` rows in SFS order (SortInSfsOrder), their keys packed
/// densely (row k at keys + k * num_dims: PackKeys over such a list, or a
/// contiguous run of matrix rows). Non-owning.
struct PeerKeys {
  const double* keys = nullptr;
  size_t size = 0;
  /// The peer precedes the candidates in input order: under DISTINCT its
  /// rows win ties (the first-encountered rule).
  bool earlier = false;
};

/// \brief The validate step of the parallel complete global skyline
/// (GlobalSkylineExec's [merge] stage, and GlobalSkylineIncompleteExec's
/// [reduce] within one null-bitmap group): keeps, in their given order, the
/// candidates that no peer row dominates — and, under DISTINCT, that no
/// earlier peer holds an equal row. Exact when the candidates and every
/// peer are antichains and together hold every row the result may need as
/// a witness: complete dominance is transitive, so a dominated candidate
/// always has an undominated dominator in some other antichain, and peers
/// are read-only, so one task per candidate list can run concurrently.
///
/// For each candidate c, each peer is scanned from its lowest score only
/// while the peer's row is ahead of c in SFS order (a dominator's
/// score is never larger, and may be equal, but its keys are
/// lexicographically smaller) — or, for an earlier peer under DISTINCT,
/// identical to c. Compares with CompareKeySpansComplete when
/// diff_mask() == 0, CompareKeySpans otherwise; counts every test and polls
/// the deadline.
///
/// \pre options.nulls is kComplete; every peer is in SFS order and
/// packed from this matrix (or an identical copy of its keys).
Result<std::vector<uint32_t>> ColumnarValidateAgainstPeers(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& candidates,
    const std::vector<PeerKeys>& peers, const SkylineOptions& options);

/// \brief Groups the rows of `input` by their null bitmap (paper section
/// 5.7), in ascending bitmap order. Input order is preserved within each
/// group.
std::vector<std::vector<uint32_t>> PartitionIndicesByNullBitmap(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input);

/// \brief Materializes the selected rows (in index order) from the original
/// input.
std::vector<Row> MaterializeRows(const std::vector<Row>& input,
                                 const std::vector<uint32_t>& indices);

/// \brief Runs the chosen kernel over a matrix view. Complete semantics
/// dispatch the kernel directly; incomplete semantics run one BNL per
/// bitmap-uniform group of the view (the local-stage contract of paper
/// section 5.7), comparing with complete semantics (sound by the NULL
/// placeholder invariant of DominanceMatrix). Returns the surviving
/// sub-view.
Result<std::vector<uint32_t>> RunColumnarKernel(
    SkylineKernel kernel, const DominanceMatrix& matrix,
    const std::vector<uint32_t>& input, const SkylineOptions& options);

/// Rows the streamed local stage keys at a time (ColumnarBatch::LocalSkyline).
inline constexpr size_t kKeyBlockRows = 1024;

/// \brief The unit the columnar exchange ships between skyline stages: one
/// immutable, shared DominanceMatrix over a set of backing rows (matrix row
/// i is the projection of backing row i) plus a row-index *view* selecting
/// the live subset, and the view's skyline parts, if it has any.
///
/// Ownership rules: matrix, backing rows and the memory reservation are
/// shared (shared_ptr) and never mutated after construction; copying a
/// batch copies only the view vector. A batch therefore stays valid no
/// matter which operator created it or how many views alias it, and the
/// matrix bytes stay charged to the query's MemoryTracker until the last
/// view dies. The backing is a RowView either way: over a table snapshot
/// it reads in place (borrowed(); Project over borrowed rows, or Concat of
/// such parts), or over rows the query materialized.
class ColumnarBatch {
 public:
  /// \brief Projects borrowed rows once, in place: the whole-partition
  /// matrix of a local stage that cannot stream (see LocalSkyline). `dims`
  /// are in view-column ordinals. Fails only where DominanceMatrix::Build
  /// does. Matrix storage is charged to `memory` (if non-null) for the
  /// matrix's lifetime; the rows are not, the table owns them.
  static Result<ColumnarBatch> Project(
      RowView rows, const std::vector<BoundDimension>& dims,
      MemoryTracker* memory = nullptr);

  /// \brief Same over rows the query owns (borrowed() is false), converted
  /// into one column-oriented chunk first (ChunkedRows::Single).
  static Result<ColumnarBatch> Project(
      std::vector<Row> rows, const std::vector<BoundDimension>& dims,
      MemoryTracker* memory = nullptr);

  /// \brief The columnar shuffle: concatenates the parts' *selected* rows
  /// into one compact batch. The backing rows of the result are the
  /// selected rows in view order, so matrix row order equals gathered input
  /// order (the DISTINCT tie-break order downstream stages rely on). When
  /// every part borrows from one source through one column map, the
  /// backing is a view of that source holding the selected rows' ids, and
  /// the result stays borrowed(); otherwise the selected rows are copied
  /// out. A single part is compacted the same way, so the upstream stage's
  /// non-survivor rows never travel past the exchange.
  ///
  /// When no part has a ranked dimension, every key means the same thing in
  /// every part and DominanceMatrix::ConcatSelected copies keys and bitmaps.
  /// Otherwise the parts' rank codes disagree, so the gathered backing is
  /// re-projected with DominanceMatrix::Build (in place when borrowed) and
  /// `*reprojected` (if non-null) is set — the one matrix build a gather
  /// can cost.
  ///
  /// The view is the identity, so each part's rows stay one contiguous run
  /// of matrix rows, and if every part carries skyline parts the result
  /// carries them all, offset to their new positions (see skyline_parts()).
  /// Re-projection drops them: re-ranked keys sum to different scores.
  ///
  /// The parts are left alive in the caller's vector: destroying an owned
  /// backing — every non-survivor row of an owned upstream stage — is real
  /// work, and the caller decides where it lands (the exec layer drops them
  /// outside the timed stage, exactly where the row pipeline destroys its
  /// consumed inputs).
  ///
  /// \pre parts non-empty, all projected with the same dimension list.
  static ColumnarBatch Concat(std::vector<ColumnarBatch>* parts,
                              MemoryTracker* memory = nullptr,
                              bool* reprojected = nullptr);

  /// \brief The local skyline of one partition (LocalSkylineExec's task),
  /// as one skyline part: complete semantics leave it in SFS order
  /// (SortInSfsOrder, ties in window order); incomplete semantics leave
  /// each null-bitmap group in SFS order, groups in ascending bitmap order.
  ///
  /// BNL, and every incomplete skyline (one BNL per bitmap group), runs as
  /// a stream: the partition is keyed kKeyBlockRows rows at a time into
  /// one reused buffer and fed to the BNL window, which is all the task
  /// keeps. The result is the compact batch Concat would make of it — the
  /// window's keys and bitmaps over the survivors' rows — so no task holds
  /// anything the size of its partition. A value with no exact double
  /// image (NaN, ±inf, BIGINT beyond 2^53, VARCHAR) voids the stream: its
  /// tests are never counted, and the partition runs the matrix path
  /// instead — Build, RunColumnarKernel, a view over the whole matrix —
  /// which is also how SFS runs under complete semantics (its presort
  /// reads every key).
  ///
  /// `dims` are in view-column ordinals. Window and block bytes are
  /// charged to options.memory as they grow, through TryGrow: a window that
  /// outgrows the limit fails with ResourceExhausted. `*keying_ms` gains
  /// the time spent keying rows (each block, or the matrix build).
  static Result<ColumnarBatch> LocalSkyline(
      RowView rows, SkylineKernel kernel,
      const std::vector<BoundDimension>& dims, const SkylineOptions& options,
      double* keying_ms);

  /// \brief Same over rows the query owns (a join's, an aggregate's or a
  /// nested skyline's output): the stream keys each Row's Values, and only
  /// the window's rows move out of `*rows`, into the result's backing
  /// chunk; the caller drops the rest, outside the timed task. The matrix
  /// path converts every row into one chunk first (ChunkedRows::Single).
  static Result<ColumnarBatch> LocalSkyline(
      std::vector<Row>* rows, SkylineKernel kernel,
      const std::vector<BoundDimension>& dims, const SkylineOptions& options,
      double* keying_ms);

  /// A derived view over the same matrix/rows (e.g. the survivors of a
  /// kernel run), sharing this batch's matrix, backing and reservation.
  /// `skyline_part` asserts the whole view is one skyline part (see
  /// skyline_parts()). Copies neither this batch's view nor its parts; on
  /// an expiring batch it moves the backing instead of copying its ids.
  ColumnarBatch WithSelection(std::vector<uint32_t> indices,
                              bool skyline_part = false) const&;
  ColumnarBatch WithSelection(std::vector<uint32_t> indices,
                              bool skyline_part = false) &&;

  const DominanceMatrix& matrix() const { return *matrix_; }
  const std::vector<uint32_t>& indices() const { return indices_; }
  size_t num_rows() const { return indices_.size(); }
  /// View offsets 0 = b_0 <= b_1 <= ... <= b_k = num_rows() splitting the
  /// view into *skyline parts*, or empty when the view has none. Each part
  /// [b_j, b_{j+1}) is the skyline of one partition (LocalSkylineExec).
  /// Under complete semantics it is an antichain in SFS order
  /// (SortInSfsOrder), so the complete skyline of the whole view is what
  /// ColumnarValidateAgainstPeers keeps of each part against the others,
  /// with no per-part skyline pass first. Under incomplete semantics each
  /// null-bitmap group of the part is such an antichain, and the groups
  /// follow each other in ascending bitmap order.
  const std::vector<uint32_t>& skyline_parts() const { return parts_; }
  /// The rows behind the matrix: matrix row i is backing() row i.
  const RowView& backing() const { return rows_; }
  /// True when the backing rows belong to a table snapshot (see Project
  /// and Concat).
  bool borrowed() const { return borrowed_; }

  /// \brief True when this batch was projected for exactly these skyline
  /// dimensions (ordinals and goals). A consumer whose dimensions differ —
  /// e.g. the outer operator of a nested skyline receiving the inner
  /// skyline's batch — must decode and re-project instead of reusing a
  /// matrix that encodes the wrong columns.
  bool ProjectedFor(const std::vector<BoundDimension>& dims) const {
    if (dims.size() != dims_.size()) return false;
    for (size_t i = 0; i < dims.size(); ++i) {
      if (dims[i].ordinal != dims_[i].ordinal || dims[i].goal != dims_[i].goal) {
        return false;
      }
    }
    return true;
  }

  /// Copies the view's rows out — the plan-root decode, or the decode a
  /// non-skyline operator consuming the relation needs.
  std::vector<Row> Decode() const { return rows_.Materialize(indices_); }

 private:
  ColumnarBatch() = default;

  /// Shared by both Project overloads.
  static Result<ColumnarBatch> ProjectView(
      RowView rows, bool borrowed, const std::vector<BoundDimension>& dims,
      MemoryTracker* memory);

  /// The matrix path of LocalSkyline: Build, the kernel, and a view of the
  /// survivors over the whole matrix.
  static Result<ColumnarBatch> MatrixSkyline(
      RowView rows, bool borrowed, SkylineKernel kernel,
      const std::vector<BoundDimension>& dims, const SkylineOptions& options,
      double* keying_ms);

  /// The compact batch of a streamed window: `backing` holds the survivors
  /// in output order, `keys` and `nulls` (empty when the partition held no
  /// NULL) their keys and bitmaps in the same order.
  static ColumnarBatch FromWindow(RowView backing, bool borrowed,
                                  const std::vector<BoundDimension>& dims,
                                  std::vector<double> keys,
                                  std::vector<uint32_t> nulls, bool numeric,
                                  MemoryTracker* memory);

  std::shared_ptr<const DominanceMatrix> matrix_;
  RowView rows_;  ///< backing rows; matrix row i is rows_ row i
  bool borrowed_ = false;
  std::shared_ptr<const ScopedReservation> reservation_;  ///< matrix bytes
  std::vector<BoundDimension> dims_;  ///< what the matrix was projected for
  std::vector<uint32_t> indices_;  ///< the view, in processing order
  /// Skyline-part offsets into the view (empty = none).
  std::vector<uint32_t> parts_;
};

/// \brief Rows-in, rows-out convenience for standalone use: builds the
/// matrix, runs RunColumnarKernel over all of it and materializes the
/// survivors. The engine's operators work on ColumnarBatch views instead.
Result<std::vector<Row>> ColumnarSkyline(SkylineKernel kernel,
                                         const std::vector<Row>& input,
                                         const std::vector<BoundDimension>& dims,
                                         const SkylineOptions& options);

/// \brief Outcome of classifying a batch of inserted tuples against an
/// already-computed skyline (the incremental-maintenance kernel,
/// serve/incremental.h).
struct DeltaClassification {
  /// Batch indices (ascending) whose tuples enter the skyline.
  std::vector<uint32_t> entering;
  /// Skyline indices (ascending) evicted because an entering tuple
  /// dominates them.
  std::vector<uint32_t> evicted;
  /// True when exactness cannot be certified and the caller must fall back
  /// to recompute/invalidation: a NULL in a skyline dimension (complete
  /// semantics over NULL placeholders is not what the engine's operators
  /// compute), or — under DISTINCT — a batch tuple dim-equal to a cached
  /// point or to another batch tuple (replaying the first-encountered
  /// tie-break exactly would require the full input order, which the
  /// cached skyline no longer carries).
  bool needs_fallback = false;
};

/// \brief Classifies `batch` against `skyline` under complete dominance
/// semantics: a batch tuple dominated by a cached point (or by another
/// batch tuple) is discarded; the rest enter and evict the cached points
/// they dominate. Exactness (tests/incremental_test.cc proves it
/// differentially): because complete dominance is transitive and `skyline`
/// is the skyline of its input T, any old tuple dominating a batch tuple q
/// has a representative in `skyline` dominating q, so comparing against the
/// cached skyline alone suffices — skyline(T ∪ B) =
/// (skyline \ evicted) ∪ entering. This is NOT sound under incomplete
/// semantics (non-transitive dominance: a dominated non-skyline tuple can
/// dominate q while no skyline point does), so options.nulls must be
/// kComplete — kIncomplete is rejected with Status::Invalid.
///
/// Uses one combined DominanceMatrix projection (skyline rows then batch
/// rows, so both sides share one key space) with the packed-key compare
/// kernel. Cost: O((|S| + |B|)·|B|) dominance tests — independent of the
/// table size.
Result<DeltaClassification> DeltaClassify(const std::vector<Row>& skyline,
                                          const std::vector<Row>& batch,
                                          const std::vector<BoundDimension>& dims,
                                          const SkylineOptions& options);

}  // namespace skyline
}  // namespace sparkline
