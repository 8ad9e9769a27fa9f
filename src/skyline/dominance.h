// Dominance testing (paper Definition 3.1 and its incomplete-data variant).
//
// This is the "new utility" of paper section 5.5: it takes the values and
// goals of the skyline dimensions of two tuples and decides dominance,
// matching value types directly to avoid casting in the hot loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "expr/expression.h"  // for SkylineGoal
#include "types/value.h"

namespace sparkline {
namespace skyline {

/// \brief A skyline dimension bound to a row ordinal.
struct BoundDimension {
  size_t ordinal;
  SkylineGoal goal;
};

/// \brief Which dominance semantics to apply.
enum class NullSemantics : uint8_t {
  /// Paper Definition 3.1: values are assumed non-null.
  kComplete,
  /// Incomplete-data dominance: comparisons are restricted to dimensions
  /// where *both* tuples are non-null (section 3). Transitivity is lost.
  kIncomplete,
};

/// \brief Pairwise dominance relation between two tuples.
enum class Dominance : uint8_t {
  kLeftDominates,
  kRightDominates,
  /// Equal on all skyline dimensions (relevant for DISTINCT).
  kEqual,
  kIncomparable,
};

/// \brief Counts dominance tests; the paper calls this "the main cost factor
/// of skyline computation" (section 2). Shared across threads.
struct DominanceCounter {
  std::atomic<int64_t> tests{0};
};

/// \brief Accounting for SaLSa-style early termination in the SFS family
/// (see SkylineOptions). Shared across threads; the exec layer surfaces the
/// totals as QueryMetrics::sfs_rows_skipped / sfs_early_stops.
struct EarlyStopStats {
  /// Input rows of SFS passes that were never scanned because a stop point
  /// proved every remaining tuple dominated.
  std::atomic<int64_t> rows_skipped{0};
  /// Number of SFS passes that terminated at a stop point before exhausting
  /// their input.
  std::atomic<int64_t> stops{0};
};

/// \brief Compares two rows on the given dimensions.
///
/// Complete semantics: `left` dominates `right` iff all DIFF dims are equal,
/// left is at least as good in every MIN/MAX dim, and strictly better in at
/// least one. Incomplete semantics restrict every check to dimensions where
/// both sides are non-null.
Dominance CompareRows(const Row& left, const Row& right,
                      const std::vector<BoundDimension>& dims,
                      NullSemantics nulls);

/// \brief Bitmap with one bit per dimension, set where the row is NULL
/// (paper section 5.7); rows with equal bitmaps form one partition within
/// which dominance is transitive again.
uint32_t NullBitmap(const Row& row, const std::vector<BoundDimension>& dims);

/// \brief Checked guard for the 32-dimension bitmap limit, enforced in all
/// build types (NullBitmap itself only SL_DCHECKs, so a release-mode caller
/// bypassing analysis validation could otherwise compute wrong bitmaps).
/// Every Result-returning skyline algorithm calls this on entry; the
/// analyzer additionally rejects >32 dimensions at validation time.
Status CheckDimensionLimit(const std::vector<BoundDimension>& dims);

}  // namespace skyline
}  // namespace sparkline
