// Options shared by the skyline kernels, and the two row-level reference
// implementations the tests check the kernels against.
//
// The kernels themselves (paper sections 5.6, 5.7 and Appendix A) run over a
// DominanceMatrix and live in columnar.h. Cancellation is cooperative via an
// optional deadline, which implements the paper's benchmark timeouts.
#pragma once

#include <functional>
#include <vector>

#include "common/result.h"
#include "skyline/dominance.h"

namespace sparkline {

class CancellationToken;
class MemoryTracker;

namespace skyline {

/// \brief Which kernel the skyline operators run. BNL is the paper's
/// choice; SFS (presorting) is the section-7 alternative implemented as an
/// extension.
enum class SkylineKernel : uint8_t {
  kBlockNestedLoop,
  kSortFilterSkyline,
};

/// \brief Options shared by all skyline algorithms.
struct SkylineOptions {
  /// SKYLINE OF DISTINCT: among tuples equal in all skyline dimensions,
  /// keep exactly one (the first encountered).
  bool distinct = false;
  /// Complete (Definition 3.1) vs. incomplete (null-restricted) dominance.
  NullSemantics nulls = NullSemantics::kComplete;
  /// If non-null, incremented once per dominance test.
  DominanceCounter* counter = nullptr;
  /// Monotonic-clock deadline in nanoseconds (0 = none); algorithms return
  /// Status::Timeout soon after passing it.
  int64_t deadline_nanos = 0;
  /// If non-null, polled alongside the deadline (same cadence, one relaxed
  /// load per ~1k dominance tests); algorithms return Status::Cancelled soon
  /// after the token flips. Must outlive the call — the executor passes the
  /// token owned (shared_ptr) by its ExecContext.
  const CancellationToken* cancel = nullptr;
  /// If non-null, DominanceMatrix storage (packed keys, null bitmaps,
  /// dictionaries) built inside ColumnarSkyline and DeltaClassify is
  /// charged here for as long as the matrix lives.
  MemoryTracker* memory = nullptr;

  // --- SaLSa-style early termination (SFS family only) ----------------------
  //
  // Every SFS filter pass terminates as soon as every remaining tuple is
  // provably strictly dominated. The pass maintains
  // minC = the smallest max-coordinate over the skyline points seen so far
  // (its witness dominates everything whose every coordinate strictly
  // exceeds minC) and stops once the smallest min-coordinate of the
  // remaining tuples does (a suffix minimum: the presort orders by a
  // rounded sum, which cannot bound a single coordinate exactly).
  //
  // Sound only for complete, non-null numeric MIN/MAX input: with NULLs or
  // incomplete semantics a masked comparison cannot be certified by a
  // coordinate bound, so the SFS entry points skip the stop there (the BNL
  // fallbacks never consult it). Only *strictly* dominated tuples are
  // skipped — never equal ones — so DISTINCT keeps its ties.

  /// If non-null, early-termination accounting (rows skipped, passes that
  /// stopped early).
  EarlyStopStats* early_stop = nullptr;
};

/// \brief The *incorrect* global algorithm of Gulzar et al. [20], kept as an
/// executable counterexample: it deletes dominated tuples eagerly while
/// scanning clusters, so cyclic dominance chains leak tuples into the result
/// (paper Appendix A). Never used by the engine.
std::vector<Row> FlawedGulzarGlobal(const std::vector<Row>& input,
                                    const std::vector<BoundDimension>& dims);

/// \brief Quadratic reference oracle implementing the skyline definition
/// verbatim over CompareRows, for tests and benches. The engine, the
/// subscription resync included, runs the columnar kernels instead.
/// Under DISTINCT it keeps the first of each group of equal tuples with the
/// same null bitmap.
std::vector<Row> BruteForceSkyline(const std::vector<Row>& input,
                                   const std::vector<BoundDimension>& dims,
                                   const SkylineOptions& options);

}  // namespace skyline
}  // namespace sparkline
