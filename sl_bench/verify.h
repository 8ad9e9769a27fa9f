// Answer verifier for sl_bench: decides whether a returned row set is the
// skyline of its input without using any of the engine's skyline kernels.
// Every dominance decision goes through skyline::CompareRows on the raw
// table rows, the paper's Definition 3.1 (complete) or its restriction to
// commonly non-null dimensions (incomplete).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "skyline/dominance.h"
#include "types/value.h"

namespace sparkline {
namespace slbench {

/// \brief Checks that `result` is exactly the skyline of `input`:
///   1. `result` is a sub-multiset of `input`;
///   2. no returned row is dominated by any input row;
///   3. every input row that was not returned is dominated by some returned
///      row (complete semantics) or by some input row (incomplete semantics,
///      where dominance is not transitive and the witness may itself be
///      dominated).
/// Returns the empty string when all three hold, else a description of the
/// first violation found.
std::string VerifySkyline(const std::vector<Row>& input,
                          const std::vector<Row>& result,
                          const std::vector<skyline::BoundDimension>& dims,
                          skyline::NullSemantics nulls);

/// \brief Order-insensitive hash of a row multiset: equal multisets hash
/// equally regardless of row order.
uint64_t MultisetHash(const std::vector<Row>& rows);

}  // namespace slbench
}  // namespace sparkline
