#include "verify.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/string_util.h"

namespace sparkline {
namespace slbench {
namespace {

using skyline::BoundDimension;
using skyline::CompareRows;
using skyline::Dominance;
using skyline::NullSemantics;

struct RowPtrHash {
  size_t operator()(const Row* r) const { return RowHash()(*r); }
};
struct RowPtrEq {
  bool operator()(const Row* a, const Row* b) const { return RowEq()(*a, *b); }
};

constexpr double kUnbounded = -std::numeric_limits<double>::infinity();

/// A monotone key: if `t` dominates `r` under complete semantics then
/// Score(t) <= Score(r), because every MIN/MAX value of t is at least as
/// good and both int64->double conversion and floating-point addition in a
/// fixed order are monotone. DIFF dimensions only demand equality, so they
/// do not enter the sum. A row the key cannot describe (NULL, NaN, VARCHAR)
/// gets -inf, which keeps it inside every pruning window.
double Score(const Row& row, const std::vector<BoundDimension>& dims) {
  double score = 0;
  for (const auto& d : dims) {
    if (d.goal == SkylineGoal::kDiff) continue;
    const Value& v = row[d.ordinal];
    if (v.is_null() || !v.type().is_numeric()) return kUnbounded;
    const double x = v.ToDouble();
    if (std::isnan(x)) return kUnbounded;
    score += d.goal == SkylineGoal::kMin ? x : -x;
  }
  return score;
}

bool Dominates(const Row& a, const Row& b,
               const std::vector<BoundDimension>& dims, NullSemantics nulls) {
  return CompareRows(a, b, dims, nulls) == Dominance::kLeftDominates;
}

/// Rows with their Score in ascending order; without a pruning key
/// (incomplete semantics) every score is -inf.
using Scored = std::vector<std::pair<double, const Row*>>;

Scored ByScore(const std::vector<Row>& rows,
               const std::vector<BoundDimension>& dims, bool complete) {
  Scored out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    out.emplace_back(complete ? Score(r, dims) : kUnbounded, &r);
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

/// The first row of `scored` that dominates `row`, or null. Only rows
/// scoring at most `row`'s score can dominate it under complete semantics.
const Row* FindDominator(const Scored& scored, const Row& row,
                         const std::vector<BoundDimension>& dims,
                         NullSemantics nulls) {
  const double own = Score(row, dims);
  const double limit =
      nulls == NullSemantics::kComplete && own != kUnbounded
          ? own
          : std::numeric_limits<double>::infinity();
  for (const auto& [score, candidate] : scored) {
    if (score > limit) break;
    if (Dominates(*candidate, row, dims, nulls)) return candidate;
  }
  return nullptr;
}

}  // namespace

std::string VerifySkyline(const std::vector<Row>& input,
                          const std::vector<Row>& result,
                          const std::vector<BoundDimension>& dims,
                          NullSemantics nulls) {
  // 1. Sub-multiset. What is left in `unreturned` afterwards is, per
  // distinct row, how many of its copies the query dropped.
  std::unordered_map<const Row*, int64_t, RowPtrHash, RowPtrEq> unreturned;
  unreturned.reserve(input.size());
  for (const Row& row : input) ++unreturned[&row];
  for (const Row& row : result) {
    auto it = unreturned.find(&row);
    if (it == unreturned.end() || it->second == 0) {
      return StrCat("returned row ", RowToString(row),
                    " is not in the input (or is returned more often than it "
                    "occurs)");
    }
    --it->second;
  }

  // 2. No returned row is dominated by any input row.
  const bool complete = nulls == NullSemantics::kComplete;
  const Scored input_by_score = ByScore(input, dims, complete);
  for (const Row& r : result) {
    if (const Row* d = FindDominator(input_by_score, r, dims, nulls)) {
      return StrCat("returned row ", RowToString(r),
                    " is dominated by input row ", RowToString(*d));
    }
  }

  // 3. Every dropped row has a dominating witness. The witness that worked
  // last is tried first: a few strong rows dominate most of the input.
  const Scored witnesses =
      complete ? ByScore(result, dims, true) : input_by_score;
  const Row* last_witness = nullptr;
  for (const auto& [row, dropped] : unreturned) {
    if (dropped == 0) continue;
    if (last_witness != nullptr &&
        Dominates(*last_witness, *row, dims, nulls)) {
      continue;
    }
    last_witness = FindDominator(witnesses, *row, dims, nulls);
    if (last_witness == nullptr) {
      return StrCat("input row ", RowToString(*row),
                    " is missing from the result but no ",
                    complete ? "returned" : "input", " row dominates it");
    }
  }
  return "";
}

uint64_t MultisetHash(const std::vector<Row>& rows) {
  uint64_t sum = 0;
  for (const Row& row : rows) {
    // splitmix64 finalizer: spreads RowHash so that the commutative sum does
    // not cancel structured hash bits.
    uint64_t z = static_cast<uint64_t>(RowHash()(row)) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    sum += z ^ (z >> 31);
  }
  return sum;
}

}  // namespace slbench
}  // namespace sparkline
