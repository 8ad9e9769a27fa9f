// Proves the verifier is not vacuous: on complete and on incomplete data it
// accepts the engine's skyline, and rejects that skyline with one row
// removed and with one dominated row added.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/dataframe.h"
#include "api/session.h"
#include "datagen/datagen.h"
#include "verify.h"

using namespace sparkline;  // NOLINT

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void CheckSemantics(skyline::NullSemantics nulls) {
  const bool incomplete = nulls == skyline::NullSemantics::kIncomplete;
  const std::string label = incomplete ? "incomplete" : "complete";
  Session session;
  TablePtr table = datagen::GeneratePoints(
      "pts", 2000, 3, datagen::PointDistribution::kAntiCorrelated, 7,
      incomplete ? 0.2 : 0.0);
  SL_CHECK_OK(session.catalog()->RegisterTable(table));
  auto df = session.Sql("SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN");
  SL_CHECK(df.ok()) << df.status().ToString();
  auto result = df->Collect();
  SL_CHECK(result.ok()) << result.status().ToString();
  const std::vector<Row>& input = table->rows();
  const std::vector<Row>& skyline = result->rows();
  const std::vector<skyline::BoundDimension> dims = {
      {1, SkylineGoal::kMin}, {2, SkylineGoal::kMax}, {3, SkylineGoal::kMin}};
  SL_CHECK(!skyline.empty() && skyline.size() < input.size());

  Expect(slbench::VerifySkyline(input, skyline, dims, nulls).empty(),
         label + ": the engine's skyline is accepted");

  std::vector<Row> missing = skyline;
  missing.erase(missing.begin() + static_cast<long>(missing.size() / 2));
  Expect(!slbench::VerifySkyline(input, missing, dims, nulls).empty(),
         label + ": a skyline with one row removed is rejected");

  auto dropped = std::find_if(input.begin(), input.end(), [&](const Row& r) {
    return std::none_of(skyline.begin(), skyline.end(),
                        [&](const Row& s) { return RowEq()(r, s); });
  });
  std::vector<Row> extra = skyline;
  extra.push_back(*dropped);
  Expect(!slbench::VerifySkyline(input, extra, dims, nulls).empty(),
         label + ": a skyline with one dominated row added is rejected");

  std::vector<Row> reversed(skyline.rbegin(), skyline.rend());
  Expect(slbench::MultisetHash(reversed) == slbench::MultisetHash(skyline),
         label + ": the multiset hash ignores row order");
  Expect(slbench::MultisetHash(extra) != slbench::MultisetHash(skyline),
         label + ": the multiset hash sees an added row");
}

}  // namespace

int main() {
  CheckSemantics(skyline::NullSemantics::kComplete);
  CheckSemantics(skyline::NullSemantics::kIncomplete);
  return failures == 0 ? 0 : 1;
}
