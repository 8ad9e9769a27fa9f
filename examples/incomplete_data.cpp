// Incomplete data and cyclic dominance (paper section 3 + Appendix A).
//
// Demonstrates:
//   1. the three-tuple cycle a < b < c < a on incomplete data,
//   2. that the flawed algorithm of Gulzar et al. [20] returns a wrong
//      skyline while the deferred-deletion algorithm is correct,
//   3. that the engine automatically selects the incomplete algorithm for
//      nullable dimensions (Listing 8) and the COMPLETE keyword overrides it.
#include <cstdio>

#include "api/dataframe.h"
#include "api/session.h"
#include "skyline/columnar.h"

using namespace sparkline;  // NOLINT
namespace sky = sparkline::skyline;

int main() {
  // --- 1. The cycle, at the algorithm level ---------------------------------
  auto null_v = [] { return Value::Null(DataType::Double()); };
  std::vector<Row> tuples = {
      {Value::Double(1), null_v(), Value::Double(10)},  // a = (1, *, 10)
      {Value::Double(3), Value::Double(2), null_v()},   // b = (3, 2, *)
      {null_v(), Value::Double(5), Value::Double(3)},   // c = (*, 5, 3)
  };
  std::vector<sky::BoundDimension> dims{{0, SkylineGoal::kMin},
                                        {1, SkylineGoal::kMin},
                                        {2, SkylineGoal::kMin}};

  std::printf("a=(1,*,10)  b=(3,2,*)  c=(*,5,3), all dimensions MIN\n");
  auto dom = [&](int i, int j, const char* li, const char* lj) {
    auto d = sky::CompareRows(tuples[i], tuples[j], dims,
                              sky::NullSemantics::kIncomplete);
    std::printf("  %s dominates %s? %s\n", li, lj,
                d == sky::Dominance::kLeftDominates ? "yes" : "no");
  };
  dom(0, 1, "a", "b");
  dom(1, 2, "b", "c");
  dom(2, 0, "c", "a");
  std::printf("-> cyclic dominance; transitivity is lost.\n\n");

  // --- 2. Flawed vs. correct global algorithm ------------------------------
  auto flawed = sky::FlawedGulzarGlobal(tuples, dims);
  sky::SkylineOptions opts;
  opts.nulls = sky::NullSemantics::kIncomplete;
  auto matrix = sky::DominanceMatrix::Build(tuples, dims);
  SL_CHECK(matrix.ok());
  auto correct =
      sky::ColumnarAllPairsIncomplete(*matrix, sky::AllIndices(*matrix), opts);
  SL_CHECK(correct.ok());
  std::printf("Gulzar et al. [20] (eager deletion): %zu tuple(s) -- WRONG\n",
              flawed.size());
  for (const auto& r : flawed) std::printf("  leaked: %s\n", RowToString(r).c_str());
  std::printf("deferred deletion (this system):     %zu tuple(s) -- correct\n\n",
              correct->size());

  // --- 3. Algorithm selection in the engine --------------------------------
  Session session;
  Schema schema({Field{"id", DataType::Int64(), false},
                 Field{"d1", DataType::Double(), true},
                 Field{"d2", DataType::Double(), true},
                 Field{"d3", DataType::Double(), true}});
  auto table = std::make_shared<Table>("t", schema);
  for (size_t i = 0; i < tuples.size(); ++i) {
    Row row{Value::Int64(static_cast<int64_t>(i))};
    for (const auto& v : tuples[i]) row.push_back(v);
    SL_CHECK_OK(table->AppendRow(std::move(row)));
  }
  SL_CHECK_OK(session.catalog()->RegisterTable(table));

  auto df = session.Sql(
      "SELECT * FROM t SKYLINE OF d1 MIN, d2 MIN, d3 MIN");
  SL_CHECK(df.ok());
  auto explain = df->Explain();
  SL_CHECK(explain.ok());
  std::printf("Physical plan for nullable dimensions (auto selection):\n%s\n\n",
              explain->physical.c_str());
  auto result = df->Collect();
  SL_CHECK(result.ok());
  std::printf("engine skyline of the cycle: %zu rows (expected 0)\n\n",
              result->num_rows());
  SL_CHECK(result->num_rows() == 0);

  // COMPLETE forces the complete algorithm (the user's override, section
  // 5.5); on this *incomplete* data it would give a different answer, which
  // is exactly why the override exists for data that is known complete.
  auto forced = session.Sql(
      "SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN");
  SL_CHECK(forced.ok());
  auto fe = forced->Explain();
  SL_CHECK(fe.ok());
  std::printf("Physical plan with the COMPLETE keyword:\n%s\n",
              fe->physical.c_str());
  return 0;
}
