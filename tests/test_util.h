// Shared helpers for the sparkline test suite.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataframe.h"
#include "api/session.h"
#include "catalog/table.h"
#include "skyline/columnar.h"

namespace sparkline {
namespace testing {

/// Renders rows as a sorted multiset of strings, for order-insensitive
/// result comparison.
inline std::vector<std::string> RowStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.push_back(RowToString(r));
  std::sort(out.begin(), out.end());
  return out;
}

/// Asserts that two row sets are equal as multisets.
#define EXPECT_SAME_ROWS(a, b)                                 \
  EXPECT_EQ(::sparkline::testing::RowStrings(a),               \
            ::sparkline::testing::RowStrings(b))

/// Unwraps a Result<T>, failing the test on error.
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  auto SL_CONCAT(_r_, __LINE__) = (expr);                      \
  ASSERT_TRUE(SL_CONCAT(_r_, __LINE__).ok())                   \
      << SL_CONCAT(_r_, __LINE__).status().ToString();         \
  lhs = std::move(SL_CONCAT(_r_, __LINE__)).MoveValue();

#define ASSERT_OK(expr)                                        \
  do {                                                         \
    ::sparkline::Status _st = (expr);                          \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (0)

#define EXPECT_OK(expr)                                        \
  do {                                                         \
    ::sparkline::Status _st = (expr);                          \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (0)

/// A small 3-column numeric table ("points": id, x, y), optionally with
/// nulls in y.
inline TablePtr MakePointsTable(const std::string& name,
                                std::vector<std::array<double, 3>> rows,
                                bool y_nullable = false,
                                std::vector<size_t> null_y_at = {}) {
  Schema schema({Field{"id", DataType::Int64(), false},
                 Field{"x", DataType::Double(), false},
                 Field{"y", DataType::Double(), y_nullable}});
  auto table = std::make_shared<Table>(name, schema);
  for (size_t i = 0; i < rows.size(); ++i) {
    Row row{Value::Int64(static_cast<int64_t>(rows[i][0])),
            Value::Double(rows[i][1]), Value::Double(rows[i][2])};
    if (std::find(null_y_at.begin(), null_y_at.end(), i) != null_y_at.end()) {
      row[2] = Value::Null(DataType::Double());
    }
    SL_CHECK_OK(table->AppendRow(std::move(row)));
  }
  return table;
}

/// The all-pairs incomplete skyline (ColumnarAllPairsIncomplete) over
/// rows: one matrix, all rows, survivors materialized in input order.
inline Result<std::vector<Row>> AllPairsSkyline(
    const std::vector<Row>& rows,
    const std::vector<skyline::BoundDimension>& dims,
    const skyline::SkylineOptions& options) {
  SL_ASSIGN_OR_RETURN(skyline::DominanceMatrix matrix,
                      skyline::DominanceMatrix::Build(rows, dims));
  SL_ASSIGN_OR_RETURN(std::vector<uint32_t> survivors,
                      skyline::ColumnarAllPairsIncomplete(
                          matrix, skyline::AllIndices(matrix), options));
  return skyline::MaterializeRows(rows, survivors);
}

/// Runs SQL in the session and returns the rows (asserting success).
inline std::vector<Row> Rows(Session* session, const std::string& sql) {
  auto df = session->Sql(sql);
  SL_CHECK(df.ok()) << sql << " -> " << df.status().ToString();
  auto result = df->Collect();
  SL_CHECK(result.ok()) << sql << " -> " << result.status().ToString();
  return result->rows();
}

}  // namespace testing
}  // namespace sparkline
