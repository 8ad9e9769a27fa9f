// Tests for the dataset generators and CSV IO.
#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "datagen/csv.h"
#include "datagen/datagen.h"
#include "skyline/algorithms.h"
#include "test_util.h"

namespace sparkline {
namespace datagen {
namespace {

TEST(AirbnbGenTest, SchemaMatchesPaperTable1) {
  AirbnbOptions opts;
  opts.num_rows = 100;
  auto t = GenerateAirbnb(opts);
  const Schema& s = t->schema();
  ASSERT_EQ(s.num_fields(), 7u);
  EXPECT_EQ(s.field(0).name, "id");
  EXPECT_EQ(s.field(1).name, "price");
  EXPECT_EQ(s.field(2).name, "accommodates");
  EXPECT_EQ(s.field(3).name, "bedrooms");
  EXPECT_EQ(s.field(4).name, "beds");
  EXPECT_EQ(s.field(5).name, "number_of_reviews");
  EXPECT_EQ(s.field(6).name, "review_scores_rating");
  EXPECT_EQ(t->num_rows(), 100u);
}

TEST(AirbnbGenTest, DeterministicInSeed) {
  AirbnbOptions opts;
  opts.num_rows = 50;
  auto a = GenerateAirbnb(opts);
  auto b = GenerateAirbnb(opts);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(RowToString(a->rows()[i]), RowToString(b->rows()[i]));
  }
}

TEST(AirbnbGenTest, CompleteVariantHasNoNulls) {
  AirbnbOptions opts;
  opts.num_rows = 200;
  auto t = GenerateAirbnb(opts);  // incomplete = false
  for (const Row& row : t->rows()) {
    for (const auto& v : row) EXPECT_FALSE(v.is_null());
  }
}

TEST(AirbnbGenTest, IncompleteVariantCompleteFractionNearPaper) {
  // Paper section 6.2: 820,698 complete of 1,193,465 (~69%).
  AirbnbOptions opts;
  opts.num_rows = 5000;
  opts.incomplete = true;
  auto t = GenerateAirbnb(opts);
  auto complete = CompleteSubset(*t, "complete");
  const double frac =
      static_cast<double>(complete->num_rows()) / t->num_rows();
  EXPECT_NEAR(frac, 0.69, 0.08);
}

TEST(StoreSalesGenTest, SchemaMatchesPaperTable2) {
  StoreSalesOptions opts;
  opts.num_rows = 100;
  auto t = GenerateStoreSales(opts);
  ASSERT_EQ(t->schema().num_fields(), 8u);
  EXPECT_EQ(t->schema().field(2).name, "ss_quantity");
  EXPECT_EQ(t->schema().field(7).name, "ss_ext_sales_price");
}

TEST(StoreSalesGenTest, PriceCorrelationsHold) {
  StoreSalesOptions opts;
  opts.num_rows = 500;
  auto t = GenerateStoreSales(opts);
  for (const auto& row : t->rows()) {
    const double wholesale = row[3].double_value();
    const double list = row[4].double_value();
    const double sales = row[5].double_value();
    EXPECT_GE(list, wholesale);  // list price marks up wholesale cost
    EXPECT_LE(sales, list + 1e-9);
  }
}

TEST(StoreSalesGenTest, QuantityIsLowCardinality) {
  StoreSalesOptions opts;
  opts.num_rows = 2000;
  auto t = GenerateStoreSales(opts);
  std::set<int64_t> values;
  for (const auto& row : t->rows()) values.insert(row[2].int64_value());
  EXPECT_LE(values.size(), 100u);
}

TEST(StoreSalesGenTest, IncompleteVariantInjectsNulls) {
  StoreSalesOptions opts;
  opts.num_rows = 2000;
  opts.incomplete = true;
  auto t = GenerateStoreSales(opts);
  size_t nulls = 0;
  for (const auto& row : t->rows()) {
    for (size_t c = 2; c < 8; ++c) nulls += row[c].is_null() ? 1 : 0;
  }
  const double rate = static_cast<double>(nulls) / (2000.0 * 6.0);
  EXPECT_NEAR(rate, opts.null_rate, 0.02);
  // Keys are never null.
  for (const auto& row : t->rows()) {
    EXPECT_FALSE(row[0].is_null());
    EXPECT_FALSE(row[1].is_null());
  }
}

TEST(MusicBrainzGenTest, TablesAndConstraints) {
  MusicBrainzOptions opts;
  opts.num_recordings = 500;
  auto mb = GenerateMusicBrainz(opts);
  EXPECT_EQ(mb.recording_complete->num_rows(), 500u);
  EXPECT_EQ(mb.recording_incomplete->num_rows(), 500u);
  EXPECT_EQ(mb.recording_meta->num_rows(), 500u);
  EXPECT_GT(mb.track->num_rows(), 0u);
  ASSERT_EQ(mb.recording_complete->constraints().foreign_keys.size(), 1u);
  EXPECT_EQ(mb.recording_complete->constraints().foreign_keys[0].ref_table,
            "recording_meta");
}

TEST(MusicBrainzGenTest, CompleteRecordingsHaveNoNulls) {
  auto mb = GenerateMusicBrainz({500, 9});
  for (const Row& row : mb.recording_complete->rows()) {
    for (const auto& v : row) EXPECT_FALSE(v.is_null());
  }
  size_t nulls = 0;
  for (const auto& row : mb.recording_incomplete->rows()) {
    nulls += row[1].is_null() ? 1 : 0;
  }
  EXPECT_GT(nulls, 0u);
}

TEST(MusicBrainzGenTest, RatingsAreSparse) {
  auto mb = GenerateMusicBrainz({1000, 10});
  size_t rated = 0;
  for (const auto& row : mb.recording_meta->rows()) {
    rated += row[1].is_null() ? 0 : 1;
  }
  EXPECT_NEAR(static_cast<double>(rated) / 1000.0, 0.34, 0.06);
}

TEST(PointsGenTest, DistributionsAffectSkylineSize) {
  // Anti-correlated data has (much) larger skylines than correlated data --
  // the classic skyline workload fact the micro benches rely on.
  auto corr = GeneratePoints("c", 1000, 3, PointDistribution::kCorrelated, 3);
  auto anti =
      GeneratePoints("a", 1000, 3, PointDistribution::kAntiCorrelated, 3);
  auto skyline_size = [](const TablePtr& t) {
    std::vector<skyline::BoundDimension> dims{{1, SkylineGoal::kMin},
                                              {2, SkylineGoal::kMin},
                                              {3, SkylineGoal::kMin}};
    return skyline::BruteForceSkyline(t->rows(), dims, {}).size();
  };
  EXPECT_GT(skyline_size(anti), 3 * skyline_size(corr));
}

TEST(CsvTest, RoundTripsValuesAndNulls) {
  Schema s({Field{"i", DataType::Int64(), false},
            Field{"d", DataType::Double(), true},
            Field{"t", DataType::String(), true}});
  auto t = std::make_shared<Table>("rt", s);
  ASSERT_OK(t->AppendRow(
      {Value::Int64(1), Value::Double(2.5), Value::String("plain")}));
  ASSERT_OK(t->AppendRow({Value::Int64(2), Value::Null(DataType::Double()),
                          Value::String("with, comma and \"quote\"")}));
  ASSERT_OK(t->AppendRow(
      {Value::Int64(3), Value::Double(-1), Value::Null(DataType::String())}));

  const std::string path = ::testing::TempDir() + "/sparkline_csv_test.csv";
  ASSERT_OK(WriteCsv(*t, path));
  auto back = ReadCsv(path, s, "rt2");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ((*back)->num_rows(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(RowToString(t->rows()[i]), RowToString((*back)->rows()[i]));
  }
  std::remove(path.c_str());
}

TEST(CsvTest, HeaderMismatchFails) {
  Schema a({Field{"x", DataType::Int64(), false}});
  auto t = std::make_shared<Table>("x", a);
  const std::string path = ::testing::TempDir() + "/sparkline_csv_hdr.csv";
  ASSERT_OK(WriteCsv(*t, path));
  Schema b({Field{"y", DataType::Int64(), false}});
  EXPECT_FALSE(ReadCsv(path, b, "y").ok());
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  Schema s({Field{"x", DataType::Int64(), false}});
  EXPECT_FALSE(ReadCsv("/nonexistent/file.csv", s, "x").ok());
}

}  // namespace
}  // namespace datagen
}  // namespace sparkline
