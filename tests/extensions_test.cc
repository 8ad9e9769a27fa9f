// Tests for the paper's section-7 future-work features implemented here:
// the SFS kernel and angle-based partitioning.
#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "test_util.h"

namespace sparkline {
namespace {

using ::sparkline::testing::Rows;

class ExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<Session>();
    ASSERT_OK(session_->SetConf("sparkline.executors", "4"));
    ASSERT_OK(session_->catalog()->RegisterTable(datagen::GeneratePoints(
        "anti", 600, 3, datagen::PointDistribution::kAntiCorrelated, 5)));
  }

  std::string PhysicalTree(const std::string& sql) {
    auto df = session_->Sql(sql);
    SL_CHECK(df.ok()) << df.status().ToString();
    auto info = df->Explain();
    SL_CHECK(info.ok()) << info.status().ToString();
    return info->physical;
  }

  std::unique_ptr<Session> session_;
};

constexpr const char* kQuery =
    "SELECT * FROM anti SKYLINE OF d0 MIN, d1 MIN, d2 MIN";

TEST_F(ExtensionsTest, SfsKernelProducesSameSkyline) {
  auto bnl = Rows(session_.get(), kQuery);
  ASSERT_OK(session_->SetConf("sparkline.skyline.kernel", "sfs"));
  auto sfs = Rows(session_.get(), kQuery);
  EXPECT_SAME_ROWS(bnl, sfs);
  EXPECT_NE(PhysicalTree(kQuery).find("sfs"), std::string::npos);
}

TEST_F(ExtensionsTest, UnknownKernelRejected) {
  EXPECT_FALSE(session_->SetConf("sparkline.skyline.kernel", "quadtree").ok());
}

TEST_F(ExtensionsTest, AnglePartitioningPreservesResults) {
  auto as_is = Rows(session_.get(), kQuery);
  ASSERT_OK(session_->SetConf("sparkline.skyline.partitioning", "angle"));
  auto angle = Rows(session_.get(), kQuery);
  EXPECT_SAME_ROWS(as_is, angle);
}

TEST_F(ExtensionsTest, AnglePartitioningAddsExchange) {
  ASSERT_OK(session_->SetConf("sparkline.skyline.partitioning", "angle"));
  EXPECT_NE(PhysicalTree(kQuery).find("Exchange [Angle]"), std::string::npos);
  ASSERT_OK(session_->SetConf("sparkline.skyline.partitioning", "asis"));
  EXPECT_EQ(PhysicalTree(kQuery).find("Exchange [Angle]"), std::string::npos);
}

TEST_F(ExtensionsTest, AnglePartitioningPrunesMoreOnAntiCorrelatedData) {
  // Angle partitioning groups tuples that can dominate each other, so the
  // union of local skylines shipped to the global stage shrinks and fewer
  // dominance tests happen overall.
  auto tests_with = [&](const char* scheme) {
    SL_CHECK_OK(session_->SetConf("sparkline.skyline.partitioning", scheme));
    SL_CHECK_OK(session_->SetConf("sparkline.executors", "8"));
    auto df = session_->Sql(kQuery);
    SL_CHECK(df.ok());
    auto r = df->Collect();
    SL_CHECK(r.ok());
    return r->metrics.dominance_tests;
  };
  // The as-is scan partitions are the baseline: contiguous chunks of
  // generated rows, with no order in dimension space.
  const int64_t as_is = tests_with("asis");
  const int64_t angle = tests_with("angle");
  EXPECT_LT(angle, as_is);
}

TEST(SfsKernelTest, MatchesAcrossStrategiesAndData) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.skyline.kernel", "sfs"));
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 400, 4, datagen::PointDistribution::kIndependent, 9)));
  const std::string q =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MAX, d3 MIN";
  auto expected = Rows(&session, q);
  for (const char* strategy : {"distributed", "non_distributed"}) {
    ASSERT_OK(session.SetConf("sparkline.skyline.strategy", strategy));
    auto rows = Rows(&session, q);
    EXPECT_SAME_ROWS(expected, rows) << strategy;
  }
}

}  // namespace
}  // namespace sparkline
