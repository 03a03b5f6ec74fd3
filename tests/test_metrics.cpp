#include "metrics/report.hpp"

#include <gtest/gtest.h>

namespace upanns::metrics {
namespace {

TEST(Shares, SumToHundred) {
  baselines::StageTimes t{1, 2, 3, 4, 0};
  const StageShares s = shares(t);
  EXPECT_NEAR(s.cluster_filter + s.lut_build + s.distance_calc + s.topk +
                  s.transfer,
              100.0, 1e-9);
  EXPECT_NEAR(s.distance_calc, 30.0, 1e-9);
}

TEST(Shares, SumToHundredWithNonzeroTransfer) {
  // All five fields participate — transfer is a stage share, not a leftover.
  baselines::StageTimes t{1, 2, 3, 4, 10};
  const StageShares s = shares(t);
  EXPECT_NEAR(s.cluster_filter + s.lut_build + s.distance_calc + s.topk +
                  s.transfer,
              100.0, 1e-9);
  EXPECT_NEAR(s.transfer, 50.0, 1e-9);
  EXPECT_NEAR(s.distance_calc, 15.0, 1e-9);
}

TEST(Shares, ZeroTotalIsAllZero) {
  const StageShares s = shares(baselines::StageTimes{});
  EXPECT_DOUBLE_EQ(s.distance_calc, 0.0);
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Table, PrintDoesNotCrash) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"longer-cell"});  // short row padded
  testing::internal::CaptureStdout();
  t.print();
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("longer-cell"), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
}

}  // namespace
}  // namespace upanns::metrics
