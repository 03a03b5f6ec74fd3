#include "common/stats.hpp"
#include "metrics/report.hpp"

#include <gtest/gtest.h>

namespace upanns::metrics {
namespace {

TEST(Regression, LinearScalingPrediction) {
  // Fig 20 usage: fit 500-900 DPU points, predict 2560.
  const std::vector<double> dpus = {500, 600, 700, 800, 900};
  std::vector<double> qps;
  for (double d : dpus) qps.push_back(0.5 * d + 10.0);
  const common::LinearFit m = common::fit_linear(dpus, qps);
  EXPECT_NEAR(m.predict(2560), 0.5 * 2560 + 10, 1.0);
  EXPECT_GT(m.r2, 0.999);
}

TEST(Regression, NoisyLinearStillGoodFit) {
  const std::vector<double> dpus = {500, 600, 700, 800, 900};
  const std::vector<double> qps = {251, 302, 348, 401, 452};
  const common::LinearFit m = common::fit_linear(dpus, qps);
  EXPECT_GT(m.r2, 0.99);
  EXPECT_GT(m.predict(1654), m.predict(900));
}

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
