#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace upanns::common {
namespace {

TEST(Summarize, EmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summarize, BasicMoments) {
  const Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.sum, 15.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Summarize, SingleValue) {
  const Summary s = summarize({7.5});
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Percentile, Median) {
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 0.5), 2.0);
}

TEST(Percentile, Extremes) {
  EXPECT_DOUBLE_EQ(percentile({5, 1, 9}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 9}, 1.0), 9.0);
}

TEST(Percentile, Interpolates) {
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 0.25), 2.5);
}

TEST(Percentile, ClampsP) {
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, -1.0), 1.0);
}

TEST(MaxOverMean, BalancedIsOne) {
  EXPECT_DOUBLE_EQ(max_over_mean({4, 4, 4, 4}), 1.0);
}

TEST(MaxOverMean, DetectsSkew) {
  // One hot DPU with 4x the average load -> ratio well above 1 (Fig 11).
  EXPECT_NEAR(max_over_mean({1, 1, 1, 9}), 3.0, 1e-12);
}

TEST(MaxOverMean, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(max_over_mean({}), 0.0);
}

TEST(MaxOverMean, AllZeroIsZeroNotNan) {
  // A batch where no DPU ran at all (zero mean) must not divide by zero:
  // the pipeline feeds raw busy-seconds vectors straight in.
  EXPECT_DOUBLE_EQ(max_over_mean({0, 0, 0, 0}), 0.0);
}

TEST(MaxOverMean, IdleMembersCountTowardTheMean) {
  // Idle-but-present entries drag the mean down and must not be dropped:
  // one busy DPU out of four is a 4x imbalance, not a balanced 1.0.
  EXPECT_NEAR(max_over_mean({8, 0, 0, 0}), 4.0, 1e-12);
}

TEST(LinearFit, ExactLine) {
  const LinearFit f = fit_linear({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
  EXPECT_NEAR(f.predict(10), 21.0, 1e-12);
}

TEST(LinearFit, NoisyLineHighR2) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i + 5.0 + ((i % 2 == 0) ? 0.3 : -0.3));
  }
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 0.01);
  EXPECT_GT(f.r2, 0.999);
}

TEST(LinearFit, ExtrapolatesTheFig20Line) {
  // Fig 20 usage: fit 500-900 DPU points, predict 2560.
  const std::vector<double> dpus = {500, 600, 700, 800, 900};
  std::vector<double> qps;
  for (double d : dpus) qps.push_back(0.5 * d + 10.0);
  const LinearFit m = fit_linear(dpus, qps);
  EXPECT_NEAR(m.predict(2560), 0.5 * 2560 + 10, 1.0);
  EXPECT_GT(m.r2, 0.999);
}

TEST(LinearFit, NoisyDpuSweepKeepsItsOrder) {
  const std::vector<double> dpus = {500, 600, 700, 800, 900};
  const std::vector<double> qps = {251, 302, 348, 401, 452};
  const LinearFit m = fit_linear(dpus, qps);
  EXPECT_GT(m.r2, 0.99);
  EXPECT_GT(m.predict(1654), m.predict(900));
}

TEST(LinearFit, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(fit_linear({}, {}).slope, 0.0);
  EXPECT_DOUBLE_EQ(fit_linear({1}, {2}).slope, 0.0);
  // Vertical data (all same x) must not divide by zero.
  const LinearFit f = fit_linear({3, 3, 3}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
}

}  // namespace
}  // namespace upanns::common
