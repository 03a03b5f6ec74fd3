#include "pim/cost_model.hpp"

#include <gtest/gtest.h>

namespace upanns::pim {
namespace {

TEST(MramDma, LegalizeAlignsAndClamps) {
  EXPECT_EQ(DpuCostModel::legalize_transfer(1), 8u);
  EXPECT_EQ(DpuCostModel::legalize_transfer(8), 8u);
  EXPECT_EQ(DpuCostModel::legalize_transfer(9), 16u);
  EXPECT_EQ(DpuCostModel::legalize_transfer(2048), 2048u);
  EXPECT_EQ(DpuCostModel::legalize_transfer(5000), 2048u);
}

TEST(MramDma, LatencyMonotone) {
  double prev = 0;
  for (std::size_t b = 8; b <= 2048; b *= 2) {
    const double lat = DpuCostModel::mram_dma_cycles(b);
    EXPECT_GT(lat, prev);
    prev = lat;
  }
}

TEST(MramDma, Fig7KneeShape) {
  // Paper Fig 7: latency grows slowly below ~256 B (setup-dominated) and
  // nearly linearly beyond. Check relative growth rates.
  const double l8 = DpuCostModel::mram_dma_cycles(8);
  const double l256 = DpuCostModel::mram_dma_cycles(256);
  const double l2048 = DpuCostModel::mram_dma_cycles(2048);
  // 32x size increase below the knee costs < 3x latency...
  EXPECT_LT(l256 / l8, 3.0);
  // ...while the 8x increase beyond it is nearly proportional (> 4x).
  EXPECT_GT(l2048 / l256, 4.0);
}

TEST(MramDma, PerByteEfficiencyImprovesWithSize) {
  // Cost per byte must strictly decrease: the basis of the Fig 17 read-size
  // tuning (bigger reads amortize the setup cost).
  const double per8 = DpuCostModel::mram_dma_cycles(8) / 8.0;
  const double per64 = DpuCostModel::mram_dma_cycles(64) / 64.0;
  const double per2048 = DpuCostModel::mram_dma_cycles(2048) / 2048.0;
  EXPECT_GT(per8, per64);
  EXPECT_GT(per64, per2048);
}

TEST(IssueGap, SaturatesAtEleven) {
  EXPECT_EQ(DpuCostModel::issue_gap(1), hw::kPipelineSaturation);
  EXPECT_EQ(DpuCostModel::issue_gap(11), 11u);
  EXPECT_EQ(DpuCostModel::issue_gap(16), 16u);
  EXPECT_EQ(DpuCostModel::issue_gap(24), 24u);
}

std::vector<TaskletWork> balanced(unsigned t, std::uint64_t instr_per,
                                  std::uint64_t dma_per = 0) {
  std::vector<TaskletWork> w(t);
  for (auto& x : w) {
    x.instructions = instr_per;
    x.dma_cycles = dma_per;
  }
  return w;
}

TEST(PhaseCycles, Fig13LinearSpeedupToEleven) {
  // Fixed total work split across T tasklets: time must drop ~1/T up to 11
  // tasklets and stay flat beyond — the law behind paper Fig 13.
  const std::uint64_t total = 110000;
  const std::uint64_t t1 = DpuCostModel::phase_cycles(balanced(1, total));
  for (unsigned t : {2u, 4u, 8u, 11u}) {
    const std::uint64_t tt =
        DpuCostModel::phase_cycles(balanced(t, total / t));
    EXPECT_NEAR(static_cast<double>(t1) / static_cast<double>(tt), t,
                0.05 * t)
        << "tasklets=" << t;
  }
  const std::uint64_t t11 = DpuCostModel::phase_cycles(balanced(11, total / 11));
  for (unsigned t : {16u, 24u}) {
    const std::uint64_t tt =
        DpuCostModel::phase_cycles(balanced(t, total / t));
    EXPECT_NEAR(static_cast<double>(tt), static_cast<double>(t11), 0.02 * t11)
        << "tasklets=" << t;
  }
}

TEST(PhaseCycles, IssueBandwidthLowerBound) {
  // Even with 24 tasklets, total cycles >= total instructions.
  const auto w = balanced(24, 1000);
  EXPECT_GE(DpuCostModel::phase_cycles(w), 24u * 1000u);
}

TEST(PhaseCycles, DmaEngineSerializes) {
  // DMA-heavy tasklets are bounded by the single DMA engine: sum of DMA
  // cycles is a lower bound regardless of tasklet count.
  auto w = balanced(11, 10, /*dma=*/50000);
  EXPECT_GE(DpuCostModel::phase_cycles(w), 11u * 50000u);
}

TEST(PhaseCycles, StragglerDominates) {
  // One tasklet with 10x the work sets the critical path.
  auto w = balanced(11, 100);
  w[3].instructions = 10000;
  const std::uint64_t expect_path = 11ull * 10000;
  EXPECT_GE(DpuCostModel::phase_cycles(w), expect_path);
}

TEST(PhaseCycles, CriticalSectionsAddSerialized) {
  auto w = balanced(4, 100);
  const std::uint64_t base = DpuCostModel::phase_cycles(w);
  for (auto& x : w) x.critical_instructions = 50;
  const std::uint64_t with_crit = DpuCostModel::phase_cycles(w);
  EXPECT_GE(with_crit, base + 4 * 50);  // at least the serialized work
}

TEST(PhaseCycles, EmptyIsZero) {
  EXPECT_EQ(DpuCostModel::phase_cycles({}), 0u);
}

TEST(Cycles, SecondsConversion) {
  EXPECT_DOUBLE_EQ(DpuCostModel::cycles_to_seconds(350'000'000), 1.0);
}

}  // namespace
}  // namespace upanns::pim
