#include "pim/dpu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace upanns::pim {
namespace {

TEST(Dpu, MramAllocAlignsAndTracks) {
  Dpu dpu(3);
  EXPECT_EQ(dpu.id(), 3u);
  const auto a = dpu.mram_alloc(10, "a");
  const auto b = dpu.mram_alloc(8, "b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 16u);
  EXPECT_EQ(dpu.mram_used(), 24u);
}

TEST(Dpu, MramCapacityEnforced) {
  Dpu dpu;
  dpu.mram_alloc(hw::kMramBytes - 64, "bulk");
  EXPECT_THROW(dpu.mram_alloc(128, "over"), std::runtime_error);
}

TEST(Dpu, HostReadWriteRoundTrip) {
  Dpu dpu;
  const auto off = dpu.mram_alloc(32, "buf");
  std::vector<std::uint8_t> in(32);
  std::iota(in.begin(), in.end(), 0);
  dpu.host_write(off, in.data(), in.size());
  std::vector<std::uint8_t> out(32);
  dpu.host_read(off, out.data(), out.size());
  EXPECT_EQ(in, out);
}

TEST(Dpu, MramMarkRewind) {
  Dpu dpu;
  dpu.mram_alloc(64, "static");
  const auto mark = dpu.mram_mark();
  dpu.mram_alloc(128, "scratch");
  EXPECT_EQ(dpu.mram_used(), 192u);
  dpu.mram_rewind(mark);
  EXPECT_EQ(dpu.mram_used(), 64u);
  EXPECT_THROW(dpu.mram_rewind(mark + 8), std::logic_error);
}

// A trivial two-phase kernel: phase 0 copies MRAM->WRAM per tasklet, phase 1
// charges fixed instructions.
class CopyKernel : public DpuKernel {
 public:
  explicit CopyKernel(std::size_t src_off) : src_off_(src_off) {}
  unsigned n_phases() const override { return 2; }
  void run_phase(unsigned phase, TaskletCtx& ctx) override {
    if (phase == 0) {
      std::uint8_t buf[64];
      ctx.mram_read(src_off_ + ctx.id() * 64, buf, 64);
      sum_ += buf[0];
      ctx.instr(10);
    } else {
      ctx.instr(100);
    }
  }
  int sum_ = 0;

 private:
  std::size_t src_off_;
};

TEST(Dpu, RunAccountsPhasesAndBarriers) {
  Dpu dpu;
  const auto off = dpu.mram_alloc(64 * 4, "src");
  std::vector<std::uint8_t> data(64 * 4, 7);
  dpu.host_write(off, data.data(), data.size());

  CopyKernel k(off);
  const DpuRunStats stats = dpu.run(k, 4);
  EXPECT_EQ(stats.phase_cycles.size(), 2u);
  EXPECT_EQ(k.sum_, 4 * 7);
  EXPECT_EQ(stats.instructions, 4u * 10 + 4u * 100);
  EXPECT_GT(stats.dma_cycles, 0u);
  // Total includes both phases plus two barrier crossings.
  EXPECT_EQ(stats.cycles,
            stats.phase_cycles[0] + stats.phase_cycles[1]);
  EXPECT_GE(stats.phase_cycles[1], 100u * 4 + DpuCostModel::barrier_cycles());
  EXPECT_EQ(dpu.busy_cycles(), stats.cycles);
}

TEST(Dpu, TaskletCountClamped) {
  Dpu dpu;
  dpu.mram_alloc(64 * hw::kMaxTasklets, "src");
  CopyKernel k(0);
  dpu.run(k, 100);  // clamps to 24
  EXPECT_EQ(k.sum_, static_cast<int>(hw::kMaxTasklets) * 0);
}

TEST(TaskletCtx, LargeReadSplitsIntoLegalChunks) {
  Dpu dpu;
  const std::size_t big = 5000;  // > 2048 DMA limit
  const auto off = dpu.mram_alloc(big, "big");
  std::vector<std::uint8_t> in(big);
  std::iota(in.begin(), in.end(), 0);
  dpu.host_write(off, in.data(), big);

  class BigReader : public DpuKernel {
   public:
    explicit BigReader(std::size_t off, std::size_t n) : off_(off), buf_(n) {}
    unsigned n_phases() const override { return 1; }
    void run_phase(unsigned, TaskletCtx& ctx) override {
      if (ctx.id() == 0) ctx.mram_read(off_, buf_.data(), buf_.size());
    }
    std::size_t off_;
    std::vector<std::uint8_t> buf_;
  } k(off, big);

  const auto stats = dpu.run(k, 1);
  EXPECT_EQ(k.buf_, in);
  // 3 DMA transfers: 2048 + 2048 + 904.
  const double expected = DpuCostModel::mram_dma_cycles(2048) * 2 +
                          DpuCostModel::mram_dma_cycles(904);
  EXPECT_NEAR(static_cast<double>(stats.dma_cycles), expected, 1.0);
}

TEST(PimSystem, TopologyCounts) {
  PimSystem sys(896);
  EXPECT_EQ(sys.n_dpus(), 896u);
  EXPECT_EQ(sys.n_dimms(), 7u);
  PimSystem small(100);
  EXPECT_EQ(small.n_dimms(), 1u);
}

TEST(PimSystem, LaunchTakesMaxOverDpus) {
  PimSystem sys(4);
  // Give DPU 2 ten times the work.
  class WorkKernel : public DpuKernel {
   public:
    explicit WorkKernel(std::uint64_t n) : n_(n) {}
    unsigned n_phases() const override { return 1; }
    void run_phase(unsigned, TaskletCtx& ctx) override { ctx.instr(n_); }
    std::uint64_t n_;
  };
  std::vector<std::unique_ptr<WorkKernel>> kernels;
  for (int i = 0; i < 4; ++i) {
    kernels.push_back(std::make_unique<WorkKernel>(i == 2 ? 100000 : 10000));
  }
  const auto stats = sys.launch(
      [&](std::size_t i) -> DpuKernel* { return kernels[i].get(); }, 11,
      std::vector<double>(4, 1.0));
  EXPECT_EQ(stats.slowest_dpu, 2u);
  EXPECT_GT(stats.dpu_seconds[2], stats.dpu_seconds[0]);
  EXPECT_GE(stats.seconds,
            DpuCostModel::cycles_to_seconds(stats.max_cycles));
}

TEST(PimSystem, NullKernelSkipsDpu) {
  PimSystem sys(3);
  class Noop : public DpuKernel {
   public:
    unsigned n_phases() const override { return 1; }
    void run_phase(unsigned, TaskletCtx& ctx) override { ctx.instr(5); }
  } k;
  const auto stats = sys.launch(
      [&](std::size_t i) -> DpuKernel* { return i == 1 ? &k : nullptr; }, 4,
      std::vector<double>(3, 1.0));
  EXPECT_EQ(stats.dpu_seconds[0], 0.0);
  EXPECT_GT(stats.dpu_seconds[1], 0.0);
  EXPECT_EQ(stats.dpu_seconds[2], 0.0);
}

// A kernel whose work depends on its DPU, phase and tasklet, with DMA
// reads, so every LaunchStats field differs across DPUs.
class ShapedKernel : public DpuKernel {
 public:
  ShapedKernel(std::uint64_t scale, std::size_t mram_off)
      : scale_(scale), off_(mram_off) {}
  unsigned n_phases() const override { return 3; }
  void run_phase(unsigned phase, TaskletCtx& ctx) override {
    ctx.instr(scale_ * (phase + 1) + ctx.id() * 7);
    if (phase == 1) {
      std::uint8_t buf[64];
      ctx.mram_read(off_, buf, 8 * (1 + scale_ % 8));
    }
    if (phase == 2 && ctx.id() == 0) ctx.critical_instr(scale_ / 3);
  }

 private:
  std::uint64_t scale_;
  std::size_t off_;
};

void expect_same_launch(const PimSystem::LaunchStats& a,
                        const PimSystem::LaunchStats& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.max_cycles, b.max_cycles);
  EXPECT_EQ(a.slowest_dpu, b.slowest_dpu);
  EXPECT_EQ(a.dpu_seconds, b.dpu_seconds);
  ASSERT_EQ(a.dpu_stats.size(), b.dpu_stats.size());
  for (std::size_t i = 0; i < a.dpu_stats.size(); ++i) {
    EXPECT_EQ(a.dpu_stats[i].cycles, b.dpu_stats[i].cycles) << "dpu " << i;
    EXPECT_EQ(a.dpu_stats[i].phase_cycles, b.dpu_stats[i].phase_cycles)
        << "dpu " << i;
    EXPECT_EQ(a.dpu_stats[i].instructions, b.dpu_stats[i].instructions)
        << "dpu " << i;
    EXPECT_EQ(a.dpu_stats[i].dma_cycles, b.dpu_stats[i].dma_cycles)
        << "dpu " << i;
  }
}

// The dispatch order is a host-speed hint only: any expected-work vector,
// ties and work on idle DPUs included, yields the stats of an index-order
// launch (all weights equal).
TEST(PimSystem, LaunchStatsIndependentOfWorkOrder) {
  constexpr std::size_t kDpus = 13;
  PimSystem sys(kDpus);
  std::vector<std::unique_ptr<ShapedKernel>> kernels(kDpus);
  for (std::size_t i = 0; i < kDpus; ++i) {
    const std::size_t off = sys.dpu(i).mram_alloc(64, "buf");
    // DPUs 4 and 9 idle; 5 and 11 tie for the slowest.
    if (i == 4 || i == 9) continue;
    const std::uint64_t scale = (i == 5 || i == 11) ? 5000 : 300 + 170 * i;
    kernels[i] = std::make_unique<ShapedKernel>(scale, off);
  }
  const auto kernel_for = [&](std::size_t i) -> DpuKernel* {
    return kernels[i].get();
  };
  const PimSystem::LaunchStats ref =
      sys.launch(kernel_for, 11, std::vector<double>(kDpus, 1.0));
  EXPECT_EQ(ref.slowest_dpu, 5u);
  EXPECT_EQ(ref.dpu_stats[4].cycles, 0u);
  EXPECT_EQ(ref.dpu_stats[11].cycles, ref.max_cycles);

  std::vector<std::vector<double>> orders;
  std::vector<double> w(kDpus);
  std::iota(w.begin(), w.end(), 0.0);
  orders.push_back(w);  // ascending: slowest last
  std::reverse(w.begin(), w.end());
  orders.push_back(w);  // descending
  w.assign(kDpus, 0.0);
  w[4] = w[9] = 1e9;  // idle DPUs ranked first
  w[0] = w[1] = 7.0;
  orders.push_back(w);
  w = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9};
  orders.push_back(w);
  for (std::size_t o = 0; o < orders.size(); ++o) {
    SCOPED_TRACE("order " + std::to_string(o));
    expect_same_launch(sys.launch(kernel_for, 11, orders[o]), ref);
  }
}

TEST(PimSystem, ThrowingKernelFailsLaunchAndNextLaunchWorks) {
  constexpr std::size_t kDpus = 9;
  class Throwing : public DpuKernel {
   public:
    unsigned n_phases() const override { return 2; }
    void run_phase(unsigned phase, TaskletCtx& ctx) override {
      ctx.instr(10);
      if (phase == 1 && ctx.id() == 2) throw std::runtime_error("dpu fault");
    }
  } bad;
  std::vector<std::unique_ptr<ShapedKernel>> good(kDpus);
  PimSystem sys(kDpus);
  PimSystem fresh(kDpus);
  for (std::size_t i = 0; i < kDpus; ++i) {
    good[i] = std::make_unique<ShapedKernel>(100 + 50 * i,
                                             sys.dpu(i).mram_alloc(64, "b"));
    fresh.dpu(i).mram_alloc(64, "b");
  }
  const std::vector<double> work(kDpus, 1.0);
  // Many DPUs on the pool, then one DPU on the calling thread.
  EXPECT_THROW(sys.launch(
                   [&](std::size_t i) -> DpuKernel* {
                     return i == 6 ? static_cast<DpuKernel*>(&bad)
                                   : good[i].get();
                   },
                   11, work),
               std::runtime_error);
  EXPECT_THROW(sys.launch(
                   [&](std::size_t i) -> DpuKernel* {
                     return i == 3 ? &bad : nullptr;
                   },
                   11, work),
               std::runtime_error);

  const auto all_good = [&](std::size_t i) -> DpuKernel* {
    return good[i].get();
  };
  expect_same_launch(sys.launch(all_good, 11, work),
                     fresh.launch(all_good, 11, work));
}

}  // namespace
}  // namespace upanns::pim
