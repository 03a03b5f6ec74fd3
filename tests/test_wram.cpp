#include "pim/wram.hpp"

#include <gtest/gtest.h>

namespace upanns::pim {
namespace {

TEST(Wram, DefaultCapacityIs64K) {
  WramAllocator w;
  EXPECT_EQ(w.capacity(), 64u * 1024);
  EXPECT_EQ(w.used(), 0u);
}

TEST(Wram, AllocAdvancesAligned) {
  WramAllocator w(1024);
  const auto a = w.alloc(10, "a");
  const auto b = w.alloc(8, "b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 16u);  // 10 rounds up to 16
  EXPECT_EQ(w.used(), 24u);
}

TEST(Wram, OverflowThrowsWithContext) {
  WramAllocator w(64);
  w.alloc(56, "big");
  try {
    w.alloc(16, "codebook");
    FAIL() << "expected WramOverflow";
  } catch (const WramOverflow& e) {
    EXPECT_NE(std::string(e.what()).find("codebook"), std::string::npos);
  }
}

TEST(Wram, ExactFitSucceeds) {
  WramAllocator w(64);
  EXPECT_NO_THROW(w.alloc(64, "all"));
  EXPECT_THROW(w.alloc(8, "more"), WramOverflow);
}

TEST(Wram, MarkRewindReusesSpace) {
  // The Fig 6 reuse pattern: LUT stays, codebook region is rewound and
  // reallocated as per-tasklet read buffers.
  WramAllocator w(100);
  w.alloc(40, "lut");
  const auto mark = w.mark();
  w.alloc(48, "codebook");
  EXPECT_THROW(w.alloc(16, "buffers"), WramOverflow);
  w.rewind(mark);
  EXPECT_NO_THROW(w.alloc(48, "buffers"));
}

TEST(Wram, RewindPastTopThrows) {
  WramAllocator w(100);
  const auto mark = w.mark();
  EXPECT_THROW(w.rewind(mark + 8), std::logic_error);
}

TEST(Wram, HighWaterTracksPeak) {
  WramAllocator w(100);
  w.alloc(80, "a");
  w.rewind(0);
  w.alloc(8, "b");
  EXPECT_EQ(w.high_water(), 80u);
  EXPECT_EQ(w.used(), 8u);
}

TEST(Wram, ResetClears) {
  WramAllocator w(100);
  w.alloc(48, "x");
  w.reset();
  EXPECT_EQ(w.used(), 0u);
  EXPECT_NO_THROW(w.alloc(96, "y"));
}

TEST(Wram, PaperBudgetSiftLayoutFits) {
  // The paper's SIFT working set: 32 KB codebook + 8 KB LUT + 8 KB partial
  // sums fits; adding 16 x 2 KB read buffers does NOT unless the codebook
  // region is reused (Sec 4.2.2).
  WramAllocator w;
  w.alloc(8 * 1024, "lut");
  w.alloc(8 * 1024, "combo-sums");
  const auto mark = w.mark();
  w.alloc(32 * 1024, "codebook");
  EXPECT_THROW(
      [&] {
        for (int t = 0; t < 16; ++t) w.alloc(2048, "read-buffer");
      }(),
      WramOverflow);
  w.rewind(mark);
  EXPECT_NO_THROW([&] {
    for (int t = 0; t < 16; ++t) w.alloc(2048, "read-buffer");
  }());
}

}  // namespace
}  // namespace upanns::pim
