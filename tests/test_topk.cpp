#include "common/topk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace upanns::common {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

float from_bits(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

std::uint32_t bits_of(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// The BoundedMaxHeap and HeapPropertyTest suite names predate TopK; the
// contract they pin is unchanged.
TEST(BoundedMaxHeap, KeepsKSmallest) {
  TopK h(3);
  for (float d : {9.f, 1.f, 5.f, 3.f, 7.f, 2.f}) {
    h.push(d, static_cast<std::uint32_t>(d));
  }
  const auto sorted = h.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_FLOAT_EQ(sorted[0].dist, 1.f);
  EXPECT_FLOAT_EQ(sorted[1].dist, 2.f);
  EXPECT_FLOAT_EQ(sorted[2].dist, 3.f);
}

TEST(BoundedMaxHeap, ThresholdIsWorstRetained) {
  TopK h(2);
  h.push(4.f, 0);
  EXPECT_EQ(h.worst(), TopK::pack(4.f, 0));
  h.push(2.f, 1);
  EXPECT_EQ(h.worst(), TopK::pack(4.f, 0));
  h.push(1.f, 2);
  EXPECT_EQ(h.worst(), TopK::pack(2.f, 1));
  EXPECT_EQ(TopK::unpack(h.worst()), (Neighbor{2.f, 1}));
}

TEST(BoundedMaxHeap, RejectsWorseThanThreshold) {
  TopK h(1);
  EXPECT_TRUE(h.push(3.f, 0));
  EXPECT_FALSE(h.push(5.f, 1));
  EXPECT_TRUE(h.push(1.f, 2));
  EXPECT_EQ(h.sorted()[0].id, 2u);
}

TEST(BoundedMaxHeap, ZeroCapacity) {
  TopK h(0);
  EXPECT_FALSE(h.push(1.f, 0));
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(h.full());
}

TEST(BoundedMaxHeap, TieBreaksOnId) {
  TopK h(2);
  h.push(1.f, 9);
  h.push(1.f, 3);
  h.push(1.f, 5);  // ties: ids 3 and 5 must win over 9
  const auto s = h.sorted();
  EXPECT_EQ(s[0].id, 3u);
  EXPECT_EQ(s[1].id, 5u);
}

TEST(BoundedMaxHeap, ClearResets) {
  TopK h(2);
  h.push(1.f, 0);
  h.push(2.f, 1);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.full());
  EXPECT_EQ(h.capacity(), 2u);
  EXPECT_TRUE(h.push(7.f, 3));  // not full again: any candidate enters
  EXPECT_EQ(h.keys().size(), 1u);
}

// Property: TopK output equals sort-and-truncate for random streams.
class HeapPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeapPropertyTest, MatchesSortTruncate) {
  const std::size_t k = GetParam();
  Rng rng(1000 + k);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(500);
    std::vector<Neighbor> all;
    TopK h(k);
    for (std::size_t i = 0; i < n; ++i) {
      Neighbor nb{rng.uniform(0.f, 100.f), static_cast<std::uint32_t>(i)};
      all.push_back(nb);
      h.push(nb);
    }
    std::sort(all.begin(), all.end());
    all.resize(std::min(k, all.size()));
    EXPECT_EQ(h.sorted(), all) << "k=" << k << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, HeapPropertyTest,
                         ::testing::Values(1, 2, 5, 10, 64, 100));

// The contract every caller relies on: push() accepts exactly when the
// reference rule `size < k || n < worst` holds on a sorted vector of what
// was kept. The kernel charges one heap push per accepted candidate
// (chunk_pushes), so the accept sequence is part of the simulated clock,
// not only the final set. Streams are tie-heavy: distances sit on a coarse
// u32 x scale grid like the kernel's, and ids repeat.
class TopKContractTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TopKContractTest, PushSequenceMatchesReferenceRule) {
  const std::size_t k = GetParam();
  Rng rng(500 + k);
  for (const float scale : {1.f, 0.0123f, 3.7e4f}) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::size_t n = rng.below(4 * k + 64);
      const std::size_t grid = 1 + rng.below(2 * k + 4);
      const std::size_t id_range = 1 + rng.below(8 * k + 8);
      TopK top(k);
      std::vector<Neighbor> ref;
      for (std::size_t i = 0; i < n; ++i) {
        const Neighbor nb{
            static_cast<float>(static_cast<std::uint32_t>(rng.below(grid))) *
                scale,
            static_cast<std::uint32_t>(rng.below(id_range))};
        const bool want = ref.size() < k || nb < ref.back();
        ASSERT_EQ(top.push(nb), want)
            << "k=" << k << " scale=" << scale << " push " << i << " ("
            << nb.dist << ", " << nb.id << ")";
        if (want) {
          ref.insert(std::upper_bound(ref.begin(), ref.end(), nb), nb);
          if (ref.size() > k) ref.pop_back();
        }
      }
      ASSERT_EQ(top.sorted(), ref) << "k=" << k << " scale=" << scale;
      if (!ref.empty()) {
        EXPECT_EQ(TopK::unpack(top.worst()), ref.back());
      }
    }
  }
}

// push_each at the avx512 level against push() one candidate at a time:
// the same retained count per run and the same buffer after it. Runs come
// in chunk-sized bursts onto buffers left partly filled by earlier pushes,
// over tie-heavy keys, NaN distances of both signs, the all-ones key (equal
// to the register padding, so only the room rule accepts it) and skipped
// candidates. Capacities above TopK::kRegisterCapacity check the push()
// loop push_each falls back to.
TEST_P(TopKContractTest, PushEachMatchesPushOneByOne) {
  if (static_cast<int>(simd_max_supported()) <
      static_cast<int>(SimdLevel::kAvx512)) {
    GTEST_SKIP() << "no AVX-512 body to check; probed level "
                 << simd_level_name(simd_max_supported());
  }
  const std::size_t k = GetParam();
  Rng rng(900 + k);
  const std::uint32_t special[] = {0x7FC00000u, 0xFFC00000u, 0xFFFFFFFFu,
                                   0x7F800000u};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t grid = 1 + rng.below(2 * k + 4);
    const std::size_t id_range = 1 + rng.below(4 * k + 4);
    const auto draw = [&]() -> std::uint64_t {
      if (rng.below(8) == 0) {
        if (rng.below(3) == 0) return ~std::uint64_t{0};
        return (std::uint64_t{special[rng.below(4)]} << 32) |
               rng.below(id_range);
      }
      return TopK::pack(static_cast<float>(rng.below(grid)) * 0.37f,
                        static_cast<std::uint32_t>(rng.below(id_range)));
    };
    TopK ref(k), bulk(k);
    for (std::size_t pre = rng.below(k + 3); pre > 0; --pre) {
      const std::uint64_t key = draw();
      ASSERT_EQ(bulk.push(key), ref.push(key));
    }
    for (int burst = 0; burst < 4; ++burst) {
      const std::size_t count = rng.below(40);
      std::vector<std::uint64_t> keys(count);
      std::vector<bool> live(count);
      for (std::size_t i = 0; i < count; ++i) {
        keys[i] = draw();
        live[i] = rng.below(5) != 0;
      }
      std::size_t want = 0;
      for (std::size_t i = 0; i < count; ++i) {
        if (live[i] && ref.push(keys[i])) ++want;
      }
      const std::size_t got =
          bulk.push_each(SimdLevel::kAvx512, count,
                         [&](std::size_t i, std::uint64_t& key) {
                           key = keys[i];
                           return static_cast<bool>(live[i]);
                         });
      ASSERT_EQ(got, want) << "k=" << k << " trial " << trial;
      ASSERT_EQ(bulk.size(), ref.size()) << "k=" << k << " trial " << trial;
      ASSERT_TRUE(std::equal(bulk.keys().begin(), bulk.keys().end(),
                             ref.keys().begin()))
          << "k=" << k << " trial " << trial;
    }
  }
}

// 15 and 16 sit on both sides of the insert crossover, so the branch-free
// pass and the shift loop are held to the same rule; 16 is also the
// largest register capacity of push_each, and 8 and 9 put the worst slot
// at the end of its first register and the start of its second.
INSTANTIATE_TEST_SUITE_P(Capacities, TopKContractTest,
                         ::testing::Values(1, 2, 10, 64, 100,
                                           TopK::kBranchFreeCapacity,
                                           TopK::kBranchFreeCapacity + 1, 8,
                                           9));

TEST(TopK, KeyOrderEqualsNeighborOrder) {
  // For every non-negative, non-NaN distance (+0 and +inf included) the
  // integer key order is Neighbor::operator<, id tie-break included.
  const std::vector<float> dists = {0.f,         1e-42f, 1e-30f, 0.5f, 1.f,
                                    1.0000001f, 65535.f, 3e38f,  kInf};
  for (const float a : dists) {
    for (const float b : dists) {
      for (const std::uint32_t ia : {0u, 7u, 0xFFFFFFFEu}) {
        for (const std::uint32_t ib : {0u, 7u, 0xFFFFFFFEu}) {
          const Neighbor x{a, ia}, y{b, ib};
          EXPECT_EQ(TopK::pack(a, ia) < TopK::pack(b, ib), x < y)
              << a << "/" << ia << " vs " << b << "/" << ib;
          EXPECT_EQ(TopK::unpack(TopK::pack(a, ia)), x);
        }
      }
    }
  }
}

TEST(TopK, ZeroInfAndNanOrderDeterministically) {
  // NaN sorts after +inf whatever its sign bit; x86's default NaN (what
  // 0/0 or inf - inf produce at run time) has the sign bit set.
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float default_nan = from_bits(0xFFC00000u);
  ASSERT_EQ(bits_of(qnan), 0x7FC00000u);
  const std::vector<Neighbor> expected = {
      {0.f, 2}, {0.f, 5}, {1.f, 1}, {kInf, 0}, {kInf, 4}, {qnan, 3},
      {default_nan, 6}};
  std::vector<std::size_t> order(expected.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (const std::size_t k :
       {std::size_t{3}, std::size_t{5}, expected.size()}) {
    // Every arrival order keeps the same k and the same key sequence.
    std::sort(order.begin(), order.end());
    do {
      TopK top(k);
      for (const std::size_t i : order) top.push(expected[i]);
      ASSERT_EQ(top.size(), k);
      for (std::size_t i = 0; i < k; ++i) {
        const Neighbor got = TopK::unpack(top.keys()[i]);
        ASSERT_EQ(bits_of(got.dist), bits_of(expected[i].dist))
            << "k=" << k << " rank " << i;
        ASSERT_EQ(got.id, expected[i].id) << "k=" << k << " rank " << i;
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
  // A full buffer of finite distances rejects both NaNs and +inf.
  TopK top(2);
  top.push(1.f, 0);
  top.push(2.f, 1);
  EXPECT_FALSE(top.push(qnan, 2));
  EXPECT_FALSE(top.push(default_nan, 3));
  EXPECT_FALSE(top.push(kInf, 4));
  EXPECT_TRUE(top.push(0.f, 5));
}

TEST(MergeSortedTopk, MergesAcrossLists) {
  std::vector<std::vector<Neighbor>> lists = {
      {{1.f, 1}, {4.f, 4}}, {{2.f, 2}, {5.f, 5}}, {{3.f, 3}}};
  const auto merged = merge_sorted_topk(lists, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 1u);
  EXPECT_EQ(merged[1].id, 2u);
  EXPECT_EQ(merged[2].id, 3u);
}

TEST(MergeSortedTopk, EmptyLists) {
  EXPECT_TRUE(merge_sorted_topk({}, 5).empty());
  EXPECT_TRUE(merge_sorted_topk({{}, {}}, 5).empty());
  EXPECT_TRUE(merge_sorted_topk({{{1.f, 1}}}, 0).empty());
}

TEST(MergeSortedTopk, FewerThanK) {
  const auto merged = merge_sorted_topk({{{1.f, 1}}}, 10);
  EXPECT_EQ(merged.size(), 1u);
}

TEST(MergeSortedTopk, TiesAcrossListsIndependentOfListOrder) {
  // A candidate with the worst's distance and a lower id beats the worst,
  // so the answer must not depend on the order the hosts' or DPUs' lists
  // arrive in.
  EXPECT_EQ(merge_sorted_topk({{{1.f, 5}}, {{1.f, 3}}}, 1),
            (std::vector<Neighbor>{{1.f, 3}}));
  EXPECT_EQ(merge_sorted_topk({{{1.f, 3}}, {{1.f, 5}}}, 1),
            (std::vector<Neighbor>{{1.f, 3}}));

  std::vector<std::vector<Neighbor>> lists = {
      {{0.5f, 9}, {1.f, 8}, {1.f, 12}, {2.f, 1}},
      {{1.f, 4}, {1.f, 7}, {2.f, 0}},
      {{0.5f, 2}, {1.f, 6}, {1.f, 11}}};
  std::vector<Neighbor> all;
  for (const auto& list : lists) {
    all.insert(all.end(), list.begin(), list.end());
  }
  std::sort(all.begin(), all.end());
  for (const std::size_t k : {1u, 3u, 4u, 6u, 8u}) {
    const std::vector<Neighbor> want(all.begin(), all.begin() + k);
    std::vector<std::size_t> order = {0, 1, 2};
    do {
      std::vector<std::vector<Neighbor>> permuted;
      for (const std::size_t i : order) permuted.push_back(lists[i]);
      EXPECT_EQ(merge_sorted_topk(permuted, k), want) << "k=" << k;
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

TEST(MergeSortedTopk, PropertyMatchesGlobalSort) {
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n_lists = 1 + rng.below(8);
    const std::size_t k = 1 + rng.below(20);
    std::vector<std::vector<Neighbor>> lists(n_lists);
    std::vector<Neighbor> all;
    std::uint32_t id = 0;
    for (auto& list : lists) {
      const std::size_t len = rng.below(30);
      for (std::size_t i = 0; i < len; ++i) {
        list.push_back({rng.uniform(0.f, 10.f), id++});
      }
      std::sort(list.begin(), list.end());
      all.insert(all.end(), list.begin(), list.end());
    }
    std::sort(all.begin(), all.end());
    all.resize(std::min(k, all.size()));
    EXPECT_EQ(merge_sorted_topk(lists, k), all);
  }
}

}  // namespace
}  // namespace upanns::common
