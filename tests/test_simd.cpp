// Cross-path SIMD parity: every kernel with scalar / SSE2 / AVX2 variants
// must return bit-identical results at every dispatch level (DESIGN.md §13
// — each kernel fixes its accumulation order independently of vector
// width, so width is unobservable). These tests pin that, plus the dispatch
// plumbing itself (parse / clamp / env override), the libm-free
// round_nonneg helper against std::round over the uint16 LUT domain, and
// the kernel's vectorized LUT quantizer against its scalar reference.
#include "common/simd_dispatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/fastround.hpp"
#include "common/rng.hpp"
#include "core/dpu_kernel.hpp"
#include "core/engine.hpp"
#include "data/dataset.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "quant/kmeans.hpp"
#include "quant/pq.hpp"

namespace upanns {
namespace {

bool supported(common::SimdLevel l) {
  return static_cast<int>(common::simd_max_supported()) >=
         static_cast<int>(l);
}

std::vector<common::SimdLevel> supported_levels() {
  std::vector<common::SimdLevel> out{common::SimdLevel::kScalar};
  if (supported(common::SimdLevel::kSse2)) out.push_back(common::SimdLevel::kSse2);
  if (supported(common::SimdLevel::kAvx2)) out.push_back(common::SimdLevel::kAvx2);
  return out;
}

/// Restore the dispatch level on scope exit so test order cannot leak.
struct LevelGuard {
  common::SimdLevel prev = common::simd_active_level();
  ~LevelGuard() { common::set_simd_level(prev); }
};

std::vector<float> random_vec(common::Rng& rng, std::size_t n,
                              float lo = -4.f, float hi = 4.f) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

TEST(SimdDispatch, ParseAndNameRoundTrip) {
  for (const auto l : {common::SimdLevel::kScalar, common::SimdLevel::kSse2,
                       common::SimdLevel::kAvx2}) {
    common::SimdLevel parsed;
    ASSERT_TRUE(common::parse_simd_level(common::simd_level_name(l), &parsed));
    EXPECT_EQ(parsed, l);
  }
  common::SimdLevel parsed;
  EXPECT_FALSE(common::parse_simd_level("avx512", &parsed));
  EXPECT_FALSE(common::parse_simd_level("", &parsed));
  EXPECT_FALSE(common::parse_simd_level("SSE2 ", &parsed));
}

TEST(SimdDispatch, SetClampsToSupportedAndSticks) {
  LevelGuard guard;
  // Requesting the max is always satisfiable; requesting above the probe
  // result clamps rather than faulting.
  const auto eff = common::set_simd_level(common::SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(eff),
            static_cast<int>(common::simd_max_supported()));
  EXPECT_EQ(common::simd_active_level(), eff);
  EXPECT_EQ(common::set_simd_level(common::SimdLevel::kScalar),
            common::SimdLevel::kScalar);
  EXPECT_EQ(common::simd_active_level(), common::SimdLevel::kScalar);
}

TEST(SimdKernels, L2SqBitExactAcrossImplementations) {
  common::Rng rng(17);
  for (const std::size_t dim :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{24}, std::size_t{51}, std::size_t{128}}) {
    for (int rep = 0; rep < 8; ++rep) {
      const auto a = random_vec(rng, dim);
      const auto b = random_vec(rng, dim);
      const float scalar = quant::detail::l2_sq_scalar(a.data(), b.data(), dim);
      const float sse2 = quant::detail::l2_sq_sse2(a.data(), b.data(), dim);
      EXPECT_EQ(std::memcmp(&scalar, &sse2, sizeof(float)), 0)
          << "sse2 dim=" << dim;
      if (supported(common::SimdLevel::kAvx2)) {
        const float avx2 =
            quant::detail::l2_sq_avx2(a.data(), b.data(), dim);
        EXPECT_EQ(std::memcmp(&scalar, &avx2, sizeof(float)), 0)
            << "avx2 dim=" << dim;
      }
    }
  }
}

TEST(SimdKernels, DispatchedL2SqMatchesScalarAtEveryLevel) {
  LevelGuard guard;
  common::Rng rng(23);
  const auto a = random_vec(rng, 51);
  const auto b = random_vec(rng, 51);
  const float want = quant::detail::l2_sq_scalar(a.data(), b.data(), 51);
  for (const auto level : supported_levels()) {
    common::set_simd_level(level);
    const float got = quant::l2_sq(a.data(), b.data(), 51);
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
        << common::simd_level_name(level);
  }
}

TEST(SimdKernels, TransposedDistsMatchRowMajorAtEveryLevel) {
  LevelGuard guard;
  common::Rng rng(29);
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{17},
        std::size_t{64}, std::size_t{100}, std::size_t{256}}) {
    for (const std::size_t dim : {std::size_t{2}, std::size_t{8},
                                  std::size_t{16}}) {
      const auto centroids = random_vec(rng, k * dim);
      const auto q = random_vec(rng, dim);
      std::vector<float> tctr;
      quant::transpose_centroids(centroids.data(), k, dim, tctr);
      const std::size_t k_pad = quant::pad8(k);

      // Reference: the row-major kernels at scalar level.
      common::set_simd_level(common::SimdLevel::kScalar);
      std::vector<float> want(k);
      for (std::size_t c = 0; c < k; ++c) {
        want[c] = quant::l2_sq(q.data(), centroids.data() + c * dim, dim);
      }
      const auto [want_idx, want_d] =
          quant::nearest_centroid(q.data(), centroids.data(), k, dim);

      for (const auto level : supported_levels()) {
        common::set_simd_level(level);
        std::vector<float> got(k_pad);
        quant::squared_dists_t(q.data(), tctr.data(), k, k_pad, dim,
                               got.data());
        EXPECT_EQ(std::memcmp(want.data(), got.data(), k * sizeof(float)), 0)
            << "k=" << k << " dim=" << dim << " level="
            << common::simd_level_name(level);
        const auto [idx, d] =
            quant::nearest_centroid_t(q.data(), tctr.data(), k, k_pad, dim);
        EXPECT_EQ(idx, want_idx);
        EXPECT_EQ(std::memcmp(&d, &want_d, sizeof(float)), 0);
      }
    }
  }
}

TEST(FastRound, MatchesStdRoundOverLutDomain) {
  // quantize_lut feeds round_nonneg values in [0, 65535]; the helper must
  // agree with std::round bit-for-bit there (including the .5 ties, which
  // both round away from zero for non-negative inputs).
  for (std::uint32_t i = 0; i <= 65535u * 4u; ++i) {
    const float x = static_cast<float>(i) * 0.25f;
    ASSERT_EQ(common::round_nonneg(x), std::round(x)) << "x=" << x;
  }
  common::Rng rng(31);
  for (int i = 0; i < 200'000; ++i) {
    const float x = rng.uniform(0.f, 65535.f);
    ASSERT_EQ(common::round_nonneg(x), std::round(x)) << "x=" << x;
  }
}

TEST(SimdKernels, QuantizeLutMatchesScalarReferenceAtEveryLevel) {
  // Crafted S2 inputs: exact .5 ties and one ulp either side, entries at
  // and above the 65535 clamp (inf included), zeros and a denormal.
  std::vector<float> row = {0.f, 0.f, 1e-42f, 65535.f, 65535.5f, 65536.f,
                            1e9f, INFINITY};
  for (const float base : {0.f, 1.f, 2.f, 7.f, 1000.f, 65533.f, 65534.f}) {
    const float tie = base + 0.5f;
    row.push_back(tie);
    row.push_back(std::nextafter(tie, 0.f));
    row.push_back(std::nextafter(tie, INFINITY));
  }
  common::Rng rng(37);
  const std::vector<float> noise = random_vec(rng, 373, 0.f, 70000.f);
  row.insert(row.end(), noise.begin(), noise.end());
  ASSERT_NE(row.size() % 4, 0u);  // leaves a tail after the 4-lane loop

  const auto reference = [](float x, float inv) {
    return static_cast<std::uint32_t>(
        common::round_nonneg(std::min(65535.f, x * inv)));
  };
  LevelGuard guard;
  for (const auto level : supported_levels()) {
    common::set_simd_level(level);
    // inv = inf turns the zeros into NaN products, which clamp to 65535.
    for (const float inv : {1.f, 0.5f, 65000.f / 69999.f, INFINITY}) {
      // Lengths 0..12 hit every tail size of the 4-lane loop, the 97-step
      // sweep reaches the whole row, and offset 1 makes the loads unaligned.
      for (std::size_t off : {0u, 1u}) {
        for (std::size_t n = 0; n + off <= row.size(); n += (n < 12 ? 1 : 97)) {
          std::vector<std::uint32_t> got(n + 1, 0xDEADBEEFu);
          core::quantize_lut(row.data() + off, n, inv, got.data());
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(got[i], reference(row[off + i], inv))
                << "level=" << common::simd_level_name(level)
                << " x=" << row[off + i] << " inv=" << inv << " n=" << n;
          }
          EXPECT_EQ(got[n], 0xDEADBEEFu) << "wrote past n=" << n;
        }
      }
    }
  }
}

struct EngineCase {
  data::Dataset base;
  ivf::IvfIndex index;
  data::Dataset queries;
  ivf::ClusterStats stats;
};

EngineCase build_engine_case(const data::SyntheticSpec& spec) {
  EngineCase c;
  c.base = data::generate_synthetic(spec);
  ivf::IvfBuildOptions bopts;
  bopts.n_clusters = 32;
  bopts.pq_m = spec.pq_m();
  bopts.coarse_iters = 5;
  bopts.pq_iters = 4;
  c.index = ivf::IvfIndex::build(c.base, bopts);

  data::WorkloadSpec wspec;
  wspec.n_queries = 16;
  wspec.seed = 4;
  c.queries = data::generate_workload(c.base, wspec).queries;
  data::WorkloadSpec hist = wspec;
  hist.seed = 5;
  hist.n_queries = 64;
  c.stats = ivf::collect_stats(
      c.index, ivf::filter_batch(
                   c.index, data::generate_workload(c.base, hist).queries, 8));
  return c;
}

core::UpAnnsOptions small_engine(core::UpAnnsOptions opts) {
  opts.n_dpus = 8;
  opts.nprobe = 8;
  opts.k = 10;
  return opts;
}

/// Search once per supported level: neighbors (distances compared by bits)
/// and the charged instruction and DMA totals must equal the scalar run's.
void expect_identical_across_levels(core::UpAnnsEngine& engine,
                                    const data::Dataset& queries,
                                    const std::string& label) {
  LevelGuard guard;
  common::set_simd_level(common::SimdLevel::kScalar);
  const core::SearchReport want = engine.search(queries);
  ASSERT_EQ(want.neighbors.size(), queries.n) << label;
  ASSERT_GT(want.pim->total_instructions, 0u) << label;

  for (const auto level : supported_levels()) {
    common::set_simd_level(level);
    const core::SearchReport got = engine.search(queries);
    const std::string where =
        label + " level=" + common::simd_level_name(level);
    EXPECT_EQ(got.pim->total_instructions, want.pim->total_instructions)
        << where;
    EXPECT_EQ(got.pim->total_dma_cycles, want.pim->total_dma_cycles) << where;
    ASSERT_EQ(got.neighbors.size(), want.neighbors.size()) << where;
    for (std::size_t q = 0; q < want.neighbors.size(); ++q) {
      const auto& g = got.neighbors[q];
      const auto& w = want.neighbors[q];
      ASSERT_EQ(g.size(), w.size()) << where << " q=" << q;
      for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(g[i].id, w[i].id) << where << " q=" << q;
        EXPECT_EQ(std::memcmp(&g[i].dist, &w[i].dist, sizeof(float)), 0)
            << where << " q=" << q;
      }
    }
  }
}

// The acceptance bar for the serve path: neighbors must be byte-identical
// at every dispatch level (float distances compared by bits, not
// tolerance), and so must every charged instruction and DMA cycle. LUT
// build, quantization and the integer token scans all follow the
// fixed-order accumulation contract, so this holds exactly. Covered: SIFT
// (m = 16, dsub = 8) and SPACEV (m = 20, dsub = 5: a non-8 LUT row and the
// widest chunk span) under full UpANNS and PIM-naive raw codes, plus a
// mutated engine whose clusters carry tombstones in MRAM.
TEST(SimdEngine, ServeNeighborsByteIdenticalAcrossLevels) {
  for (const data::SyntheticSpec& spec :
       {data::sift1b_like(6000, 41), data::spacev1b_like(6000, 41)}) {
    const EngineCase c = build_engine_case(spec);
    const std::string family = data::family_name(spec.family);
    {
      core::UpAnnsEngine engine(c.index, c.stats,
                                small_engine(core::UpAnnsOptions::upanns()));
      expect_identical_across_levels(engine, c.queries, family + " upanns");
    }
    {
      core::UpAnnsEngine engine(
          c.index, c.stats, small_engine(core::UpAnnsOptions::pim_naive()));
      expect_identical_across_levels(engine, c.queries, family + " naive");
    }
  }

  EngineCase c = build_engine_case(data::sift1b_like(6000, 41));
  core::UpAnnsEngine engine(c.index, c.stats,
                            small_engine(core::UpAnnsOptions::upanns()));
  std::vector<std::uint32_t> dead;
  for (std::uint32_t id = 0; id < c.base.n; id += 5) dead.push_back(id);
  ASSERT_EQ(engine.remove(dead), dead.size());
  engine.patch_dpus();
  std::size_t tombstones = 0;
  for (const ivf::InvertedList& list : c.index.lists()) {
    tombstones += list.n_tombstones;
  }
  ASSERT_EQ(tombstones, dead.size());
  expect_identical_across_levels(engine, c.queries, "sift tombstones");
}

}  // namespace
}  // namespace upanns
