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
#include <limits>
#include <string>
#include <vector>

#include "common/fastround.hpp"
#include "common/rng.hpp"
#include "core/dpu_kernel.hpp"
#include "core/engine.hpp"
#include "data/dataset.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "ivf/ivf_index.hpp"
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
  if (supported(common::SimdLevel::kAvx512)) {
    out.push_back(common::SimdLevel::kAvx512);
  }
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
                       common::SimdLevel::kAvx2, common::SimdLevel::kAvx512}) {
    common::SimdLevel parsed;
    ASSERT_TRUE(common::parse_simd_level(common::simd_level_name(l), &parsed));
    EXPECT_EQ(parsed, l);
  }
  common::SimdLevel parsed;
  EXPECT_FALSE(common::parse_simd_level("avx512f", &parsed));
  EXPECT_FALSE(common::parse_simd_level("", &parsed));
  EXPECT_FALSE(common::parse_simd_level("SSE2 ", &parsed));
}

TEST(SimdDispatch, SetClampsToSupportedAndSticks) {
  LevelGuard guard;
  // Requesting the max is always satisfiable; requesting above the probe
  // result clamps rather than faulting.
  const auto eff = common::set_simd_level(common::SimdLevel::kAvx512);
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

/// Block-major copy of row-major centroids (k x dim).
std::vector<float> block_major(const std::vector<float>& centroids,
                               std::size_t k, std::size_t dim) {
  std::vector<float> t(quant::pad8(k) * dim);
  quant::transpose_centroids(centroids.data(), k, dim, t.data());
  return t;
}

/// nearest_centroid_t at every supported level must return the scalar
/// row-major nearest_centroid's (index, distance bits) for this query.
void expect_nearest_matches(const std::vector<float>& centroids,
                            const std::vector<float>& q, std::size_t k,
                            std::size_t dim, const std::string& label) {
  LevelGuard guard;
  const std::vector<float> tctr = block_major(centroids, k, dim);
  common::set_simd_level(common::SimdLevel::kScalar);
  const auto [want_idx, want_d] =
      quant::nearest_centroid(q.data(), centroids.data(), k, dim);
  for (const auto level : supported_levels()) {
    common::set_simd_level(level);
    const auto [idx, d] =
        quant::nearest_centroid_t(q.data(), tctr.data(), k, dim);
    const std::string where = label + " k=" + std::to_string(k) +
                              " dim=" + std::to_string(dim) +
                              " level=" + common::simd_level_name(level);
    EXPECT_EQ(idx, want_idx) << where;
    EXPECT_EQ(std::memcmp(&d, &want_d, sizeof(float)), 0) << where;
  }
}

// Dims cover the unrolled x8 body alone (8, 16, 96, 128), the dim % 8 tail
// alone (1, 2, 5, 7) and both (9, 12, 17, 100); k covers partial and whole
// 8-centroid blocks up to the coarse quantizer's 512.
TEST(SimdKernels, TransposedDistsMatchRowMajorAtEveryLevel) {
  LevelGuard guard;
  common::Rng rng(29);
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{17},
        std::size_t{64}, std::size_t{100}, std::size_t{256},
        std::size_t{509}, std::size_t{512}}) {
    for (const std::size_t dim :
         {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{7},
          std::size_t{8}, std::size_t{9}, std::size_t{12}, std::size_t{16},
          std::size_t{17}, std::size_t{96}, std::size_t{100},
          std::size_t{128}}) {
      const auto centroids = random_vec(rng, k * dim);
      const auto q = random_vec(rng, dim);
      const std::vector<float> tctr = block_major(centroids, k, dim);

      // Reference: the row-major kernel at scalar level.
      common::set_simd_level(common::SimdLevel::kScalar);
      std::vector<float> want(k);
      for (std::size_t c = 0; c < k; ++c) {
        want[c] = quant::l2_sq(q.data(), centroids.data() + c * dim, dim);
      }

      for (const auto level : supported_levels()) {
        common::set_simd_level(level);
        std::vector<float> got(k + 1, -1.f);
        quant::squared_dists_t(q.data(), tctr.data(), k, dim, got.data());
        EXPECT_EQ(std::memcmp(want.data(), got.data(), k * sizeof(float)), 0)
            << "k=" << k << " dim=" << dim << " level="
            << common::simd_level_name(level);
        EXPECT_EQ(got[k], -1.f) << "wrote past k=" << k;
      }
      expect_nearest_matches(centroids, q, k, dim, "random");
    }
  }
}

// The fused argmin's edge rules, each checked against nearest_centroid at
// every level: exact ties go to the lowest index wherever the copies sit,
// the zero padding lanes of a partial last block never win, and a scan
// with no distance below +inf (NaN included) returns (0, +inf).
TEST(SimdKernels, FusedArgminTiesPaddingAndInfAtEveryLevel) {
  common::Rng rng(41);
  for (const std::size_t dim :
       {std::size_t{1}, std::size_t{8}, std::size_t{12}, std::size_t{128}}) {
    const std::size_t k = 21;  // two whole blocks plus five lanes
    const auto q = random_vec(rng, dim, -1.f, 1.f);
    std::vector<float> near = q;
    for (auto& x : near) x += 0.25f;
    // Copies of `near` at: two lanes of one block; the same lane of two
    // blocks; a later lane of an earlier block before an earlier lane of a
    // later one; and three copies spread over all three blocks.
    const std::vector<std::vector<std::size_t>> copies = {
        {3, 5}, {2, 10}, {6, 9}, {14, 17, 20}};
    for (const auto& at : copies) {
      auto centroids = random_vec(rng, k * dim, 10.f, 20.f);
      for (std::size_t c : at) {
        std::copy(near.begin(), near.end(), centroids.begin() + c * dim);
      }
      const auto [want, d] =
          quant::nearest_centroid(q.data(), centroids.data(), k, dim);
      ASSERT_EQ(want, at.front());
      expect_nearest_matches(centroids, q, k, dim,
                             "tie at " + std::to_string(at.front()));
    }

    // A query nearer the origin than every centroid: the padding lanes'
    // distance |q|^2 is the smallest in the scan.
    for (const std::size_t kk :
         {std::size_t{1}, std::size_t{13}, std::size_t{253}}) {
      const auto centroids = random_vec(rng, kk * dim, 5.f, 10.f);
      const auto origin_q = random_vec(rng, dim, -0.01f, 0.01f);
      expect_nearest_matches(centroids, origin_q, kk, dim, "origin");
    }

    // Every distance overflows to +inf, one is NaN, and the padding lanes
    // (distance 0 to a zero query) must still not win.
    std::vector<float> huge(k * dim, 3e19f);
    huge[4 * dim] = std::numeric_limits<float>::quiet_NaN();
    const std::vector<float> zero_q(dim, 0.f);
    const auto [idx, d] =
        quant::nearest_centroid(zero_q.data(), huge.data(), k, dim);
    ASSERT_EQ(idx, 0u);
    ASSERT_EQ(d, std::numeric_limits<float>::infinity());
    expect_nearest_matches(huge, zero_q, k, dim, "all inf");
  }
}

// The point-lane kernel against the scalar row-major nearest_centroid, per
// lane, at every level and every lane width 1..8. The 37 points (two whole
// groups and a partial one) hold exact copies of centroids that occur more
// than once, so ties must go to the lowest index; points with a +inf or a
// NaN coordinate, whose distances are +inf or NaN everywhere; and points
// whose every distance overflows to +inf. Each must give (0, +inf).
TEST(SimdKernels, PointLanesMatchNearestCentroidAtEveryLevel) {
  LevelGuard guard;
  common::Rng rng(47);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (std::size_t dim = 1; dim <= quant::kMaxLaneDim; ++dim) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                std::size_t{17}, std::size_t{256}}) {
      auto centroids = random_vec(rng, k * dim);
      // Centroid 1 recurs at k / 2 and k - 1.
      for (const std::size_t c : {k / 2, k - 1}) {
        if (k > 2 && c > 1) {
          std::copy_n(centroids.begin() + dim, dim,
                      centroids.begin() + c * dim);
        }
      }
      const std::vector<float> tctr = block_major(centroids, k, dim);
      const std::size_t n = 37;
      auto points = random_vec(rng, n * dim);
      std::copy_n(centroids.begin() + (k > 1 ? dim : 0), dim,
                  points.begin() + 5 * dim);  // a tie when k > 2
      points[9 * dim] = kInf;
      points[20 * dim + dim - 1] = std::numeric_limits<float>::quiet_NaN();
      std::fill_n(points.begin() + 33 * dim, dim, 3e19f);
      std::fill_n(points.begin() + 36 * dim, dim, -kInf);

      std::vector<float> groups(quant::kLanePoints * dim * 3, 0.f);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t d = 0; d < dim; ++d) {
          groups[(i / 16) * dim * 16 + d * 16 + i % 16] = points[i * dim + d];
        }
      }
      common::set_simd_level(common::SimdLevel::kScalar);
      std::vector<std::pair<std::uint32_t, float>> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        want[i] = quant::nearest_centroid(points.data() + i * dim,
                                          centroids.data(), k, dim);
      }
      ASSERT_EQ(want[9].second, kInf);
      ASSERT_EQ(want[20], std::make_pair(std::uint32_t{0}, kInf));
      ASSERT_EQ(want[33], std::make_pair(std::uint32_t{0}, kInf));
      for (const auto level : supported_levels()) {
        common::set_simd_level(level);
        for (std::size_t g = 0; g * 16 < n; ++g) {
          std::uint32_t idx[16];
          float dist[16];
          quant::nearest_centroid_lanes(groups.data() + g * dim * 16,
                                        tctr.data(), k, dim, idx, dist);
          for (std::size_t j = 0; j < 16 && g * 16 + j < n; ++j) {
            const std::size_t i = g * 16 + j;
            const std::string where =
                "dim=" + std::to_string(dim) + " k=" + std::to_string(k) +
                " point=" + std::to_string(i) +
                " level=" + common::simd_level_name(level);
            EXPECT_EQ(idx[j], want[i].first) << where;
            EXPECT_EQ(std::memcmp(&dist[j], &want[i].second, sizeof(float)), 0)
                << where;
          }
        }
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
  const std::vector<float> noise = random_vec(rng, 378, 0.f, 70000.f);
  row.insert(row.end(), noise.begin(), noise.end());
  // The whole row leaves a tail after the 16- and 8-lane bodies that takes
  // one step of the 4-lane loop and then the scalar loop.
  ASSERT_GT(row.size() % 8, 4u);
  ASSERT_LT(row.size() % 16, 8u);

  const auto reference = [](float x, float inv) {
    return static_cast<std::uint32_t>(
        common::round_nonneg(std::min(65535.f, x * inv)));
  };
  LevelGuard guard;
  for (const auto level : supported_levels()) {
    common::set_simd_level(level);
    // inv = inf turns the zeros into NaN products, which clamp to 65535.
    for (const float inv : {1.f, 0.5f, 65000.f / 69999.f, INFINITY}) {
      // Lengths 0..48 hit every tail of the 16-lane body and of the 8- and
      // 4-lane loops after it, a 97-step sweep runs on to the whole row,
      // and offset 1 makes the loads unaligned.
      for (std::size_t off : {0u, 1u}) {
        std::vector<std::size_t> lengths;
        for (std::size_t n = 0; n <= 48; ++n) lengths.push_back(n);
        for (std::size_t n = 113; n < row.size() - off; n += 97) {
          lengths.push_back(n);
        }
        lengths.push_back(row.size() - off);
        for (const std::size_t n : lengths) {
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

// The S4 token prefix against the scalar loop at every span length a chunk
// can have, 0..kChunkRecords·(m+1) for m up to 20 (SPACEV), so the 16-token
// gather body meets every tail. Table entries near 2^32 make the running
// sum wrap. ASan does not see the avx512 body's masked loads, gathers and
// stores, so the sentinels past the span check that it writes nothing
// beyond prefix[n].
TEST(SimdKernels, TokenPrefixMatchesScalarLoopAtEveryLevel) {
  if (!supported(common::SimdLevel::kAvx512)) {
    GTEST_SKIP() << "no AVX-512 body to check; probed level "
                 << common::simd_level_name(common::simd_max_supported());
  }
  constexpr std::size_t kMaxSpan = core::kChunkRecords * (20 + 1);
  common::Rng rng(43);
  std::vector<std::uint32_t> table(20 * 256 + 300);
  for (auto& v : table) {
    v = rng.below(4) == 0 ? 0xFFFFFF00u + static_cast<std::uint32_t>(
                                              rng.below(256))
                          : static_cast<std::uint32_t>(rng.below(65536));
  }
  std::vector<std::uint16_t> tokens(kMaxSpan + 1);
  for (auto& t : tokens) {
    t = static_cast<std::uint16_t>(rng.below(table.size()));
  }
  for (const auto level : supported_levels()) {
    for (std::size_t off : {0u, 1u}) {
      for (std::size_t n = 0; n + off <= kMaxSpan; ++n) {
        const std::uint16_t* span = tokens.data() + off;
        std::vector<std::uint32_t> got(n + 3, 0xDEADBEEFu);
        core::token_prefix(level, table.data(), span, n, got.data());
        std::uint32_t run = 0;
        ASSERT_EQ(got[0], 0u) << "n=" << n;
        for (std::size_t j = 0; j < n; ++j) {
          run += table[span[j]];
          ASSERT_EQ(got[j + 1], run)
              << "level=" << common::simd_level_name(level) << " n=" << n
              << " j=" << j;
        }
        EXPECT_EQ(got[n + 1], 0xDEADBEEFu) << "wrote past n=" << n;
        EXPECT_EQ(got[n + 2], 0xDEADBEEFu) << "wrote past n=" << n;
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

/// FNV-1a over raw bytes.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

std::uint64_t index_hash(const ivf::IvfIndex& index) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto centroids = index.centroids();
  h = fnv1a(h, centroids.data(), centroids.size_bytes());
  const auto codebooks = index.pq().codebooks();
  h = fnv1a(h, codebooks.data(), codebooks.size_bytes());
  for (const ivf::InvertedList& list : index.lists()) {
    h = fnv1a(h, list.ids.data(), list.ids.size() * sizeof(std::uint32_t));
    h = fnv1a(h, list.codes.data(), list.codes.size());
  }
  return h;
}

// The built index itself, pinned against a constant rather than only
// compared across levels, so a change that moved every level the same way
// still fails. Uniform data needs no libm, so the hash does not depend on
// the C library's log/sin/cos the Gaussian generator uses. The constant was
// recorded before the block-major kernels replaced the [d][k] layout.
TEST(SimdBuild, IndexHashMatchesGoldenAtEveryLevel) {
  constexpr std::uint64_t kGolden = 0x68f46c05a2c5b0dfull;
  data::Dataset base;
  base.n = 4000;
  base.dim = 128;
  base.values.resize(base.n * base.dim);
  common::Rng rng(2025);
  for (auto& v : base.values) v = rng.uniform(-1.f, 1.f);
  ivf::IvfBuildOptions opts;
  opts.n_clusters = 32;
  opts.pq_m = 16;
  opts.coarse_iters = 6;
  opts.pq_iters = 5;

  LevelGuard guard;
  for (const auto level : supported_levels()) {
    common::set_simd_level(level);
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1}}) {
      opts.n_threads = threads;
      EXPECT_EQ(index_hash(ivf::IvfIndex::build(base, opts)), kGolden)
          << "level=" << common::simd_level_name(level)
          << " threads=" << threads;
    }
  }
}

// A second pinned build at the shape the pruned k-means paths need: both
// training caps below n (so every sample is a strided copy out of the
// source rows) and 256 coarse centroids, i.e. eight 32-centroid bound
// groups. Points sit in tight uniform boxes around 48 uniform centres, so
// later Lloyd steps keep most labels and the bounds skip real work. The
// constant was recorded before the bound-pruned k-means landed.
TEST(SimdBuild, SampledMultiGroupIndexHashMatchesGoldenAtEveryLevel) {
  constexpr std::uint64_t kGolden = 0xcc067333c44f785cull;
  data::Dataset base;
  base.n = 5000;
  base.dim = 64;
  base.values.resize(base.n * base.dim);
  common::Rng rng(2026);
  std::vector<float> centres(48 * base.dim);
  for (auto& v : centres) v = rng.uniform(-1.f, 1.f);
  for (std::size_t i = 0; i < base.n; ++i) {
    const float* c = centres.data() + rng.below(48) * base.dim;
    for (std::size_t d = 0; d < base.dim; ++d) {
      base.values[i * base.dim + d] = c[d] + rng.uniform(-0.2f, 0.2f);
    }
  }
  ivf::IvfBuildOptions opts;
  opts.n_clusters = 256;
  opts.pq_m = 8;
  opts.coarse_iters = 6;
  opts.pq_iters = 5;
  opts.coarse_train_points = 3500;
  opts.pq_train_points = 3000;

  LevelGuard guard;
  for (const auto level : supported_levels()) {
    common::set_simd_level(level);
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{3}}) {
      opts.n_threads = threads;
      EXPECT_EQ(index_hash(ivf::IvfIndex::build(base, opts)), kGolden)
          << "level=" << common::simd_level_name(level)
          << " threads=" << threads;
    }
  }
}

// A third pinned build at SPACEV's PQ shape, dsub 5 (dim 100, pq_m 20): the
// other two run dsub 8, and the point-lane kernels take each width through
// its own body. The PQ sample (4500 of 5000 rows) spans two reduction
// chunks and, like n, is not a whole number of 16-point groups. The
// constant was recorded before the point-lane kernels landed.
TEST(SimdBuild, Dsub5IndexHashMatchesGoldenAtEveryLevel) {
  constexpr std::uint64_t kGolden = 0xb29d8ee6129b9309ull;
  data::Dataset base;
  base.n = 5000;
  base.dim = 100;
  base.values.resize(base.n * base.dim);
  common::Rng rng(2027);
  for (auto& v : base.values) v = rng.uniform(-1.f, 1.f);
  ivf::IvfBuildOptions opts;
  opts.n_clusters = 16;
  opts.pq_m = 20;
  opts.coarse_iters = 4;
  opts.pq_iters = 4;
  opts.pq_train_points = 4500;

  LevelGuard guard;
  for (const auto level : supported_levels()) {
    common::set_simd_level(level);
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{3}}) {
      opts.n_threads = threads;
      EXPECT_EQ(index_hash(ivf::IvfIndex::build(base, opts)), kGolden)
          << "level=" << common::simd_level_name(level)
          << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace upanns
