// Oracle tests for the DPU query kernel: an independent host-side
// re-implementation of the quantized pipeline (int8 codebook -> float LUT ->
// u16 LUT -> integer ADC) must agree with what the kernel writes to MRAM.
#include "core/dpu_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/engine.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"

namespace upanns::core {
namespace {

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::deep1b_like(6000, 61));
  ivf::IvfIndex index = build();
  data::QueryWorkload wl;
  ivf::ClusterStats stats;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 24;
    opts.pq_m = 12;
    opts.coarse_iters = 5;
    opts.pq_iters = 4;
    return ivf::IvfIndex::build(base, opts);
  }

  Fixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 8;
    spec.seed = 2;
    wl = data::generate_workload(base, spec);
    stats = ivf::collect_stats(index,
                               ivf::filter_batch(index, wl.queries, 6));
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// Host-side oracle: quantized ADC top-k over the probed clusters, mirroring
// the engine's int8-codebook / u16-LUT pipeline.
std::vector<common::Neighbor> oracle_topk(const ivf::IvfIndex& index,
                                          const float* query,
                                          const std::vector<std::uint32_t>& probes,
                                          std::size_t k) {
  const auto& pq = index.pq();
  const std::size_t m = pq.m();
  const std::size_t dsub = pq.dsub();
  const std::size_t dim = index.dim();

  // Reproduce the engine's int8 codebook quantization.
  std::vector<float> scales(m);
  std::vector<std::int8_t> cbq(m * 256 * dsub);
  const auto cb = pq.codebooks();
  for (std::size_t s = 0; s < m; ++s) {
    float mx = 0;
    for (std::size_t i = 0; i < 256 * dsub; ++i) {
      mx = std::max(mx, std::abs(cb[s * 256 * dsub + i]));
    }
    scales[s] = mx > 0 ? mx / 127.f : 1.f;
    for (std::size_t i = 0; i < 256 * dsub; ++i) {
      cbq[s * 256 * dsub + i] = static_cast<std::int8_t>(
          std::lround(cb[s * 256 * dsub + i] / scales[s]));
    }
  }

  // Sort-and-truncate over every candidate: independent of the kernel's
  // TopK buffers.
  std::vector<common::Neighbor> all;
  std::vector<float> residual(dim), lut(m * 256);
  for (std::uint32_t c : probes) {
    const auto& list = index.list(c);
    if (list.size() == 0) continue;
    index.residual(query, c, residual.data());
    float mx = 0;
    for (std::size_t s = 0; s < m; ++s) {
      for (std::size_t e = 0; e < 256; ++e) {
        float acc = 0;
        for (std::size_t d = 0; d < dsub; ++d) {
          const float diff =
              residual[s * dsub + d] -
              scales[s] * static_cast<float>(cbq[(s * 256 + e) * dsub + d]);
          acc += diff * diff;
        }
        lut[s * 256 + e] = acc;
        mx = std::max(mx, acc);
      }
    }
    const float scale = mx > 0 ? mx / 65000.f : 1.f;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::uint8_t* code = list.code(i, m);
      std::uint32_t acc = 0;
      for (std::size_t s = 0; s < m; ++s) {
        acc += static_cast<std::uint16_t>(
            std::min(65535.f, std::round(lut[s * 256 + code[s]] / scale)));
      }
      all.push_back({static_cast<float>(acc) * scale, list.ids[i]});
    }
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(k, all.size()));
  return all;
}

UpAnnsOptions tiny_options(bool naive) {
  UpAnnsOptions o = naive ? UpAnnsOptions::pim_naive()
                          : UpAnnsOptions::upanns();
  o.n_dpus = 6;
  o.nprobe = 6;
  o.k = 8;
  return o;
}

class KernelOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(KernelOracleTest, KernelMatchesQuantizedOracle) {
  auto& f = fixture();
  const bool naive = GetParam();
  UpAnnsEngine engine(f.index, f.stats, tiny_options(naive));
  const auto probes = ivf::filter_batch(f.index, f.wl.queries, 6);
  const auto report = engine.search_with_probes(f.wl.queries, probes);

  for (std::size_t q = 0; q < f.wl.queries.n; ++q) {
    const auto expect =
        oracle_topk(f.index, f.wl.queries.row(q), probes[q], 8);
    ASSERT_EQ(report.neighbors[q].size(), expect.size()) << "query " << q;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_NEAR(report.neighbors[q][i].dist, expect[i].dist,
                  1e-3f * (1.f + expect[i].dist))
          << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, KernelOracleTest, ::testing::Bool());

TEST(Kernel, TaskletSweepMatchesFig13Law) {
  // Per-DPU cycles must shrink ~linearly up to 11 tasklets and flatten
  // beyond (distance stage, balanced work).
  auto& f = fixture();
  std::vector<double> dist_time;
  for (unsigned t : {1u, 2u, 4u, 8u, 11u, 16u, 24u}) {
    UpAnnsOptions o = tiny_options(false);
    o.n_tasklets = t;
    UpAnnsEngine engine(f.index, f.stats, o);
    dist_time.push_back(engine.search(f.wl.queries).times.distance_calc);
  }
  // Linear-ish regime.
  EXPECT_GT(dist_time[0] / dist_time[1], 1.6);  // 1 -> 2 tasklets
  EXPECT_GT(dist_time[1] / dist_time[2], 1.5);  // 2 -> 4
  EXPECT_GT(dist_time[0] / dist_time[4], 5.0);  // 1 -> 11
  // Saturation: no further meaningful speedup beyond 11. At this test's
  // tiny cluster sizes chunk granularity adds noise (a cluster is only a
  // handful of 16-record chunks), so the band is wide; the Fig 13 bench
  // demonstrates the clean plateau at realistic list lengths.
  EXPECT_GT(dist_time[5] / dist_time[4], 0.6);
  EXPECT_LT(dist_time[5] / dist_time[4], 1.8);
  EXPECT_GT(dist_time[6] / dist_time[4], 0.6);
  EXPECT_LT(dist_time[6] / dist_time[4], 2.4);
}

TEST(Kernel, WramOverflowDetectedForOversizedConfigs) {
  // k=1000 x 24 tasklets of heap space plus buffers cannot fit 64 KB WRAM:
  // the simulator must refuse, exactly like real hardware would.
  auto& f = fixture();
  UpAnnsOptions o = tiny_options(false);
  o.k = 4096;
  o.n_tasklets = 24;
  UpAnnsEngine engine(f.index, f.stats, o);
  EXPECT_THROW(engine.search(f.wl.queries), pim::WramOverflow);
}

TEST(Kernel, MergeStatsConsistent) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, tiny_options(false));
  const auto r = engine.search(f.wl.queries);
  // Insertions are bounded by tasklets x k x merges; pruned + inserted
  // cannot exceed the total local-heap contents.
  EXPECT_GT(r.pim->merge_insertions, 0u);
  EXPECT_GT(r.pim->scanned_records, 0u);
}

}  // namespace
}  // namespace upanns::core
