#include "baselines/cpu_ivfpq.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/ground_truth.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"

namespace upanns::baselines {
namespace {

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::sift1b_like(8000, 33));
  ivf::IvfIndex index;
  data::QueryWorkload wl;

  Fixture() : index(build()) {
    data::WorkloadSpec spec;
    spec.n_queries = 32;
    spec.seed = 5;
    wl = data::generate_workload(base, spec);
  }

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 64;
    opts.pq_m = 16;
    opts.coarse_iters = 6;
    opts.pq_iters = 5;
    return ivf::IvfIndex::build(base, opts);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(CpuIvfpq, RecallImprovesWithNprobe) {
  auto& f = fixture();
  CpuIvfpqSearcher searcher(f.index);
  const auto gt = data::exact_topk(f.base, f.wl.queries, 10);
  double prev = -1;
  for (std::size_t nprobe : {2u, 8u, 32u}) {
    SearchParams p;
    p.nprobe = nprobe;
    p.k = 10;
    const auto res = searcher.search(f.wl.queries, p);
    const double r = data::recall_at_k(gt, res.neighbors, 10);
    EXPECT_GE(r, prev - 0.02) << "nprobe=" << nprobe;
    prev = r;
  }
  EXPECT_GT(prev, 0.5);  // full-ish probing finds most true neighbors
}

TEST(CpuIvfpq, MatchesBruteForceOverProbedClusters) {
  // The searcher must return exactly the ADC-best candidates within the
  // probed clusters (reference implementation check).
  auto& f = fixture();
  CpuIvfpqSearcher searcher(f.index);
  SearchParams p;
  p.nprobe = 4;
  p.k = 5;
  const auto probes = ivf::filter_batch(f.index, f.wl.queries, p.nprobe);
  const auto res = searcher.search_with_probes(f.wl.queries, probes, p);

  const std::size_t m = f.index.pq_m();
  for (std::size_t q = 0; q < 4; ++q) {
    std::vector<common::Neighbor> ref;  // sort-and-truncate reference
    std::vector<float> residual(f.index.dim()), lut(m * 256);
    for (auto c : probes[q]) {
      f.index.residual(f.wl.queries.row(q), c, residual.data());
      f.index.pq().compute_lut(residual.data(), lut.data());
      const auto& list = f.index.list(c);
      for (std::size_t i = 0; i < list.size(); ++i) {
        ref.push_back({f.index.pq().adc_distance(lut.data(), list.code(i, m)),
                       list.ids[i]});
      }
    }
    std::sort(ref.begin(), ref.end());
    ref.resize(std::min(p.k, ref.size()));
    EXPECT_EQ(res.neighbors[q], ref);
  }
}

TEST(CpuIvfpq, ProfileFieldsPopulated) {
  auto& f = fixture();
  CpuIvfpqSearcher searcher(f.index);
  SearchParams p;
  p.nprobe = 8;
  p.k = 10;
  const auto res = searcher.search(f.wl.queries, p);
  EXPECT_EQ(res.profile.n_queries, 32u);
  EXPECT_EQ(res.profile.nprobe, 8u);
  EXPECT_EQ(res.profile.m, 16u);
  EXPECT_EQ(res.profile.dataset_n, 8000u);
  EXPECT_GT(res.profile.total_candidates, 0u);
  EXPECT_GT(res.profile.max_cluster, 0u);
  EXPECT_LE(res.profile.max_cluster, 8000u);
  EXPECT_GT(res.qps(), 0.0);
  EXPECT_GT(res.times.total(), 0.0);
}

TEST(CpuIvfpq, CandidatesGrowWithNprobe) {
  auto& f = fixture();
  CpuIvfpqSearcher searcher(f.index);
  SearchParams a;
  a.nprobe = 2;
  SearchParams b;
  b.nprobe = 16;
  EXPECT_LT(searcher.search(f.wl.queries, a).profile.total_candidates,
            searcher.search(f.wl.queries, b).profile.total_candidates);
}

TEST(CpuIvfpq, ResultsSortedAscending) {
  auto& f = fixture();
  CpuIvfpqSearcher searcher(f.index);
  SearchParams p;
  p.nprobe = 8;
  p.k = 10;
  const auto res = searcher.search(f.wl.queries, p);
  for (const auto& list : res.neighbors) {
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    EXPECT_LE(list.size(), 10u);
  }
}

}  // namespace
}  // namespace upanns::baselines
