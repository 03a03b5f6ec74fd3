#include "ivf/ivf_index.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "ivf/cluster_stats.hpp"
#include "obs/metrics.hpp"
#include "quant/kmeans.hpp"

namespace upanns::ivf {
namespace {

data::Dataset base_data() {
  return data::generate_synthetic(data::sift1b_like(6000, 21));
}

IvfIndex build_small(const data::Dataset& base, std::size_t nc = 32) {
  IvfBuildOptions opts;
  opts.n_clusters = nc;
  opts.pq_m = 16;
  opts.coarse_iters = 6;
  opts.pq_iters = 5;
  return IvfIndex::build(base, opts);
}

// BuildStats and the build.* gauges report the coarse k-means++ seeding
// time and the share of distances the bound pruning left to compute; at
// dim 128 the coarse quantizer prunes, so the share is below 1.
TEST(IvfIndex, BuildReportsCoarseSeedingAndDistanceShare) {
  const auto base = base_data();
  obs::MetricsRegistry reg;
  IvfBuildOptions opts;
  opts.n_clusters = 32;
  opts.pq_m = 16;
  opts.coarse_iters = 6;
  opts.pq_iters = 5;
  opts.metrics = &reg;
  BuildStats bs;
  IvfIndex::build(base, opts, &bs);
  EXPECT_GE(bs.seed_seconds, 0.0);
  EXPECT_LE(bs.seed_seconds, bs.kmeans_seconds);
  EXPECT_GT(bs.kmeans_distance_share, 0.0);
  EXPECT_LT(bs.kmeans_distance_share, 1.0);
  EXPECT_EQ(reg.gauge("build.kmeans_seed_seconds").value(), bs.seed_seconds);
  EXPECT_EQ(reg.gauge("build.kmeans_distance_share").value(),
            bs.kmeans_distance_share);
}

TEST(IvfIndex, EveryPointInExactlyOneList) {
  const auto base = base_data();
  const auto idx = build_small(base);
  std::set<std::uint32_t> seen;
  for (std::size_t c = 0; c < idx.n_clusters(); ++c) {
    const auto& list = idx.list(c);
    EXPECT_EQ(list.codes.size(), list.ids.size() * idx.pq_m());
    for (auto id : list.ids) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(seen.size(), base.n);
}

TEST(IvfIndex, ListSizesSumToN) {
  const auto base = base_data();
  const auto idx = build_small(base);
  const auto sizes = idx.list_sizes();
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}),
            base.n);
}

TEST(IvfIndex, PointsAssignedToNearestCentroid) {
  const auto base = base_data();
  const auto idx = build_small(base);
  for (std::size_t c = 0; c < idx.n_clusters(); ++c) {
    const auto& list = idx.list(c);
    for (std::size_t i = 0; i < std::min<std::size_t>(list.size(), 5); ++i) {
      const auto [best, d] = quant::nearest_centroid(
          base.row(list.ids[i]), idx.centroids().data(), idx.n_clusters(),
          idx.dim());
      (void)d;
      EXPECT_EQ(best, c);
    }
  }
}

TEST(IvfIndex, FilterClustersMatchesBruteForce) {
  const auto base = base_data();
  const auto idx = build_small(base);
  const float* q = base.row(0);
  const auto probes = idx.filter_clusters(q, 5);
  ASSERT_EQ(probes.size(), 5u);
  // Compute distances to all centroids and verify the 5 chosen are the
  // 5 smallest, ordered ascending.
  std::vector<std::pair<float, std::uint32_t>> all;
  for (std::size_t c = 0; c < idx.n_clusters(); ++c) {
    all.emplace_back(quant::l2_sq(q, idx.centroid(c), idx.dim()),
                     static_cast<std::uint32_t>(c));
  }
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(probes[i], all[i].second);
  }
}

TEST(IvfIndex, FilterClampedToNClusters) {
  const auto base = base_data();
  const auto idx = build_small(base, 8);
  EXPECT_EQ(idx.filter_clusters(base.row(0), 100).size(), idx.n_clusters());
}

TEST(IvfIndex, ResidualDefinition) {
  const auto base = base_data();
  const auto idx = build_small(base);
  std::vector<float> r(idx.dim());
  idx.residual(base.row(3), 2, r.data());
  for (std::size_t d = 0; d < idx.dim(); ++d) {
    EXPECT_FLOAT_EQ(r[d], base.row(3)[d] - idx.centroid(2)[d]);
  }
}

TEST(IvfIndex, RejectsBadOptions) {
  const auto base = base_data();
  IvfBuildOptions opts;
  opts.pq_m = 7;  // 128 % 7 != 0
  EXPECT_THROW(IvfIndex::build(base, opts), std::invalid_argument);
  EXPECT_THROW(IvfIndex::build(data::Dataset{}, IvfBuildOptions{}),
               std::invalid_argument);
}

TEST(ClusterStats, WorkloadIsSizeTimesFrequency) {
  const auto base = base_data();
  const auto idx = build_small(base);
  const std::vector<std::vector<std::uint32_t>> history = {{0, 1}, {0}};
  const auto stats = collect_stats(idx, history);
  ASSERT_EQ(stats.n_clusters(), idx.n_clusters());
  for (std::size_t c = 0; c < stats.n_clusters(); ++c) {
    EXPECT_DOUBLE_EQ(stats.workloads[c],
                     static_cast<double>(stats.sizes[c]) * stats.frequencies[c]);
  }
  EXPECT_GT(stats.frequencies[0], stats.frequencies[2]);
}

TEST(ClusterStats, AverageWorkloadDividesTotal) {
  const auto base = base_data();
  const auto idx = build_small(base);
  const auto stats = collect_stats(idx, {{0}});
  EXPECT_NEAR(stats.average_workload(4) * 4, stats.total_workload(), 1e-9);
  EXPECT_DOUBLE_EQ(stats.average_workload(0), 0.0);
}

TEST(ClusterStats, FilterBatchShape) {
  const auto base = base_data();
  const auto idx = build_small(base);
  data::Dataset queries;
  queries.dim = base.dim;
  queries.n = 4;
  queries.values.assign(base.values.begin(),
                        base.values.begin() + 4 * base.dim);
  const auto probes = filter_batch(idx, queries, 6);
  ASSERT_EQ(probes.size(), 4u);
  for (const auto& p : probes) EXPECT_EQ(p.size(), 6u);
}

TEST(ClusterStats, SkewReportReflectsSkewedHistory) {
  const auto base = base_data();
  const auto idx = build_small(base);
  // Heavily skewed history: cluster 0 accessed 100x, cluster 1 once.
  std::vector<std::vector<std::uint32_t>> history(100, {0});
  history.push_back({1});
  const auto stats = collect_stats(idx, history);
  const auto report = analyze_skew(stats);
  EXPECT_GT(report.freq_max_over_min_nonzero, 20.0);
  EXPECT_GE(report.workload_max_over_mean, 1.0);
  EXPECT_GE(report.size_max_over_min_nonzero, 1.0);
}

}  // namespace
}  // namespace upanns::ivf
