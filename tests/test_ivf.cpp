#include "ivf/ivf_index.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <string>

#include "common/simd_dispatch.hpp"
#include "common/topk.hpp"
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

/// The row-major filter: l2_sq per centroid pushed into a TopK in centroid
/// order, which filter_clusters' block-major scan must reproduce exactly.
std::vector<std::uint32_t> row_major_filter(const IvfIndex& idx,
                                            const float* q,
                                            std::size_t nprobe) {
  common::TopK top(std::min(nprobe, idx.n_clusters()));
  for (std::size_t c = 0; c < idx.n_clusters(); ++c) {
    top.push(quant::l2_sq(q, idx.centroid(c), idx.dim()),
             static_cast<std::uint32_t>(c));
  }
  std::vector<std::uint32_t> ids;
  for (const std::uint64_t key : top.keys()) {
    ids.push_back(common::TopK::unpack(key).id);
  }
  return ids;
}

/// `idx` saved, with centroid `to` overwritten by centroid `from` in the
/// file, and loaded back: a way to plant duplicate centroids.
IvfIndex reload_with_duplicate(const IvfIndex& idx, const char* name,
                               std::size_t from, std::size_t to) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  idx.save(path);
  {
    // magic, version, dim, n_clusters, n_points, then the centroid count.
    constexpr std::streamoff kCentroids = 4 + 4 + 8 + 8 + 8 + 8;
    const std::streamoff row =
        static_cast<std::streamoff>(idx.dim() * sizeof(float));
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(kCentroids + static_cast<std::streamoff>(to) * row);
    f.write(reinterpret_cast<const char*>(idx.centroid(from)), row);
  }
  IvfIndex back = IvfIndex::load(path);
  std::remove(path.c_str());
  return back;
}

struct LevelGuard {
  common::SimdLevel prev = common::simd_active_level();
  ~LevelGuard() { common::set_simd_level(prev); }
};

/// filter_clusters equals the row-major reference for every query of
/// `queries` at every nprobe in {1, 3, n_clusters, n_clusters + 7} and every
/// SIMD level this CPU has.
void expect_filter_matches_reference(const IvfIndex& idx,
                                     const std::vector<const float*>& queries,
                                     const std::string& label) {
  LevelGuard guard;
  for (int l = 0; l <= static_cast<int>(common::simd_max_supported()); ++l) {
    const auto level = static_cast<common::SimdLevel>(l);
    common::set_simd_level(level);
    for (const std::size_t nprobe :
         {std::size_t{1}, std::size_t{3}, idx.n_clusters(),
          idx.n_clusters() + 7}) {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(idx.filter_clusters(queries[q], nprobe),
                  row_major_filter(idx, queries[q], nprobe))
            << label << " level " << common::simd_level_name(level)
            << " nprobe " << nprobe << " query " << q;
      }
    }
  }
}

// 13 clusters leave a partial 8-lane block; three copies of centroid 3 tie
// exactly on every query, and the ties go to the lower id.
TEST(IvfIndex, FilterClustersEqualsRowMajorReferenceAtEveryLevel) {
  const auto base = base_data();
  const IvfIndex built = build_small(base, 13);
  const IvfIndex once =
      reload_with_duplicate(built, "upanns_ivf_dup1.bin", 3, 7);
  const IvfIndex idx =
      reload_with_duplicate(once, "upanns_ivf_dup2.bin", 3, 12);
  std::vector<const float*> queries = {idx.centroid(3), idx.centroid(12)};
  for (std::size_t i = 0; i < 64; ++i) queries.push_back(base.row(i * 37));
  expect_filter_matches_reference(built, queries, "built");
  expect_filter_matches_reference(idx, queries, "duplicates");
  const auto probes = idx.filter_clusters(idx.centroid(3), 3);
  EXPECT_EQ(probes, (std::vector<std::uint32_t>{3, 7, 12}));
}

// fleet_rw copies the index every round: the block-major mirror must
// follow the centroids through load, copy, assignment, move and
// empty_like.
TEST(IvfIndex, CentroidMirrorFollowsLoadCopyAndAssignment) {
  const auto base = base_data();
  const IvfIndex built = build_small(base, 32);
  const IvfIndex loaded =
      reload_with_duplicate(built, "upanns_ivf_mirror.bin", 0, 31);
  std::vector<const float*> queries;
  for (std::size_t i = 0; i < 16; ++i) queries.push_back(base.row(i * 101));
  queries.push_back(loaded.centroid(31));
  expect_filter_matches_reference(loaded, queries, "loaded");

  const IvfIndex copied(loaded);
  expect_filter_matches_reference(copied, queries, "copied");
  IvfIndex assigned = build_small(base, 13);
  assigned = loaded;
  expect_filter_matches_reference(assigned, queries, "assigned");
  const IvfIndex moved(std::move(assigned));
  expect_filter_matches_reference(moved, queries, "moved");
  const IvfIndex empty = IvfIndex::empty_like(loaded);
  expect_filter_matches_reference(empty, queries, "empty_like");
  for (const float* q : queries) {
    EXPECT_EQ(copied.filter_clusters(q, 8), loaded.filter_clusters(q, 8));
  }
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
