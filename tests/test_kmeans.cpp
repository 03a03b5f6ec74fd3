#include "quant/kmeans.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace upanns::quant {
namespace {

// Well-separated 2-D blobs around (0,0), (10,0), (0,10), (10,10).
std::vector<float> make_blobs(std::size_t per_blob, common::Rng& rng) {
  const float centers[4][2] = {{0, 0}, {10, 0}, {0, 10}, {10, 10}};
  std::vector<float> data;
  for (const auto& c : centers) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      data.push_back(c[0] + static_cast<float>(rng.gaussian(0.0, 0.3)));
      data.push_back(c[1] + static_cast<float>(rng.gaussian(0.0, 0.3)));
    }
  }
  return data;
}

TEST(L2Sq, Basic) {
  const float a[3] = {1, 2, 3};
  const float b[3] = {4, 6, 3};
  EXPECT_FLOAT_EQ(l2_sq(a, b, 3), 9.f + 16.f);
  EXPECT_FLOAT_EQ(l2_sq(a, a, 3), 0.f);
}

TEST(NearestCentroid, PicksClosest) {
  const float centroids[4] = {0.f, 0.f, 10.f, 10.f};  // 2 centroids, dim 2
  const float p[2] = {9.f, 9.f};
  const auto [idx, d] = nearest_centroid(p, centroids, 2, 2);
  EXPECT_EQ(idx, 1u);
  EXPECT_FLOAT_EQ(d, 2.f);
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  common::Rng rng(1);
  const auto data = make_blobs(100, rng);
  KMeansOptions opts;
  opts.n_clusters = 4;
  opts.max_iters = 25;
  opts.seed = 5;
  const KMeansResult res = kmeans(data, 400, 2, opts);
  ASSERT_EQ(res.n_clusters, 4u);
  // Every blob maps to exactly one cluster and inertia is tiny.
  EXPECT_LT(res.inertia / 400.0, 1.0);
  for (std::uint32_t s : res.sizes) EXPECT_EQ(s, 100u);
}

TEST(KMeans, LabelsCoverAllPoints) {
  common::Rng rng(2);
  const auto data = make_blobs(50, rng);
  KMeansOptions opts;
  opts.n_clusters = 4;
  const KMeansResult res = kmeans(data, 200, 2, opts);
  EXPECT_EQ(res.labels.size(), 200u);
  std::size_t total = 0;
  for (auto s : res.sizes) total += s;
  EXPECT_EQ(total, 200u);
  for (auto l : res.labels) EXPECT_LT(l, res.n_clusters);
}

TEST(KMeans, DeterministicUnderSeed) {
  common::Rng rng(3);
  const auto data = make_blobs(40, rng);
  KMeansOptions opts;
  opts.n_clusters = 4;
  opts.seed = 9;
  const auto a = kmeans(data, 160, 2, opts);
  const auto b = kmeans(data, 160, 2, opts);
  EXPECT_EQ(a.centroids, b.centroids);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(KMeans, ClampsKToN) {
  std::vector<float> data = {0, 0, 1, 1, 2, 2};  // 3 points, dim 2
  KMeansOptions opts;
  opts.n_clusters = 10;
  const auto res = kmeans(data, 3, 2, opts);
  EXPECT_EQ(res.n_clusters, 3u);
}

TEST(KMeans, SubsamplingStillLabelsAll) {
  common::Rng rng(4);
  const auto data = make_blobs(200, rng);
  KMeansOptions opts;
  opts.n_clusters = 4;
  opts.max_training_points = 100;  // train on 100, label all 800
  const auto res = kmeans(data, 800, 2, opts);
  EXPECT_EQ(res.labels.size(), 800u);
  // Blobs are separated enough that subsampled training still works.
  EXPECT_LT(res.inertia / 100.0, 2.0);
  // kmeans is kmeans_train plus the labelling: same centroids, and the
  // train-only result labels nothing.
  const auto trained = kmeans_train(data, 800, 2, opts);
  EXPECT_EQ(trained.centroids, res.centroids);
  EXPECT_EQ(trained.inertia, res.inertia);
  EXPECT_TRUE(trained.labels.empty());
  EXPECT_TRUE(trained.sizes.empty());
}

TEST(KMeans, SingleCluster) {
  common::Rng rng(5);
  const auto data = make_blobs(25, rng);
  KMeansOptions opts;
  opts.n_clusters = 1;
  const auto res = kmeans(data, 100, 2, opts);
  EXPECT_EQ(res.n_clusters, 1u);
  EXPECT_EQ(res.sizes[0], 100u);
}

TEST(KMeans, InertiaDecreasesVersusOneIteration) {
  common::Rng rng(6);
  const auto data = make_blobs(100, rng);
  KMeansOptions one;
  one.n_clusters = 4;
  one.max_iters = 1;
  one.seed = 3;
  KMeansOptions many = one;
  many.max_iters = 20;
  EXPECT_LE(kmeans(data, 400, 2, many).inertia,
            kmeans(data, 400, 2, one).inertia + 1e-6);
}

TEST(AssignLabels, MatchesNearestCentroid) {
  common::Rng rng(7);
  const auto data = make_blobs(30, rng);
  KMeansOptions opts;
  opts.n_clusters = 4;
  const auto res = kmeans(data, 120, 2, opts);
  const auto labels =
      assign_labels(data, 120, 2, res.centroids, res.n_clusters);
  EXPECT_EQ(labels, res.labels);
}

TEST(KMeans, SerialAndThreadedAgree) {
  common::Rng rng(8);
  const auto data = make_blobs(60, rng);
  KMeansOptions a;
  a.n_clusters = 4;
  a.use_threads = true;
  KMeansOptions b = a;
  b.use_threads = false;
  EXPECT_EQ(kmeans(data, 240, 2, a).labels, kmeans(data, 240, 2, b).labels);
}

// The fixed-chunk reduction contract (DESIGN.md §13): chunk boundaries
// depend only on n, never on worker count, so the training output is
// bit-for-bit identical for serial and for any pool size.
TEST(KMeans, BitIdenticalAcrossPoolSizes) {
  common::Rng rng(9);
  const auto data = make_blobs(400, rng);  // 1600 points, dim 2
  KMeansOptions serial;
  serial.n_clusters = 8;
  serial.seed = 11;
  serial.max_iters = 12;
  serial.use_threads = false;
  const auto want = kmeans(data, 1600, 2, serial);
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    common::ThreadPool pool(workers);
    KMeansOptions opts = serial;
    opts.use_threads = true;
    opts.n_threads = workers;
    opts.pool = &pool;
    const auto got = kmeans(data, 1600, 2, opts);
    EXPECT_EQ(got.centroids, want.centroids) << "workers=" << workers;
    EXPECT_EQ(got.labels, want.labels) << "workers=" << workers;
    EXPECT_EQ(got.sizes, want.sizes) << "workers=" << workers;
  }
}

TEST(KMeans, MiniBatchConvergesOnBlobs) {
  common::Rng rng(10);
  const auto data = make_blobs(200, rng);  // 800 points
  KMeansOptions opts;
  opts.n_clusters = 4;
  opts.seed = 13;
  opts.max_iters = 30;
  opts.batch_fraction = 0.25;
  const auto res = kmeans(data, 800, 2, opts);
  ASSERT_EQ(res.n_clusters, 4u);
  // Well-separated blobs: mini-batch must still land one centroid per blob
  // (tiny per-point inertia) and label every point.
  EXPECT_LT(res.inertia / 800.0, 1.0);
  for (std::uint32_t s : res.sizes) EXPECT_EQ(s, 200u);
}

TEST(KMeans, MiniBatchDeterministicAcrossPoolSizes) {
  common::Rng rng(12);
  const auto data = make_blobs(200, rng);
  KMeansOptions serial;
  serial.n_clusters = 4;
  serial.seed = 21;
  serial.batch_fraction = 0.5;
  serial.use_threads = false;
  const auto want = kmeans(data, 800, 2, serial);
  for (std::size_t workers = 1; workers <= 3; ++workers) {
    common::ThreadPool pool(workers);
    KMeansOptions opts = serial;
    opts.use_threads = true;
    opts.n_threads = workers;
    opts.pool = &pool;
    const auto got = kmeans(data, 800, 2, opts);
    EXPECT_EQ(got.centroids, want.centroids) << "workers=" << workers;
    EXPECT_EQ(got.labels, want.labels) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace upanns::quant
