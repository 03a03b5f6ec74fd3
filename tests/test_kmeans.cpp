#include "quant/kmeans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "common/simd_dispatch.hpp"
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
    opts.pool = &pool;
    const auto got = kmeans(data, 1600, 2, opts);
    EXPECT_EQ(got.centroids, want.centroids) << "workers=" << workers;
    EXPECT_EQ(got.labels, want.labels) << "workers=" << workers;
    EXPECT_EQ(got.sizes, want.sizes) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Exactness of the bound-pruned k-means (DESIGN.md §13). `reference_train`
// is a test-local copy of the algorithm as it stood before pruning: the full
// seeding sweep (every point against every new seed, dispatched l2_sq) and
// the nearest_centroid_t Lloyd step, on the same 4096-point chunk grid and
// rng stream. kmeans_train and kmeans must match it bit for bit: centroids,
// labels, inertia and iteration count.

constexpr std::size_t kRefChunk = 4096;
constexpr float kInf = std::numeric_limits<float>::infinity();

KMeansResult reference_train(const std::vector<float>& data, std::size_t n,
                             std::size_t dim, const KMeansOptions& opts) {
  const std::size_t k = std::min(opts.n_clusters, n);
  common::Rng rng(opts.seed);
  std::vector<float> train(data.begin(), data.begin() + n * dim);
  std::size_t nt = n;
  if (opts.max_training_points > 0 && n > opts.max_training_points) {
    nt = opts.max_training_points;
    const auto perm = common::random_permutation(n, rng);
    for (std::size_t i = 0; i < nt; ++i) {
      std::copy_n(data.data() + std::size_t{perm[i]} * dim, dim,
                  train.begin() + i * dim);
    }
    train.resize(nt * dim);
  }

  KMeansResult res;
  res.dim = dim;
  res.n_clusters = k;
  std::vector<float>& ctr = res.centroids;
  ctr.resize(k * dim);
  const std::size_t seed_chunks = (nt + kRefChunk - 1) / kRefChunk;
  std::vector<float> min_d(nt, kInf);
  std::copy_n(train.data() + rng.below(nt) * dim, dim, ctr.begin());
  for (std::size_t c = 1; c < k; ++c) {
    const float* last = ctr.data() + (c - 1) * dim;
    std::vector<double> sums(seed_chunks, 0.0);
    for (std::size_t i = 0; i < nt; ++i) {
      min_d[i] = std::min(min_d[i], l2_sq(train.data() + i * dim, last, dim));
      sums[i / kRefChunk] += min_d[i];
    }
    double total = 0.0;
    for (double s : sums) total += s;
    std::size_t chosen = 0;
    if (total > 0) {
      const double target = rng.uniform() * total;
      chosen = nt - 1;
      double acc = 0.0;
      for (std::size_t ci = 0; ci < seed_chunks; ++ci) {
        if (acc + sums[ci] >= target) {
          const std::size_t lo = ci * kRefChunk;
          const std::size_t hi = std::min(nt, lo + kRefChunk);
          chosen = hi - 1;
          for (std::size_t i = lo; i < hi; ++i) {
            acc += min_d[i];
            if (acc >= target) {
              chosen = i;
              break;
            }
          }
          break;
        }
        acc += sums[ci];
      }
    } else {
      chosen = rng.below(nt);
    }
    std::copy_n(train.data() + chosen * dim, dim, ctr.begin() + c * dim);
  }

  const std::size_t chunks = (nt + kRefChunk - 1) / kRefChunk;
  std::vector<float> t(pad8(k) * dim);
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < opts.max_iters; ++iter) {
    res.iterations = iter + 1;
    transpose_centroids(ctr.data(), k, dim, t.data());
    std::vector<double> part_inertia(chunks, 0.0);
    std::vector<double> part_acc(chunks * k * dim, 0.0);
    std::vector<std::uint32_t> part_cnt(chunks * k, 0);
    for (std::size_t j = 0; j < nt; ++j) {
      const std::size_t ci = j / kRefChunk;
      const float* p = train.data() + j * dim;
      const auto [c, d] = nearest_centroid_t(p, t.data(), k, dim);
      part_inertia[ci] += d;
      ++part_cnt[ci * k + c];
      double* a = part_acc.data() + (ci * k + c) * dim;
      for (std::size_t dd = 0; dd < dim; ++dd) a[dd] += p[dd];
    }
    double inertia = 0.0;
    for (double v : part_inertia) inertia += v;
    std::vector<double> acc(k * dim, 0.0);
    std::vector<std::uint32_t> counts(k, 0);
    for (std::size_t ci = 0; ci < chunks; ++ci) {
      for (std::size_t x = 0; x < k * dim; ++x) {
        acc[x] += part_acc[ci * k * dim + x];
      }
      for (std::size_t c = 0; c < k; ++c) counts[c] += part_cnt[ci * k + c];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        std::copy_n(train.data() + rng.below(nt) * dim, dim,
                    ctr.begin() + c * dim);
        continue;
      }
      for (std::size_t d = 0; d < dim; ++d) {
        ctr[c * dim + d] = static_cast<float>(acc[c * dim + d] / counts[c]);
      }
    }
    res.inertia = inertia;
    if (prev < std::numeric_limits<double>::infinity()) {
      const double rel = std::abs(prev - inertia) / std::max(prev, 1e-12);
      if (rel < opts.tolerance) break;
    }
    prev = inertia;
  }
  return res;
}

/// reference_train plus the final labelling of all n points, as kmeans.
KMeansResult reference_kmeans(const std::vector<float>& data, std::size_t n,
                              std::size_t dim, const KMeansOptions& opts) {
  KMeansResult res = reference_train(data, n, dim, opts);
  std::vector<float> t(pad8(res.n_clusters) * dim);
  transpose_centroids(res.centroids.data(), res.n_clusters, dim, t.data());
  res.sizes.assign(res.n_clusters, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c =
        nearest_centroid_t(data.data() + i * dim, t.data(), res.n_clusters, dim)
            .first;
    res.labels.push_back(c);
    ++res.sizes[c];
  }
  return res;
}

/// Bitwise comparison: NaN centroids and an infinite inertia compare equal
/// when their bits do.
void expect_bit_identical(const KMeansResult& got, const KMeansResult& want,
                          const std::string& where) {
  ASSERT_EQ(got.n_clusters, want.n_clusters) << where;
  ASSERT_EQ(got.centroids.size(), want.centroids.size()) << where;
  EXPECT_EQ(std::memcmp(got.centroids.data(), want.centroids.data(),
                        want.centroids.size() * sizeof(float)),
            0)
      << where;
  EXPECT_EQ(std::memcmp(&got.inertia, &want.inertia, sizeof(double)), 0)
      << where << " inertia " << got.inertia << " vs " << want.inertia;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(got.labels, want.labels) << where;
  EXPECT_EQ(got.sizes, want.sizes) << where;
}

std::vector<common::SimdLevel> supported_levels() {
  std::vector<common::SimdLevel> out;
  for (int l = 0; l <= static_cast<int>(common::simd_max_supported()); ++l) {
    out.push_back(static_cast<common::SimdLevel>(l));
  }
  return out;
}

/// Restore the dispatch level on scope exit so test order cannot leak.
struct LevelGuard {
  common::SimdLevel prev = common::simd_active_level();
  ~LevelGuard() { common::set_simd_level(prev); }
};

/// n points in tight boxes around `blobs` uniform centres, so later Lloyd
/// steps keep most labels and the bounds skip real work.
std::vector<float> boxed_blobs(std::size_t n, std::size_t dim,
                               std::size_t blobs, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> centres(blobs * dim);
  for (auto& v : centres) v = rng.uniform(-4.f, 4.f);
  std::vector<float> data(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const float* c = centres.data() + rng.below(blobs) * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      data[i * dim + d] = c[d] + rng.uniform(-0.5f, 0.5f);
    }
  }
  return data;
}

/// Train `data` with kmeans and kmeans_train at every SIMD level serially,
/// and with 1..4-thread pools at the entry level, against the reference.
void expect_matches_reference(const std::vector<float>& data, std::size_t n,
                              std::size_t dim, KMeansOptions opts,
                              const std::string& label) {
  opts.use_threads = false;
  const KMeansResult want = reference_kmeans(data, n, dim, opts);
  KMeansResult want_train = want;
  want_train.labels.clear();
  want_train.sizes.clear();
  const std::string where = label + " dim=" + std::to_string(dim) +
                            " k=" + std::to_string(opts.n_clusters) +
                            " n=" + std::to_string(n) + " sample=" +
                            std::to_string(opts.max_training_points);
  LevelGuard guard;
  for (const auto level : supported_levels()) {
    common::set_simd_level(level);
    const std::string at = where + " level=" + common::simd_level_name(level);
    expect_bit_identical(kmeans(data, n, dim, opts), want, at);
    expect_bit_identical(kmeans_train(data, n, dim, opts), want_train, at);
  }
  common::set_simd_level(guard.prev);
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    common::ThreadPool pool(workers);
    KMeansOptions threaded = opts;
    threaded.use_threads = true;
    threaded.pool = &pool;
    expect_bit_identical(kmeans(data, n, dim, threaded), want,
                         where + " workers=" + std::to_string(workers));
  }
}

// dim covers every point-lane width (1..8) and both sides of the pruning
// threshold; k covers one centroid, partial 8-lane blocks, exactly one and
// just over one 32-centroid bound group, and the coarse quantizer's sixteen
// groups. No n or sample is a whole number of 16-point lane groups.
TEST(KMeansExact, PrunedTrainingMatchesReferenceOverTheGrid) {
  std::vector<std::size_t> dims;
  for (std::size_t dim = 1; dim <= kMaxLaneDim; ++dim) dims.push_back(dim);
  dims.insert(dims.end(), {kBoundPruneMinDim - 1, kBoundPruneMinDim, 128});
  for (const std::size_t dim : dims) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                                std::size_t{32}, std::size_t{33},
                                std::size_t{512}}) {
      const std::size_t n = k == 512 ? 700 : 401;
      const auto data = boxed_blobs(n, dim, 24, 1000 + dim * 7 + k);
      for (const std::size_t sample : {std::size_t{0}, n * 3 / 4}) {
        KMeansOptions opts;
        opts.n_clusters = k;
        opts.max_iters = 6;
        opts.tolerance = 1e-7;
        opts.seed = 31 + k;
        opts.max_training_points = sample;
        expect_matches_reference(data, n, dim, opts, "blobs");
      }
    }
  }
}

// Data built to break a bound that is off by one rounding: exact duplicates,
// integer lattice points whose distances tie exactly, all-identical rows,
// k = n, a NaN row, and a row whose distances overflow to +inf.
TEST(KMeansExact, AdversarialDataMatchesReference) {
  for (const std::size_t dim :
       {std::size_t{5}, std::size_t{8}, kBoundPruneMinDim}) {
    common::Rng rng(dim);
    const std::size_t n = 300;
    std::vector<std::pair<std::string, std::vector<float>>> sets;

    std::vector<float> dup = boxed_blobs(n / 3, dim, 6, dim);
    const std::vector<float> once = dup;
    dup.insert(dup.end(), once.begin(), once.end());
    dup.insert(dup.end(), once.begin(), once.end());
    sets.emplace_back("duplicates", dup);

    std::vector<float> lattice(n * dim);
    for (auto& v : lattice) v = static_cast<float>(rng.below(3));
    sets.emplace_back("lattice", lattice);

    sets.emplace_back("identical", std::vector<float>(n * dim, 1.5f));

    // Points on the diagonal at integer steps: distances are exact, so a
    // point often ties between a centroid on either side of it.
    std::vector<float> diagonal(n * dim);
    for (std::size_t i = 0; i < n; ++i) {
      std::fill_n(diagonal.begin() + i * dim, dim,
                  static_cast<float>(rng.below(5)));
    }
    sets.emplace_back("diagonal", diagonal);

    // No cluster structure: labels keep moving between bound groups.
    std::vector<float> uniform(n * dim);
    for (auto& v : uniform) v = rng.uniform(-1.f, 1.f);
    sets.emplace_back("uniform", uniform);

    std::vector<float> with_nan = boxed_blobs(n, dim, 6, dim + 1);
    with_nan[137 * dim + 3] = std::numeric_limits<float>::quiet_NaN();
    sets.emplace_back("nan-row", with_nan);

    std::vector<float> with_huge = boxed_blobs(n, dim, 6, dim + 2);
    std::fill_n(with_huge.begin() + 61 * dim, dim, 3e19f);
    sets.emplace_back("overflow-row", with_huge);

    for (const auto& [name, data] : sets) {
      for (const std::size_t k :
           {std::size_t{7}, std::size_t{40}, std::size_t{100}}) {
        KMeansOptions opts;
        opts.n_clusters = k;
        opts.max_iters = 8;
        opts.tolerance = 0.0;
        opts.seed = 3 + k;
        expect_matches_reference(data, n, dim, opts, name);
      }
    }
    // k = n: every point may end up its own centroid.
    const auto small = boxed_blobs(40, dim, 4, dim + 3);
    KMeansOptions all;
    all.n_clusters = 40;
    all.max_iters = 4;
    all.tolerance = 0.0;
    expect_matches_reference(small, 40, dim, all, "k=n");
  }
}

// Point-lane training sets of several reduction chunks: a serial seeding
// sweep interleaves the chunks' sums, eight and then two at a time (nine
// whole chunks and a short one), and must keep each in index order.
TEST(KMeansExact, LaneSweepOverManyChunksMatchesReference) {
  const std::size_t n = 9 * 4096 + 37;
  for (const std::size_t dim : {std::size_t{5}, std::size_t{8}}) {
    const auto data = boxed_blobs(n, dim, 30, 90 + dim);
    for (const std::size_t sample :
         {std::size_t{0}, std::size_t{3 * 4096 + 5}}) {
      KMeansOptions opts;
      opts.n_clusters = 24;
      opts.max_iters = 3;
      opts.tolerance = 0.0;
      opts.max_training_points = sample;
      expect_matches_reference(data, n, dim, opts, "chunks");
    }
  }
}

// Three centroids per blob: over 30 steps some boundary points leave a
// label whose bound group is then skipped and later return to it, which
// only the old label's re-entry into its group's bound gets right.
TEST(KMeansExact, PointsReturningToASkippedGroupMatchReference) {
  const std::size_t n = 3000, dim = kBoundPruneMinDim;
  KMeansOptions opts;
  opts.n_clusters = 40;
  opts.max_iters = 30;
  opts.tolerance = 0.0;
  opts.seed = 6;
  expect_matches_reference(boxed_blobs(n, dim, 13, 6), n, dim, opts,
                           "returning");
}

// A column slice of wider rows, read at row pitch, trains exactly like the
// same columns copied out, with and without subsampling.
TEST(KMeansExact, RowPitchMatchesCopiedColumns) {
  const std::size_t n = 500, wide = 40, dim = 8, col = 16;
  const auto rows = boxed_blobs(n, wide, 10, 5);
  std::vector<float> cols(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(rows.data() + i * wide + col, dim, cols.data() + i * dim);
  }
  const std::span<const float> slice(rows.data() + col, (n - 1) * wide + dim);
  for (const std::size_t sample : {std::size_t{0}, std::size_t{300}}) {
    KMeansOptions opts;
    opts.n_clusters = 20;
    opts.max_training_points = sample;
    expect_bit_identical(kmeans_train(slice, n, dim, opts, wide),
                         kmeans_train(cols, n, dim, opts),
                         "sample=" + std::to_string(sample));
  }
}

// The distance counters: below the pruning dimension every distance of the
// full scan is computed; from it on, on clustered data, a fraction, in
// seeding and in the Lloyd steps.
TEST(KMeansExact, DistanceCountersReportThePrunedShare) {
  KMeansOptions opts;
  opts.n_clusters = 64;
  opts.max_iters = 6;
  opts.tolerance = 0.0;
  const auto low = kmeans_train(boxed_blobs(2000, 8, 16, 1), 2000, 8, opts);
  EXPECT_EQ(low.distances, low.full_scan_distances);
  EXPECT_EQ(low.full_scan_distances, 2000u * 63 + 2000u * 64 * 6);

  const std::size_t dim = kBoundPruneMinDim;
  const auto high =
      kmeans_train(boxed_blobs(2000, dim, 64, 1), 2000, dim, opts);
  EXPECT_EQ(high.full_scan_distances, 2000u * 63 + 2000u * 64 * 6);
  EXPECT_GT(high.distances, 0u);
  EXPECT_LT(high.distances, high.full_scan_distances / 2);
  EXPECT_GE(high.seed_seconds, 0.0);
  EXPECT_LE(high.seed_seconds, high.train_seconds);

  opts.max_iters = 0;  // seeding alone
  const auto seeded =
      kmeans_train(boxed_blobs(2000, dim, 64, 1), 2000, dim, opts);
  EXPECT_EQ(seeded.full_scan_distances, 2000u * 63);
  EXPECT_LT(seeded.distances, seeded.full_scan_distances * 3 / 4);
}

}  // namespace
}  // namespace upanns::quant
