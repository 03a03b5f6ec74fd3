// Lloyd's k-means with k-means++ seeding. This is the training substrate for
// both levels of IVFPQ: the coarse (IVF) quantizer and each PQ sub-quantizer.
//
// The distance kernels here define the one squared-L2 semantics every SIMD
// level implements identically (see DESIGN.md §13): each vector is summed
// over eight independent accumulation chains (chain j takes elements with
// index ≡ j mod 8, in increasing order) which are combined with the fixed
// tree ((c0+c1)+(c2+c3)) + ((c4+c5)+(c6+c7)). Every body performs that
// exact IEEE op sequence — no FMA contraction — so results are bit-identical
// across levels and layouts:
//   - row-major points against row-major centroids (l2_sq): scalar, SSE2
//     and AVX2 bodies;
//   - a point against block-major centroids, 8 centroids to a block
//     (transpose_centroids; nearest_centroid_t, squared_dists_t): scalar,
//     SSE2 and AVX2 bodies;
//   - 16 points in the point-lane layout against block-major centroids,
//     for dim <= kMaxLaneDim (nearest_centroid_lanes; kmeans_train's
//     seeding and Lloyd steps on PQ's sub-quantizers): an AVX-512 body, and
//     below that level the block-major kernel per point.
// The avx512 level runs the AVX2 bodies where it has none of its own.
#pragma once

#include <cstdint>
#include <functional>
#include <new>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace upanns::common {
class ThreadPool;
}

namespace upanns::quant {

struct KMeansOptions {
  std::size_t n_clusters = 16;
  std::size_t max_iters = 15;
  double tolerance = 1e-4;       ///< stop when relative inertia change < tol
  std::uint64_t seed = 42;
  bool use_threads = true;       ///< parallel assignment/update via the pool
  /// Subsample the training set to at most this many points (0 = no limit).
  std::size_t max_training_points = 0;
  /// Pool to run on (nullptr = ThreadPool::global()). Tests inject pools of
  /// varying sizes to pin thread-count independence.
  common::ThreadPool* pool = nullptr;
};

struct KMeansResult {
  std::vector<float> centroids;       ///< n_clusters x dim, row-major
  std::vector<std::uint32_t> labels;  ///< per input point (all n)
  std::vector<std::uint32_t> sizes;   ///< points per cluster
  double inertia = 0.0;               ///< sum of squared distances
  std::size_t iterations = 0;
  std::size_t dim = 0;
  std::size_t n_clusters = 0;
  double train_seconds = 0.0;   ///< seeding + Lloyd iterations
  double seed_seconds = 0.0;    ///< the k-means++ seeding part of train_seconds
  double assign_seconds = 0.0;  ///< final full-dataset labeling pass
  /// Point-to-centroid distances seeding and the iterations computed, and
  /// how many an unpruned run computes (n_train * (k - 1) for seeding, one
  /// full k-scan per point and iteration).
  std::uint64_t distances = 0;
  std::uint64_t full_scan_distances = 0;
};

/// Smallest dimension at which kmeans_train prunes with exact bounds
/// (DESIGN.md §13). micro_kernels measured the prunes losing on PQ's
/// residual slices at every dimension and winning on clustered points from
/// dimension 32 on; 64 prunes every coarse quantizer here (dim 96 to 128)
/// and no PQ slice of m >= 4 subspaces.
inline constexpr std::size_t kBoundPruneMinDim = 64;

/// Squared L2 distance between two dim-length vectors (8-chain semantics,
/// dispatched on the active SIMD level).
float l2_sq(const float* a, const float* b, std::size_t dim);

/// Find the nearest centroid (row-major centroids, n x dim).
/// Returns (index, squared distance); ties break to the lowest index.
std::pair<std::uint32_t, float> nearest_centroid(const float* point,
                                                 const float* centroids,
                                                 std::size_t n,
                                                 std::size_t dim);

/// Centroid count padded to whole 8-centroid blocks.
inline std::size_t pad8(std::size_t k) { return (k + 7) & ~std::size_t{7}; }

/// Allocator that starts a buffer on a cache line. Every block-major block
/// is a multiple of 32 bytes long, so from an aligned start no 32-byte lane
/// load straddles two lines.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }
  template <class U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

/// Storage for centroids in the block-major layout.
using BlockMajor = std::vector<float, CacheLineAllocator<float>>;

/// Transpose row-major centroids (k x dim) into the block-major layout the
/// blocked kernels scan: out[(c / 8) * dim * 8 + d * 8 + c % 8], so each
/// 8-centroid block is one contiguous dim x 32-byte stripe. Writes
/// pad8(k) * dim floats; the padding lanes of the last block are zero.
void transpose_centroids(const float* centroids, std::size_t k,
                         std::size_t dim, float* out);

/// Nearest centroid over a block-major layout of k centroids. Distances are
/// bit-identical to l2_sq against the row-major centroid; ties break to the
/// lowest index, padding lanes never win, and when no distance is below
/// +inf the result is (0, +inf) — exactly like nearest_centroid.
std::pair<std::uint32_t, float> nearest_centroid_t(const float* point,
                                                   const float* tctr,
                                                   std::size_t k,
                                                   std::size_t dim);

/// The point-lane layout for dim <= kMaxLaneDim: groups of kLanePoints
/// points, point j of a group holding dimension d at group[d * kLanePoints
/// + j], so each dimension of 16 points fills one AVX-512 register.
inline constexpr std::size_t kLanePoints = 16;
inline constexpr std::size_t kMaxLaneDim = 8;

/// Nearest centroid of each of the 16 points of one point-lane group over a
/// block-major layout of k centroids: idx[j] and dist[j] are exactly
/// nearest_centroid_t of point j (dim <= kMaxLaneDim).
void nearest_centroid_lanes(const float* group, const float* tctr,
                            std::size_t k, std::size_t dim, std::uint32_t* idx,
                            float* dist);

/// All k squared distances over a block-major layout, bit-identical to
/// calling l2_sq per row-major centroid. Used by the LUT build.
void squared_dists_t(const float* point, const float* tctr, std::size_t k,
                     std::size_t dim, float* out);

/// Seeding plus the Lloyd iterations only: fills everything
/// but labels and sizes. For callers that keep only the centroids (PQ
/// training). Row i starts at data[i * row_pitch] (0 = dim), so a caller
/// can train on a column slice of wider rows without copying it out first:
/// only the training rows are gathered, after the same subsample draws.
KMeansResult kmeans_train(std::span<const float> data, std::size_t n,
                          std::size_t dim, const KMeansOptions& opts,
                          std::size_t row_pitch = 0);

/// Train k-means on `n` points of dimension `dim` (row-major `data`): the
/// kmeans_train result plus labels and sizes for all n input points.
/// Deterministic for a fixed seed and SIMD level: identical output for any
/// use_threads / pool-size combination.
KMeansResult kmeans(std::span<const float> data, std::size_t n, std::size_t dim,
                    const KMeansOptions& opts);

/// Assign every point to its nearest centroid (parallel).
std::vector<std::uint32_t> assign_labels(std::span<const float> data,
                                         std::size_t n, std::size_t dim,
                                         std::span<const float> centroids,
                                         std::size_t n_clusters,
                                         bool use_threads = true);

namespace detail {
/// Per-level l2_sq implementations, exposed for the cross-level parity
/// suite. Only call a variant the CPU supports (see simd_max_supported).
float l2_sq_scalar(const float* a, const float* b, std::size_t dim);
float l2_sq_sse2(const float* a, const float* b, std::size_t dim);
float l2_sq_avx2(const float* a, const float* b, std::size_t dim);

/// Run fn(i) for i in [0, count): on `pool`, each thread claiming one index
/// at a time, when `threaded`; inline in index order otherwise. The first
/// exception is rethrown once every thread has stopped.
void run_indexed(common::ThreadPool* pool, bool threaded, std::size_t count,
                 const std::function<void(std::size_t)>& fn);
}  // namespace detail

}  // namespace upanns::quant
