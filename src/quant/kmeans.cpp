#include "quant/kmeans.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <tuple>
#include <type_traits>

#include "common/simd_dispatch.hpp"
#include "common/thread_pool.hpp"

#if defined(UPANNS_X86)
#include <immintrin.h>
#endif

namespace upanns::quant {

namespace {

/// The fixed combine tree shared by every kernel: chains are pairwise
/// reduced in one order so the scalar and vector bodies stay bit-identical.
inline float combine8(const float* ch) {
  return ((ch[0] + ch[1]) + (ch[2] + ch[3])) +
         ((ch[4] + ch[5]) + (ch[6] + ch[7]));
}

/// Offset of centroid c's dimension 0 in the block-major layout
/// [c / 8][d][c % 8]; dimension d sits d * 8 floats further on.
inline std::size_t lane_offset(std::size_t c, std::size_t dim) {
  return (c / 8) * dim * 8 + c % 8;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The scalar 8-chain distance, inlinable into loops that run it per point.
inline float l2_sq_chains(const float* a, const float* b, std::size_t dim) {
  float ch[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  const std::size_t full = dim & ~std::size_t{7};
  std::size_t i = 0;
  for (; i < full; i += 8) {
    for (std::size_t j = 0; j < 8; ++j) {
      const float d = a[i + j] - b[i + j];
      ch[j] += d * d;
    }
  }
  for (std::size_t j = 0; i < dim; ++i, ++j) {
    const float d = a[i] - b[i];
    ch[j] += d * d;
  }
  return combine8(ch);
}

}  // namespace

namespace detail {

float l2_sq_scalar(const float* a, const float* b, std::size_t dim) {
  return l2_sq_chains(a, b, dim);
}

#if defined(UPANNS_X86)

__attribute__((target("avx2"))) float l2_sq_avx2(const float* a, const float* b,
                                                 std::size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  const std::size_t full = dim & ~std::size_t{7};
  std::size_t i = 0;
  for (; i < full; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
  }
  alignas(32) float ch[8];
  _mm256_store_ps(ch, acc);
  for (std::size_t j = 0; i < dim; ++i, ++j) {
    const float d = a[i] - b[i];
    ch[j] += d * d;
  }
  return combine8(ch);
}

#else  // !UPANNS_X86

float l2_sq_avx2(const float* a, const float* b, std::size_t dim) {
  return l2_sq_scalar(a, b, dim);
}

#endif

void run_indexed(common::ThreadPool* pool, bool threaded, std::size_t count,
                 const std::function<void(std::size_t)>& fn) {
  if (!threaded) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // One claiming loop per thread, one index at a time. The pool's grid of
  // at most 4 * size() chunks would pair up the 25 point chunks of a 100k
  // labelling, and 13 pairs over 4 threads end later than 25 singles.
  std::atomic<std::size_t> next{0};
  pool->parallel_for(
      0, std::min(pool->size(), count),
      [&](std::size_t) {
        for (std::size_t i; (i = next++) < count;) fn(i);
      },
      1);
}

}  // namespace detail

float l2_sq(const float* a, const float* b, std::size_t dim) {
  switch (common::simd_active_level()) {
    case common::SimdLevel::kAvx512:
    case common::SimdLevel::kAvx2: return detail::l2_sq_avx2(a, b, dim);
    case common::SimdLevel::kScalar: break;
  }
  return detail::l2_sq_scalar(a, b, dim);
}

std::pair<std::uint32_t, float> nearest_centroid(const float* point,
                                                 const float* centroids,
                                                 std::size_t n,
                                                 std::size_t dim) {
  std::uint32_t best = 0;
  float best_d = std::numeric_limits<float>::infinity();
  for (std::size_t c = 0; c < n; ++c) {
    const float d = l2_sq(point, centroids + c * dim, dim);
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return {best, best_d};
}

void transpose_centroids(const float* centroids, std::size_t k,
                         std::size_t dim, float* out) {
  std::fill_n(out, pad8(k) * dim, 0.f);
  for (std::size_t c = 0; c < k; ++c) {
    const float* row = centroids + c * dim;
    float* lane = out + lane_offset(c, dim);
    for (std::size_t d = 0; d < dim; ++d) lane[d * 8] = row[d];
  }
}

namespace {

// ---------------------------------------------------------------------------
// Blocked distance kernels over the block-major layout. Lanes are centroids;
// each lane accumulates the same 8-chain / fixed-tree sequence as l2_sq, so
// per-centroid distances are bit-identical to the row-major path at every
// SIMD level. The vector bodies hold the eight chains in named registers:
// an unrolled x8 body feeds chain j with dimension d + j, and the dim % 8
// tail feeds chains 0..tail-1.

float lane_dist_scalar(const float* p, const float* lane, std::size_t dim) {
  float ch[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  for (std::size_t d = 0; d < dim; ++d) {
    const float x = p[d] - lane[d * 8];
    ch[d & 7] += x * x;
  }
  return combine8(ch);
}

void dists_t_scalar(const float* p, const float* t, std::size_t k,
                    std::size_t dim, float* out) {
  for (std::size_t c = 0; c < k; ++c) {
    out[c] = lane_dist_scalar(p, t + lane_offset(c, dim), dim);
  }
}

/// The reference selection: index order, strict-less compare, so ties break
/// to the lowest index and an all-+inf (or NaN) scan returns (0, +inf).
std::pair<std::uint32_t, float> nearest_t_scalar(const float* p,
                                                 const float* t, std::size_t k,
                                                 std::size_t dim) {
  std::uint32_t best = 0;
  float best_d = std::numeric_limits<float>::infinity();
  for (std::size_t c = 0; c < k; ++c) {
    const float d = lane_dist_scalar(p, t + lane_offset(c, dim), dim);
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return {best, best_d};
}

#if defined(UPANNS_X86)

// The fused argmin keeps centroid indices as float lanes (exact below 2^24)
// so one compare mask selects both the distance and its index.
constexpr std::size_t kMaxFusedK = std::size_t{1} << 24;

__attribute__((target("avx2"))) inline __m256 step_avx2(__m256 acc,
                                                       const float* p,
                                                       const float* c) {
  const __m256 x = _mm256_sub_ps(_mm256_set1_ps(*p), _mm256_loadu_ps(c));
  return _mm256_add_ps(acc, _mm256_mul_ps(x, x));
}

/// AVX2: all eight lanes of one block.
__attribute__((target("avx2"))) inline __m256 block_avx2(const float* p,
                                                        const float* blk,
                                                        std::size_t dim) {
  __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0, a3 = a0, a4 = a0,
         a5 = a0, a6 = a0, a7 = a0;
  const std::size_t full = dim & ~std::size_t{7};
  std::size_t d = 0;
  for (; d < full; d += 8) {
    const float* r = blk + d * 8;
    a0 = step_avx2(a0, p + d, r);
    a1 = step_avx2(a1, p + d + 1, r + 8);
    a2 = step_avx2(a2, p + d + 2, r + 16);
    a3 = step_avx2(a3, p + d + 3, r + 24);
    a4 = step_avx2(a4, p + d + 4, r + 32);
    a5 = step_avx2(a5, p + d + 5, r + 40);
    a6 = step_avx2(a6, p + d + 6, r + 48);
    a7 = step_avx2(a7, p + d + 7, r + 56);
  }
  const float* r = blk + d * 8;
  switch (dim - d) {
    case 7: a6 = step_avx2(a6, p + d + 6, r + 48); [[fallthrough]];
    case 6: a5 = step_avx2(a5, p + d + 5, r + 40); [[fallthrough]];
    case 5: a4 = step_avx2(a4, p + d + 4, r + 32); [[fallthrough]];
    case 4: a3 = step_avx2(a3, p + d + 3, r + 24); [[fallthrough]];
    case 3: a2 = step_avx2(a2, p + d + 2, r + 16); [[fallthrough]];
    case 2: a1 = step_avx2(a1, p + d + 1, r + 8); [[fallthrough]];
    case 1: a0 = step_avx2(a0, p + d, r); [[fallthrough]];
    default: break;
  }
  return _mm256_add_ps(
      _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3)),
      _mm256_add_ps(_mm256_add_ps(a4, a5), _mm256_add_ps(a6, a7)));
}

__attribute__((target("avx2"))) void dists_t_avx2(const float* p,
                                                  const float* t, std::size_t k,
                                                  std::size_t dim, float* out) {
  alignas(32) float buf[8];
  for (std::size_t c0 = 0; c0 < k; c0 += 8, t += dim * 8) {
    const __m256 total = block_avx2(p, t, dim);
    if (c0 + 8 <= k) {
      _mm256_storeu_ps(out + c0, total);
    } else {
      _mm256_store_ps(buf, total);
      for (std::size_t j = 0; c0 + j < k; ++j) out[c0 + j] = buf[j];
    }
  }
}

/// Broadcast the minimum of eight lanes.
__attribute__((target("avx2"))) inline __m256 hmin_avx2(__m256 v) {
  v = _mm256_min_ps(v, _mm256_permute2f128_ps(v, v, 1));
  v = _mm256_min_ps(v, _mm256_shuffle_ps(v, v, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm256_min_ps(v, _mm256_shuffle_ps(v, v, _MM_SHUFFLE(2, 3, 0, 1)));
}

/// Fused argmin: a running minimum per lane (padding lanes at +inf), kept
/// by an ordered strict compare, so a NaN never wins and a tie keeps the
/// lane's lower index; then the lowest index among the lanes that hold the
/// overall minimum.
__attribute__((target("avx2"))) std::pair<std::uint32_t, float>
nearest_t_avx2(const float* p, const float* t, std::size_t k,
               std::size_t dim) {
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  const __m256 kv = _mm256_set1_ps(static_cast<float>(k));
  __m256 best_d = inf;
  __m256 best_i = _mm256_setzero_ps();
  __m256 idx = _mm256_setr_ps(0.f, 1.f, 2.f, 3.f, 4.f, 5.f, 6.f, 7.f);
  for (std::size_t c0 = 0; c0 < k; c0 += 8, t += dim * 8) {
    __m256 dv = block_avx2(p, t, dim);
    if (c0 + 8 > k) {
      dv = _mm256_blendv_ps(inf, dv, _mm256_cmp_ps(idx, kv, _CMP_LT_OQ));
    }
    const __m256 lt = _mm256_cmp_ps(dv, best_d, _CMP_LT_OQ);
    best_d = _mm256_min_ps(dv, best_d);
    best_i = _mm256_blendv_ps(best_i, idx, lt);
    idx = _mm256_add_ps(idx, _mm256_set1_ps(8.f));
  }
  const __m256 m = hmin_avx2(best_d);
  const __m256 i = hmin_avx2(
      _mm256_blendv_ps(inf, best_i, _mm256_cmp_ps(best_d, m, _CMP_EQ_OQ)));
  return {static_cast<std::uint32_t>(_mm256_cvtss_f32(i)),
          _mm256_cvtss_f32(m)};
}

// ---------------------------------------------------------------------------
// Point-lane kernels for dim <= kMaxLaneDim (PQ's sub-quantizers). The 16
// lanes of a zmm hold 16 points, and one pass over the centroids in index
// order broadcasts each centroid's coordinates against them. Each dimension
// is one accumulation chain of the 8-chain semantics, whose value 0 + x*x
// is x*x exactly; the fixed tree then pairs the chains. A chain at or past
// dim holds 0, which adds nothing to a square (+0 or more, or NaN), so a
// pair with no term left is dropped. The compare is strict and ordered, as
// in nearest_t_scalar, so ties, NaN and all-+inf scans resolve alike.
// AVX-512F would contract the mul and the tree's add into an FMA by default,
// which rounds differently.

#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

/// The fixed tree over chains [J, J + W) when chains [0, D) are present.
template <std::size_t D, std::size_t J, std::size_t W>
UPANNS_AVX512 inline __m512 lane_tree(const __m512* ch) {
  if constexpr (W == 1) {
    return ch[J];
  } else if constexpr (J + W / 2 >= D) {
    return lane_tree<D, J, W / 2>(ch);
  } else {
    return _mm512_add_ps(lane_tree<D, J, W / 2>(ch),
                         lane_tree<D, J + W / 2, W / 2>(ch));
  }
}

/// The 16 points' distances to the centroid whose dimension d is at
/// c[d * stride].
template <std::size_t D>
UPANNS_AVX512 inline __m512 lane_dists(const __m512* x, const float* c,
                                       std::size_t stride) {
  __m512 ch[D];
  for (std::size_t d = 0; d < D; ++d) {
    const __m512 v = _mm512_sub_ps(x[d], _mm512_set1_ps(c[d * stride]));
    ch[d] = _mm512_mul_ps(v, v);
  }
  return lane_tree<D, 0, 8>(ch);
}

template <std::size_t D>
UPANNS_AVX512 void nearest_lanes_avx512(const float* group, const float* t,
                                        std::size_t k, std::uint32_t* idx,
                                        float* dist) {
  __m512 x[D];
  for (std::size_t d = 0; d < D; ++d) {
    x[d] = _mm512_loadu_ps(group + d * kLanePoints);
  }
  __m512 best_d = _mm512_set1_ps(std::numeric_limits<float>::infinity());
  __m512i best_i = _mm512_setzero_si512();
  for (std::size_t c = 0; c < k; ++c) {
    const __m512 dv = lane_dists<D>(x, t + lane_offset(c, D), 8);
    const __mmask16 lt = _mm512_cmp_ps_mask(dv, best_d, _CMP_LT_OQ);
    best_d = _mm512_mask_mov_ps(best_d, lt, dv);
    best_i = _mm512_mask_mov_epi32(best_i, lt,
                                   _mm512_set1_epi32(static_cast<int>(c)));
  }
  _mm512_storeu_ps(dist, best_d);
  _mm512_storeu_si512(idx, best_i);
}

/// min_d = min(min_d, distance to c) over n_groups consecutive groups.
template <std::size_t D>
UPANNS_AVX512 void sweep_lanes_avx512(const float* groups,
                                      std::size_t n_groups, const float* c,
                                      float* min_d) {
  for (std::size_t g = 0; g < n_groups; ++g) {
    const float* grp = groups + g * D * kLanePoints;
    __m512 x[D];
    for (std::size_t d = 0; d < D; ++d) {
      x[d] = _mm512_loadu_ps(grp + d * kLanePoints);
    }
    const __m512 dv = lane_dists<D>(x, c, 1);
    float* m = min_d + g * kLanePoints;
    const __m512 mv = _mm512_loadu_ps(m);
    // vminps(a, b) is a < b ? a : b, i.e. std::min(min_d, d).
    _mm512_storeu_ps(m, _mm512_mask_min_ps(mv, 0xFFFF, dv, mv));
  }
}

#pragma GCC pop_options

/// Call fn with dim (1..kMaxLaneDim) as a compile-time constant.
template <class Fn>
void with_lane_dim(std::size_t dim, Fn&& fn) {
  switch (dim) {
    case 1: return fn(std::integral_constant<std::size_t, 1>{});
    case 2: return fn(std::integral_constant<std::size_t, 2>{});
    case 3: return fn(std::integral_constant<std::size_t, 3>{});
    case 4: return fn(std::integral_constant<std::size_t, 4>{});
    case 5: return fn(std::integral_constant<std::size_t, 5>{});
    case 6: return fn(std::integral_constant<std::size_t, 6>{});
    case 7: return fn(std::integral_constant<std::size_t, 7>{});
    case 8: return fn(std::integral_constant<std::size_t, 8>{});
    default: assert(false && "point lanes hold at most kMaxLaneDim dims");
  }
}

#endif  // UPANNS_X86

/// Offset of point i's dimension 0 in the point-lane layout
/// [i / 16][d][i % 16]; dimension d sits d * 16 floats further on.
inline std::size_t point_offset(std::size_t i, std::size_t dim) {
  return (i / kLanePoints) * dim * kLanePoints + i % kLanePoints;
}

/// Point i of a point-lane layout, copied out row-major.
inline void lane_point(const float* lanes, std::size_t i, std::size_t dim,
                       float* out) {
  const float* p = lanes + point_offset(i, dim);
  for (std::size_t d = 0; d < dim; ++d) out[d] = p[d * kLanePoints];
}

}  // namespace

void nearest_centroid_lanes(const float* group, const float* tctr,
                            std::size_t k, std::size_t dim, std::uint32_t* idx,
                            float* dist) {
  assert(dim >= 1 && dim <= kMaxLaneDim);
#if defined(UPANNS_X86)
  if (common::simd_active_level() >= common::SimdLevel::kAvx512) {
    return with_lane_dim(dim, [&](auto D) {
      nearest_lanes_avx512<D()>(group, tctr, k, idx, dist);
    });
  }
#endif
  for (std::size_t j = 0; j < kLanePoints; ++j) {
    float p[kMaxLaneDim];
    lane_point(group, j, dim, p);
    std::tie(idx[j], dist[j]) = nearest_centroid_t(p, tctr, k, dim);
  }
}

void squared_dists_t(const float* point, const float* tctr, std::size_t k,
                     std::size_t dim, float* out) {
#if defined(UPANNS_X86)
  switch (common::simd_active_level()) {
    case common::SimdLevel::kAvx512:
    case common::SimdLevel::kAvx2:
      return dists_t_avx2(point, tctr, k, dim, out);
    case common::SimdLevel::kScalar: break;
  }
#endif
  dists_t_scalar(point, tctr, k, dim, out);
}

std::pair<std::uint32_t, float> nearest_centroid_t(const float* point,
                                                   const float* tctr,
                                                   std::size_t k,
                                                   std::size_t dim) {
#if defined(UPANNS_X86)
  assert(k <= kMaxFusedK);
  switch (common::simd_active_level()) {
    case common::SimdLevel::kAvx512:
    case common::SimdLevel::kAvx2: return nearest_t_avx2(point, tctr, k, dim);
    case common::SimdLevel::kScalar: break;
  }
#endif
  return nearest_t_scalar(point, tctr, k, dim);
}

namespace {

/// Fixed reduction chunk: boundaries depend only on n, never on the pool
/// size, so chunk partial sums (merged in chunk order) give bit-identical
/// results for any thread count — serial included.
constexpr std::size_t kReduceChunk = 4096;

std::size_t chunk_count(std::size_t n) {
  return n == 0 ? 0 : (n - 1) / kReduceChunk + 1;
}

/// n rounded up to whole point-lane groups.
std::size_t pad_lanes(std::size_t n) {
  return (n + kLanePoints - 1) / kLanePoints * kLanePoints;
}

struct Workers {
  common::ThreadPool* pool;
  bool threaded;
};

Workers workers_for(const KMeansOptions& opts) {
  common::ThreadPool* pool =
      opts.pool ? opts.pool : &common::ThreadPool::global();
  return {pool, opts.use_threads && pool->size() > 1};
}

// ---------------------------------------------------------------------------
// Exact bound pruning (DESIGN.md §13): a distance is skipped only when a
// triangle-inequality bound proves its computed value could not change the
// output. Bounds are in true (not squared) distance units. kEps covers the
// rounding of every computed squared distance (relative error below 3.1e-5
// up to kMaxPrunedDim); a squared distance under kTinySq, where underflow
// may have cost its relative precision, yields no bound.

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kEps = 1e-3f;
constexpr float kTinySq = 1e-30f;
constexpr std::size_t kMaxPrunedDim = 4096;
/// Seeding skips x when min_d[x] <= cc * kSeedScale, cc = d(c_a, c_new)^2.
constexpr float kSeedScale = 0.25f / (1.f + kEps);
/// Centroids per Lloyd bound group: four 8-lane blocks, one
/// squared_dists_t call.
constexpr std::size_t kGroup = 32;
/// 1 - 2^-22: pulls a drift-lowered bound below the subtraction's rounding.
constexpr float kShrink = 1.f - 0x1p-22f;

bool bound_pruned(std::size_t dim) {
  return dim >= kBoundPruneMinDim && dim <= kMaxPrunedDim;
}

/// A lower bound on the true distance behind computed squared distance s;
/// 0 (no bound) when s is tiny, +inf or NaN.
inline float lower_dist(float s) {
  return s >= kTinySq && s < kInf ? std::sqrt(s) * (1.f - kEps) : 0.f;
}

/// An upper bound on the true distance behind finite squared distance s.
inline float upper_dist(float s) {
  return std::sqrt(std::max(s, kTinySq)) * (1.f + kEps);
}

/// kmeans_train holds its training points in the point-lane layout when
/// dim <= kMaxLaneDim (padded with zero points to whole groups), row-major
/// otherwise.
bool lane_layout(std::size_t dim) { return dim <= kMaxLaneDim; }

/// Training point i, copied out row-major.
void copy_point(const float* train, std::size_t i, std::size_t dim,
                float* out) {
  if (lane_layout(dim)) {
    lane_point(train, i, dim, out);
  } else {
    std::copy_n(train + i * dim, dim, out);
  }
}

/// min_d[i] = min(min_d[i], d(i, c)) over lane-layout points [lo, hi); lo
/// starts a group, and the group holding hi - 1 is swept whole, so min_d
/// must extend to the padded count.
void sweep_lanes(const float* train, std::size_t lo, std::size_t hi,
                 const float* c, std::size_t dim, float* min_d) {
#if defined(UPANNS_X86)
  if (common::simd_active_level() >= common::SimdLevel::kAvx512) {
    const std::size_t g0 = lo / kLanePoints;
    const std::size_t g1 = (hi + kLanePoints - 1) / kLanePoints;
    return with_lane_dim(dim, [&](auto D) {
      sweep_lanes_avx512<D()>(train + g0 * D() * kLanePoints, g1 - g0, c,
                              min_d + lo);
    });
  }
#endif
  for (std::size_t i = lo; i < hi; ++i) {
    float p[kMaxLaneDim];
    lane_point(train, i, dim, p);
    min_d[i] = std::min(min_d[i], l2_sq_chains(p, c, dim));
  }
}

/// s[j] += v[j * kReduceChunk + i] for i in [lo, hi), j < W: W chunks'
/// index-order addition chains, interleaved.
template <std::size_t W>
void add_chains(const float* v, std::size_t lo, std::size_t hi, double* s) {
  double a[W] = {};
  std::copy_n(s, W, a);
  for (std::size_t i = lo; i < hi; ++i) {
    for (std::size_t j = 0; j < W; ++j) a[j] += v[j * kReduceChunk + i];
  }
  std::copy_n(a, W, s);
}

void add_chains(std::size_t w, const float* v, std::size_t lo, std::size_t hi,
                double* s) {
  switch (w) {
    case 8: return add_chains<8>(v, lo, hi, s);
    case 7: return add_chains<7>(v, lo, hi, s);
    case 6: return add_chains<6>(v, lo, hi, s);
    case 5: return add_chains<5>(v, lo, hi, s);
    case 4: return add_chains<4>(v, lo, hi, s);
    case 3: return add_chains<3>(v, lo, hi, s);
    case 2: return add_chains<2>(v, lo, hi, s);
    case 1: return add_chains<1>(v, lo, hi, s);
    default: return;
  }
}

/// out[c] = the index-order double sum of chunk c of v[0, n), the last
/// chunk possibly short. Up to eight chunks' chains run interleaved, so a
/// serial sweep is not bound by the latency of one chain.
void chunk_sums(const float* v, std::size_t n, double* out) {
  for (std::size_t c0 = 0; c0 * kReduceChunk < n; c0 += 8) {
    const float* base = v + c0 * kReduceChunk;
    const std::size_t w =
        std::min<std::size_t>(8, chunk_count(n - c0 * kReduceChunk));
    const std::size_t last =  // length of the group's last chunk
        std::min(kReduceChunk, n - (c0 + w - 1) * kReduceChunk);
    double s[8] = {};
    add_chains(w, base, 0, last, s);
    add_chains(w - 1, base, last, kReduceChunk, s);
    std::copy_n(s, w, out + c0);
  }
}

// k-means++ seeding: spread initial centroids proportional to squared
// distance from already-chosen seeds. The per-seed O(n·dim) sweep runs
// chunked over the pool; the weighted pick first scans chunk sums, then
// replays the chosen chunk's additions in the same order, so the selection
// is exact and thread-count independent.
//
// A pruned sweep skips x when its nearest seed so far, a, has
// d(c_a, c_new)^2 >= 4(1+eps) min_d[x]: then d(x, c_new) >= d(x, c_a), so
// min_d[x] cannot drop. lim[a] is that threshold; 0 lets only min_d = 0
// skip, which no distance can lower. Below the pruning dimension the sweep
// runs the scalar 8-chain distance inline, bit-identical to every level,
// and on lane-layout points the point-lane kernel; a serial lane sweep
// sums all its chunks at once, their chains interleaved.
std::vector<float> seed_plus_plus(const float* data, std::size_t n,
                                  std::size_t dim, std::size_t k,
                                  common::Rng& rng, Workers w,
                                  std::uint64_t& distances) {
  std::vector<float> centroids(k * dim);
  const bool lanes = lane_layout(dim);
  std::vector<float> min_d(lanes ? pad_lanes(n) : n, kInf);
  const bool prune = bound_pruned(dim);
  std::vector<std::uint32_t> near(prune ? n : 0, 0);
  std::vector<float> lim(prune ? k : 0, 0.f);
  const std::size_t n_chunks = chunk_count(n);
  std::vector<double> chunk_sum(n_chunks);
  std::vector<std::uint64_t> chunk_dists(n_chunks);

  copy_point(data, rng.below(n), dim, centroids.data());

  for (std::size_t c = 1; c < k; ++c) {
    const float* last = centroids.data() + (c - 1) * dim;
    if (prune) {
      for (std::size_t a = 0; a + 1 < c; ++a) {
        const float cc = l2_sq(centroids.data() + a * dim, last, dim);
        lim[a] = cc >= kTinySq && cc < kInf ? cc * kSeedScale : 0.f;
      }
    }
    if (lanes) {
      // A serial sweep is one task, which interleaves every chunk's sum.
      const std::size_t tasks = w.threaded ? n_chunks : 1;
      detail::run_indexed(w.pool, w.threaded, tasks, [&](std::size_t t) {
        const std::size_t lo = t * kReduceChunk;
        const std::size_t hi = w.threaded ? std::min(n, lo + kReduceChunk) : n;
        sweep_lanes(data, lo, hi, last, dim, min_d.data());
        chunk_sums(min_d.data() + lo, hi - lo, chunk_sum.data() + t);
      });
      distances += n;
    } else {
      detail::run_indexed(w.pool, w.threaded, n_chunks, [&](std::size_t ci) {
        const std::size_t lo = ci * kReduceChunk;
        const std::size_t hi = std::min(n, lo + kReduceChunk);
        double s = 0.0;
        std::uint64_t computed = hi - lo;
        if (prune) {
          for (std::size_t i = lo; i < hi; ++i) {
            if (min_d[i] <= lim[near[i]]) {
              --computed;
            } else if (const float d = l2_sq(data + i * dim, last, dim);
                       d < min_d[i]) {
              min_d[i] = d;
              near[i] = static_cast<std::uint32_t>(c - 1);
            }
            s += min_d[i];
          }
        } else {
          for (std::size_t i = lo; i < hi; ++i) {
            const float d = l2_sq_chains(data + i * dim, last, dim);
            min_d[i] = std::min(min_d[i], d);
            s += min_d[i];
          }
        }
        chunk_sum[ci] = s;
        chunk_dists[ci] = computed;
      });
      for (std::uint64_t v : chunk_dists) distances += v;
    }
    double total = 0.0;
    for (double s : chunk_sum) total += s;

    std::size_t chosen;
    if (total > 0) {
      const double target = rng.uniform() * total;
      chosen = n - 1;
      double acc = 0.0;
      for (std::size_t ci = 0; ci < n_chunks; ++ci) {
        if (acc + chunk_sum[ci] >= target) {
          const std::size_t lo = ci * kReduceChunk;
          const std::size_t hi = std::min(n, lo + kReduceChunk);
          chosen = hi - 1;  // rounding fallback; the loop below normally hits
          for (std::size_t i = lo; i < hi; ++i) {
            acc += min_d[i];
            if (acc >= target) {
              chosen = i;
              break;
            }
          }
          break;
        }
        acc += chunk_sum[ci];
      }
    } else {
      chosen = rng.below(n);
    }
    copy_point(data, chosen, dim, centroids.data() + c * dim);
  }
  return centroids;
}

/// The centroids one bound-pruned Lloyd assignment step reads.
struct BoundedStep {
  const float* tctr;       ///< block-major centroids
  const float* centroids;  ///< the same, row-major
  const float* drift;      ///< per group: upper bound on its centroids' moves
  std::size_t k;
  std::size_t dim;
  std::size_t groups;
  bool first;  ///< no labels or bounds yet: scan everything
};

/// Bound-pruned nearest centroid: the same (index, distance) as
/// nearest_centroid_t. `label` and `lb` (per group of kGroup centroids, a
/// lower bound on the distance to each of them but the label) carry over
/// from the previous step. The label's exact distance, which inertia needs
/// anyway, is the upper bound; only groups whose lowered bound does not
/// exceed it are scanned, ties break to the lowest index, and a non-finite
/// distance or bound scans everything it could hide. `dist` (k floats) and
/// `scanned` (one flag per group) are scratch.
std::pair<std::uint32_t, float> bounded_nearest(const BoundedStep& st,
                                                const float* p,
                                                std::uint32_t label,
                                                float* lb, float* dist,
                                                std::uint8_t* scanned,
                                                std::uint64_t& computed) {
  const std::size_t dim = st.dim;
  std::uint32_t best = 0;
  float best_d = kInf;
  float ub = kInf;
  float label_d = kInf;
  if (!st.first) {
    label_d = l2_sq(p, st.centroids + static_cast<std::size_t>(label) * dim,
                    dim);
    ++computed;
    for (std::size_t g = 0; g < st.groups; ++g) {
      lb[g] = (lb[g] - st.drift[g]) * kShrink;
    }
    if (label_d < kInf) {
      best = label;
      best_d = label_d;
      ub = upper_dist(label_d);
    }
  }
  for (std::size_t g = 0; g < st.groups; ++g) {
    scanned[g] = st.first || !(lb[g] > ub);
    if (!scanned[g]) continue;
    const std::size_t c0 = g * kGroup;
    const std::size_t c1 = std::min(st.k, c0 + kGroup);
    squared_dists_t(p, st.tctr + c0 * dim, c1 - c0, dim, dist + c0);
    computed += c1 - c0;
    for (std::size_t c = c0; c < c1; ++c) {
      if (dist[c] < best_d || (dist[c] == best_d && c < best)) {
        best = static_cast<std::uint32_t>(c);
        best_d = dist[c];
      }
    }
  }
  for (std::size_t g = 0; g < st.groups; ++g) {
    if (!scanned[g]) continue;
    const std::size_t c0 = g * kGroup;
    const std::size_t c1 = std::min(st.k, c0 + kGroup);
    float m = kInf;
    bool others = false;
    for (std::size_t c = c0; c < c1; ++c) {
      if (c == best) continue;
      others = true;
      m = std::min(m, dist[c]);  // a NaN never lowers m
    }
    lb[g] = others ? lower_dist(m) : kInf;
  }
  if (!st.first && best != label && !scanned[label / kGroup]) {
    float& l = lb[label / kGroup];
    l = std::min(l, lower_dist(label_d));
  }
  return {best, best_d};
}

/// Per group, an upper bound on how far its centroids moved from `prev` to
/// `next` (both row-major); +inf when a move is not finite.
void group_drift(const float* prev, const float* next, std::size_t k,
                 std::size_t dim, float* drift) {
  for (std::size_t g = 0; g * kGroup < k; ++g) {
    float m = 0.f;
    for (std::size_t c = g * kGroup; c < std::min(k, (g + 1) * kGroup); ++c) {
      const float s = l2_sq(prev + c * dim, next + c * dim, dim);
      m = std::max(m, s < kInf ? upper_dist(s) : kInf);
    }
    drift[g] = m;
  }
}

/// Label n points with their nearest of k row-major centroids, over the
/// block-major kernel and the fixed chunk grid.
std::vector<std::uint32_t> label_points(const float* data, std::size_t n,
                                        std::size_t dim,
                                        const float* centroids, std::size_t k,
                                        Workers w) {
  BlockMajor tctr(pad8(k) * dim);
  transpose_centroids(centroids, k, dim, tctr.data());
  std::vector<std::uint32_t> labels(n);
  detail::run_indexed(w.pool, w.threaded, chunk_count(n), [&](std::size_t ci) {
    const std::size_t lo = ci * kReduceChunk;
    const std::size_t hi = std::min(n, lo + kReduceChunk);
    for (std::size_t i = lo; i < hi; ++i) {
      labels[i] = nearest_centroid_t(data + i * dim, tctr.data(), k, dim).first;
    }
  });
  return labels;
}

}  // namespace

std::vector<std::uint32_t> assign_labels(std::span<const float> data,
                                         std::size_t n, std::size_t dim,
                                         std::span<const float> centroids,
                                         std::size_t n_clusters,
                                         bool use_threads) {
  return label_points(data.data(), n, dim, centroids.data(), n_clusters,
                      {&common::ThreadPool::global(), use_threads});
}

KMeansResult kmeans_train(std::span<const float> data, std::size_t n,
                          std::size_t dim, const KMeansOptions& opts,
                          std::size_t row_pitch) {
  const std::size_t pitch = row_pitch ? row_pitch : dim;
  assert(n > 0 && dim > 0 && opts.n_clusters > 0 && pitch >= dim);
  assert(data.size() >= (n - 1) * pitch + dim);
  const double t_start = now_seconds();
  const std::size_t k = std::min(opts.n_clusters, n);
  common::Rng rng(opts.seed);
  const Workers w = workers_for(opts);

  // Optional subsampling keeps training tractable for large synthetic sets.
  // Sampled or strided rows, and every row of a lane-layout set, are
  // gathered into contiguous storage.
  std::vector<float> sample_storage;
  const float* train = data.data();
  std::size_t n_train = n;
  const bool sampled =
      opts.max_training_points > 0 && n > opts.max_training_points;
  const bool lanes = lane_layout(dim);
  if (sampled || pitch != dim || lanes) {
    std::vector<std::uint32_t> perm;
    if (sampled) {
      n_train = opts.max_training_points;
      perm = common::random_permutation(n, rng);
    }
    sample_storage.resize((lanes ? pad_lanes(n_train) : n_train) * dim);
    for (std::size_t i = 0; i < n_train; ++i) {
      const float* src = data.data() + (sampled ? perm[i] : i) * pitch;
      if (lanes) {
        float* p = sample_storage.data() + point_offset(i, dim);
        for (std::size_t d = 0; d < dim; ++d) p[d * kLanePoints] = src[d];
      } else {
        std::copy_n(src, dim, sample_storage.begin() + i * dim);
      }
    }
    train = sample_storage.data();
  }

  KMeansResult result;
  result.dim = dim;
  result.n_clusters = k;
  const double t_seed = now_seconds();
  result.centroids =
      seed_plus_plus(train, n_train, dim, k, rng, w, result.distances);
  result.seed_seconds = now_seconds() - t_seed;
  result.full_scan_distances = n_train * (k - 1);

  // Lloyd steps keep labels and group bounds from step to step.
  const bool bounded = bound_pruned(dim);
  const std::size_t n_groups = (k + kGroup - 1) / kGroup;

  // Scratch hoisted out of the iteration loop and reused throughout.
  const std::size_t n_chunks = chunk_count(n_train);
  std::vector<std::uint32_t> labels(n_train, 0);
  std::vector<double> chunk_inertia(n_chunks);
  std::vector<std::uint64_t> chunk_dists(n_chunks);
  BlockMajor tctr(pad8(k) * dim);
  std::vector<double> acc(k * dim);
  std::vector<std::uint32_t> counts(k);
  std::vector<double> chunk_acc(n_chunks * k * dim);
  std::vector<std::uint32_t> chunk_counts(n_chunks * k);
  std::vector<float> lower(bounded ? n_train * n_groups : 0);
  std::vector<float> drift(bounded ? n_groups : 0);
  std::vector<float> prev(bounded ? k * dim : 0);

  double prev_inertia = std::numeric_limits<double>::infinity();

  for (std::size_t iter = 0; iter < opts.max_iters; ++iter) {
    result.iterations = iter + 1;
    transpose_centroids(result.centroids.data(), k, dim, tctr.data());
    const BoundedStep step{tctr.data(), result.centroids.data(), drift.data(),
                           k,           dim,                     n_groups,
                           iter == 0};

    // Assignment step, chunked over the pool. Each chunk writes its own
    // slice of labels and bounds, a private inertia partial and private
    // per-cluster sums — merged afterwards in fixed chunk order for
    // run-to-run determinism.
    detail::run_indexed(w.pool, w.threaded, n_chunks, [&](std::size_t ci) {
      const std::size_t lo = ci * kReduceChunk;
      const std::size_t hi = std::min(n_train, lo + kReduceChunk);
      double inertia_part = 0.0;
      std::uint64_t computed = 0;
      double* acc_part = chunk_acc.data() + ci * k * dim;
      std::uint32_t* cnt_part = chunk_counts.data() + ci * k;
      std::fill_n(acc_part, k * dim, 0.0);
      std::fill_n(cnt_part, k, 0u);
      // Point i, its coordinates `stride` floats apart from p, joins
      // cluster c at distance d.
      auto add_point = [&](std::size_t i, const float* p, std::size_t stride,
                           std::uint32_t c, float d) {
        labels[i] = c;
        inertia_part += d;
        ++cnt_part[c];
        double* a = acc_part + static_cast<std::size_t>(c) * dim;
        for (std::size_t dd = 0; dd < dim; ++dd) a[dd] += p[dd * stride];
      };
      if (lanes) {
        std::uint32_t idx[kLanePoints] = {};
        float dist[kLanePoints] = {};
        for (std::size_t g0 = lo; g0 < hi; g0 += kLanePoints) {
          const float* group = train + g0 * dim;
          nearest_centroid_lanes(group, tctr.data(), k, dim, idx, dist);
          const std::size_t count = std::min(kLanePoints, hi - g0);
          computed += count * k;
          for (std::size_t j = 0; j < count; ++j) {
            add_point(g0 + j, group + j, kLanePoints, idx[j], dist[j]);
          }
        }
      } else {
        std::vector<float> dist(bounded ? k : 0);
        std::vector<std::uint8_t> scanned(bounded ? n_groups : 0);
        for (std::size_t i = lo; i < hi; ++i) {
          const float* p = train + i * dim;
          std::pair<std::uint32_t, float> nearest;
          if (bounded) {
            nearest = bounded_nearest(step, p, labels[i],
                                      lower.data() + i * n_groups,
                                      dist.data(), scanned.data(), computed);
          } else {
            nearest = nearest_centroid_t(p, tctr.data(), k, dim);
            computed += k;
          }
          add_point(i, p, 1, nearest.first, nearest.second);
        }
      }
      chunk_inertia[ci] = inertia_part;
      chunk_dists[ci] = computed;
    });

    double inertia = 0.0;
    for (double v : chunk_inertia) inertia += v;
    for (std::uint64_t v : chunk_dists) result.distances += v;
    result.full_scan_distances += n_train * k;

    // Merge chunk partials in chunk order, then recompute centroids.
    std::fill(acc.begin(), acc.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (std::size_t ci = 0; ci < n_chunks; ++ci) {
      const double* acc_part = chunk_acc.data() + ci * k * dim;
      const std::uint32_t* cnt_part = chunk_counts.data() + ci * k;
      for (std::size_t x = 0; x < k * dim; ++x) acc[x] += acc_part[x];
      for (std::size_t c = 0; c < k; ++c) counts[c] += cnt_part[c];
    }
    if (bounded) prev = result.centroids;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed empty cluster from a random point to keep k populated.
        copy_point(train, rng.below(n_train), dim,
                   result.centroids.data() + c * dim);
        continue;
      }
      float* ctr = result.centroids.data() + c * dim;
      for (std::size_t d = 0; d < dim; ++d) {
        ctr[d] = static_cast<float>(acc[c * dim + d] / counts[c]);
      }
    }
    if (bounded) {
      group_drift(prev.data(), result.centroids.data(), k, dim, drift.data());
    }

    result.inertia = inertia;
    if (prev_inertia < std::numeric_limits<double>::infinity()) {
      const double rel =
          std::abs(prev_inertia - inertia) / std::max(prev_inertia, 1e-12);
      if (rel < opts.tolerance) break;
    }
    prev_inertia = inertia;
  }
  result.train_seconds = now_seconds() - t_start;
  return result;
}

KMeansResult kmeans(std::span<const float> data, std::size_t n, std::size_t dim,
                    const KMeansOptions& opts) {
  KMeansResult result = kmeans_train(data, n, dim, opts);
  // Final labels/sizes for the *full* dataset (not the training subsample).
  const double t_assign = now_seconds();
  const std::size_t k = result.n_clusters;
  result.labels = label_points(data.data(), n, dim, result.centroids.data(),
                               k, workers_for(opts));
  result.sizes.assign(k, 0);
  for (auto l : result.labels) ++result.sizes[l];
  result.assign_seconds = now_seconds() - t_assign;
  return result;
}

}  // namespace upanns::quant
