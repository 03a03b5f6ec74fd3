#include "quant/pq.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/fastround.hpp"
#include "common/thread_pool.hpp"

namespace upanns::quant {

void ProductQuantizer::train(std::span<const float> data, std::size_t n,
                             std::size_t dim, const PqOptions& opts) {
  if (opts.m == 0 || dim % opts.m != 0) {
    throw std::invalid_argument("ProductQuantizer: dim must be divisible by m");
  }
  dim_ = dim;
  m_ = opts.m;
  dsub_ = dim / opts.m;
  codebooks_.assign(m_ * kPqKsub * dsub_, 0.f);

  common::ThreadPool* pool =
      opts.pool ? opts.pool : &common::ThreadPool::global();

  // Train each subspace independently on its column slice of the row-major
  // data: kmeans_train reads it at row pitch dim and gathers only the rows
  // it trains on. The m trainings fan out across the pool; the inner kmeans
  // stays serial, since the outer fan-out already fills the pool (nesting
  // would be safe: every caller works its own parallel_for). Results are
  // identical to the serial loop — each subspace sees the same slice, seed,
  // and fixed-chunk reductions.
  const bool outer_threads = opts.use_threads && pool->size() > 1;
  auto train_subspace = [&](std::size_t s) {
    KMeansOptions ko;
    ko.n_clusters = kPqKsub;
    ko.max_iters = opts.train_iters;
    ko.seed = opts.seed + s;
    ko.max_training_points = opts.max_training_points;
    ko.use_threads = false;
    const std::span<const float> sub =
        data.subspan(s * dsub_, (n - 1) * dim_ + dsub_);
    KMeansResult res = kmeans_train(sub, n, dsub_, ko, dim_);
    // If n < 256 the trained centroid count is smaller; tile the trained
    // centroids so every code in [0,255] decodes to something sensible.
    for (std::size_t c = 0; c < kPqKsub; ++c) {
      const std::size_t src = c % res.n_clusters;
      std::copy_n(res.centroids.data() + src * dsub_, dsub_,
                  codebooks_.begin() + (s * kPqKsub + c) * dsub_);
    }
  };
  detail::run_indexed(pool, outer_threads, m_, train_subspace);
  rebuild_transposed();
}

void ProductQuantizer::rebuild_transposed() {
  tcodebooks_.resize(codebooks_.size());
  for (std::size_t s = 0; s < m_; ++s) {
    const std::size_t off = s * kPqKsub * dsub_;
    transpose_centroids(codebooks_.data() + off, kPqKsub, dsub_,
                        tcodebooks_.data() + off);
  }
}

void ProductQuantizer::encode(const float* vec, std::uint8_t* codes) const {
  assert(trained());
  for (std::size_t s = 0; s < m_; ++s) {
    const float* tcb = tcodebooks_.data() + s * dsub_ * kPqKsub;
    codes[s] = static_cast<std::uint8_t>(
        nearest_centroid_t(vec + s * dsub_, tcb, kPqKsub, dsub_).first);
  }
}

void ProductQuantizer::encode_batch(std::span<const float> data, std::size_t n,
                                    std::uint8_t* out,
                                    common::ThreadPool* pool) const {
  assert(trained());
  // Rows are encoded a tile at a time, subspace by subspace, so one 8 KB
  // codebook and the tile's rows stay cached. With dsub <= kMaxLaneDim each
  // subspace takes 16 rows per point-lane group; a short last group
  // repeats stale lanes, whose codes are dropped.
  constexpr std::size_t kTile = 256;
  auto encode_rows = [&](std::size_t lo, std::size_t hi) {
    if (dsub_ > kMaxLaneDim) {
      for (std::size_t i = lo; i < hi; ++i) {
        encode(data.data() + i * dim_, out + i * m_);
      }
      return;
    }
    alignas(64) float group[kLanePoints * kMaxLaneDim] = {};
    std::uint32_t idx[kLanePoints] = {};
    float dist[kLanePoints] = {};
    for (std::size_t t0 = lo; t0 < hi; t0 += kTile) {
      const std::size_t t1 = std::min(hi, t0 + kTile);
      for (std::size_t s = 0; s < m_; ++s) {
        const float* tcb = tcodebooks_.data() + s * dsub_ * kPqKsub;
        for (std::size_t g0 = t0; g0 < t1; g0 += kLanePoints) {
          const std::size_t count = std::min(kLanePoints, t1 - g0);
          for (std::size_t j = 0; j < count; ++j) {
            const float* src = data.data() + (g0 + j) * dim_ + s * dsub_;
            for (std::size_t d = 0; d < dsub_; ++d) {
              group[d * kLanePoints + j] = src[d];
            }
          }
          nearest_centroid_lanes(group, tcb, kPqKsub, dsub_, idx, dist);
          for (std::size_t j = 0; j < count; ++j) {
            out[(g0 + j) * m_ + s] = static_cast<std::uint8_t>(idx[j]);
          }
        }
      }
    }
  };
  if (pool == nullptr) {
    encode_rows(0, n);
  } else {
    pool->parallel_for_chunks(0, n, encode_rows, kTile);
  }
}

void ProductQuantizer::decode(const std::uint8_t* codes, float* out) const {
  assert(trained());
  for (std::size_t s = 0; s < m_; ++s) {
    const float* cb =
        codebooks_.data() + (s * kPqKsub + codes[s]) * dsub_;
    std::copy_n(cb, dsub_, out + s * dsub_);
  }
}

void ProductQuantizer::compute_lut(const float* query, float* lut) const {
  assert(trained());
  for (std::size_t s = 0; s < m_; ++s) {
    const float* tcb = tcodebooks_.data() + s * dsub_ * kPqKsub;
    squared_dists_t(query + s * dsub_, tcb, kPqKsub, dsub_, lut + s * kPqKsub);
  }
}

QuantizedLut ProductQuantizer::quantize_lut(std::span<const float> lut) const {
  assert(lut.size() == m_ * kPqKsub);
  QuantizedLut q;
  q.m = m_;
  q.table.resize(lut.size());
  float max_entry = 0.f;
  for (float v : lut) max_entry = std::max(max_entry, v);
  // Entries must fit uint16 and an m-entry sum must fit uint32 comfortably.
  q.scale = max_entry > 0.f ? max_entry / 65000.f
                            : 1.f;  // degenerate all-zero LUT
  const float inv = 1.f / q.scale;
  for (std::size_t i = 0; i < lut.size(); ++i) {
    const float scaled = lut[i] * inv;
    q.table[i] = static_cast<std::uint16_t>(
        common::round_nonneg(std::min(65535.f, scaled)));
  }
  return q;
}

float ProductQuantizer::adc_distance(const float* lut,
                                     const std::uint8_t* codes) const {
  float acc = 0.f;
  for (std::size_t s = 0; s < m_; ++s) {
    acc += lut[s * kPqKsub + codes[s]];
  }
  return acc;
}

std::uint32_t ProductQuantizer::adc_distance_q(const QuantizedLut& lut,
                                               const std::uint8_t* codes) const {
  std::uint32_t acc = 0;
  for (std::size_t s = 0; s < m_; ++s) {
    acc += lut.table[s * kPqKsub + codes[s]];
  }
  return acc;
}

}  // namespace upanns::quant
