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
  // stays serial (nested-parallelism rule: a worker that blocks on further
  // work from the same pool deadlocks once every worker does). Results are
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
                                    std::uint8_t* out) const {
  common::ThreadPool::global().parallel_for(
      0, n,
      [&](std::size_t i) { encode(data.data() + i * dim_, out + i * m_); },
      128);
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
