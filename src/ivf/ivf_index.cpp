#include "ivf/ivf_index.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "common/topk.hpp"
#include "obs/metrics.hpp"
#include "quant/kmeans.hpp"

namespace upanns::ivf {

IvfIndex::IvfIndex(const IvfIndex& other)
    : dim_(other.dim_),
      n_clusters_(other.n_clusters_),
      n_points_(other.n_points_),
      centroids_(other.centroids_),
      tcentroids_(other.tcentroids_),
      pq_(other.pq_),
      lists_(other.lists_),
      mutation_epoch_(other.mutation_epoch_) {}

IvfIndex& IvfIndex::operator=(const IvfIndex& other) {
  if (this == &other) return *this;
  dim_ = other.dim_;
  n_clusters_ = other.n_clusters_;
  n_points_ = other.n_points_;
  centroids_ = other.centroids_;
  tcentroids_ = other.tcentroids_;
  pq_ = other.pq_;
  lists_ = other.lists_;
  mutation_epoch_ = other.mutation_epoch_;
  directory_.reset();
  return *this;
}

IvfIndex IvfIndex::build(const data::Dataset& base, const IvfBuildOptions& opts,
                         BuildStats* stats) {
  if (base.empty()) throw std::invalid_argument("IvfIndex: empty dataset");
  if (opts.pq_m == 0 || base.dim % opts.pq_m != 0) {
    throw std::invalid_argument("IvfIndex: dim must be divisible by pq_m");
  }
  IvfIndex idx;
  idx.dim_ = base.dim;
  idx.n_points_ = base.n;

  const auto t_start = std::chrono::steady_clock::now();
  auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // --build-threads N > 1 pins every stage to a dedicated pool; 0/1 use the
  // global pool / run serial. Identical output either way.
  std::unique_ptr<common::ThreadPool> own_pool;
  common::ThreadPool* pool = &common::ThreadPool::global();
  if (opts.n_threads > 1 && opts.n_threads != pool->size()) {
    own_pool = std::make_unique<common::ThreadPool>(opts.n_threads);
    pool = own_pool.get();
  }
  // The residual pass and the encoding take no use_threads flag: no pool
  // means serial.
  common::ThreadPool* stage_pool = opts.n_threads == 1 ? nullptr : pool;

  // 1. Coarse quantizer.
  quant::KMeansOptions ko;
  ko.n_clusters = opts.n_clusters;
  ko.max_iters = opts.coarse_iters;
  ko.seed = opts.seed;
  ko.max_training_points = opts.coarse_train_points;
  ko.use_threads = opts.n_threads != 1;
  ko.pool = pool;
  quant::KMeansResult coarse = quant::kmeans(base.span(), base.n, base.dim, ko);
  idx.n_clusters_ = coarse.n_clusters;
  idx.centroids_ = std::move(coarse.centroids);
  idx.mirror_centroids();

  BuildStats bs;
  bs.kmeans_seconds = coarse.train_seconds;
  bs.seed_seconds = coarse.seed_seconds;
  bs.kmeans_distance_share =
      coarse.full_scan_distances == 0
          ? 0.0
          : static_cast<double>(coarse.distances) /
                static_cast<double>(coarse.full_scan_distances);
  bs.assign_seconds = coarse.assign_seconds;

  // 2. Residuals for PQ training (subsampled implicitly by PQ options).
  const auto t_residual = std::chrono::steady_clock::now();
  std::vector<float> residuals(base.n * base.dim);
  auto residual_rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      idx.residual(base.row(i), coarse.labels[i],
                   residuals.data() + i * base.dim);
    }
  };
  if (stage_pool == nullptr) {
    residual_rows(0, base.n);
  } else {
    stage_pool->parallel_for_chunks(0, base.n, residual_rows, 512);
  }
  bs.residual_seconds = seconds_since(t_residual);

  const auto t_pq = std::chrono::steady_clock::now();
  quant::PqOptions po;
  po.m = opts.pq_m;
  po.train_iters = opts.pq_iters;
  po.seed = opts.seed + 1;
  po.max_training_points = opts.pq_train_points;
  po.use_threads = opts.n_threads != 1;
  po.pool = pool;
  idx.pq_.train(residuals, base.n, base.dim, po);
  bs.pq_train_seconds = seconds_since(t_pq);

  // 3. Encode everything and fill inverted lists.
  const auto t_encode = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> codes(base.n * opts.pq_m);
  idx.pq_.encode_batch(residuals, base.n, codes.data(), stage_pool);

  idx.lists_.resize(idx.n_clusters_);
  for (std::size_t c = 0; c < idx.n_clusters_; ++c) {
    idx.lists_[c].ids.reserve(coarse.sizes[c]);
    idx.lists_[c].codes.reserve(coarse.sizes[c] * opts.pq_m);
  }
  for (std::size_t i = 0; i < base.n; ++i) {
    InvertedList& list = idx.lists_[coarse.labels[i]];
    list.ids.push_back(static_cast<std::uint32_t>(i));
    const std::uint8_t* code = codes.data() + i * opts.pq_m;
    list.codes.insert(list.codes.end(), code, code + opts.pq_m);
  }
  bs.encode_seconds = seconds_since(t_encode);
  bs.total_seconds = seconds_since(t_start);

  if (opts.metrics) {
    obs::MetricsRegistry& reg = *opts.metrics;
    reg.gauge("build.kmeans_seconds").set(bs.kmeans_seconds);
    reg.gauge("build.kmeans_seed_seconds").set(bs.seed_seconds);
    reg.gauge("build.kmeans_distance_share").set(bs.kmeans_distance_share);
    reg.gauge("build.assign_seconds").set(bs.assign_seconds);
    reg.gauge("build.residual_seconds").set(bs.residual_seconds);
    reg.gauge("build.pq_train_seconds").set(bs.pq_train_seconds);
    reg.gauge("build.encode_seconds").set(bs.encode_seconds);
    reg.gauge("build.total_seconds").set(bs.total_seconds);
  }
  if (stats) *stats = bs;
  return idx;
}

IvfIndex IvfIndex::empty_like(const IvfIndex& other) {
  IvfIndex idx;
  idx.dim_ = other.dim_;
  idx.n_clusters_ = other.n_clusters_;
  idx.n_points_ = 0;
  idx.centroids_ = other.centroids_;
  idx.tcentroids_ = other.tcentroids_;
  idx.pq_ = other.pq_;
  idx.lists_.resize(idx.n_clusters_);
  return idx;
}

void IvfIndex::mirror_centroids() {
  tcentroids_.resize(quant::pad8(n_clusters_) * dim_);
  quant::transpose_centroids(centroids_.data(), n_clusters_, dim_,
                             tcentroids_.data());
}

std::vector<std::size_t> IvfIndex::list_sizes() const {
  std::vector<std::size_t> sizes(lists_.size());
  for (std::size_t c = 0; c < lists_.size(); ++c) sizes[c] = lists_[c].size();
  return sizes;
}

std::vector<std::uint32_t> IvfIndex::filter_clusters(const float* query,
                                                     std::size_t nprobe) const {
  nprobe = std::min(nprobe, n_clusters_);
  common::TopK top(nprobe);
  // Score a slab of whole 8-centroid blocks at a time and push in centroid
  // order, exactly as a row-major l2_sq loop would.
  constexpr std::size_t kSlab = 256;
  float dist[kSlab];
  for (std::size_t c0 = 0; c0 < n_clusters_; c0 += kSlab) {
    const std::size_t n = std::min(kSlab, n_clusters_ - c0);
    quant::squared_dists_t(query, tcentroids_.data() + c0 * dim_, n, dim_,
                           dist);
    for (std::size_t j = 0; j < n; ++j) {
      top.push(dist[j], static_cast<std::uint32_t>(c0 + j));
    }
  }
  std::vector<std::uint32_t> ids;
  ids.reserve(top.size());
  for (const std::uint64_t key : top.keys()) {
    ids.push_back(common::TopK::unpack(key).id);
  }
  return ids;
}

void IvfIndex::residual(const float* vec, std::size_t c, float* out) const {
  const float* ctr = centroid(c);
  for (std::size_t d = 0; d < dim_; ++d) out[d] = vec[d] - ctr[d];
}

std::size_t IvfIndex::assign_cluster(const float* vec) const {
  std::size_t best = 0;
  float best_d = quant::l2_sq(vec, centroid(0), dim_);
  for (std::size_t c = 1; c < n_clusters_; ++c) {
    const float d = quant::l2_sq(vec, centroid(c), dim_);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

void IvfIndex::index_list_into_directory(std::uint32_t c) {
  const InvertedList& list = lists_[c];
  for (std::size_t i = 0; i < list.ids.size(); ++i) {
    if (list.is_dead(i)) continue;
    (*directory_)[list.ids[i]] = {c, static_cast<std::uint32_t>(i)};
  }
}

void IvfIndex::ensure_directory() {
  if (directory_) return;
  directory_ = std::make_unique<std::unordered_map<std::uint32_t, SlotRef>>();
  directory_->reserve(n_points_);
  for (std::uint32_t c = 0; c < n_clusters_; ++c) index_list_into_directory(c);
}

void IvfIndex::insert(std::span<const std::uint32_t> ids,
                      std::span<const float> vectors) {
  if (!pq_.trained()) throw std::logic_error("IvfIndex::insert: not built");
  if (vectors.size() != ids.size() * dim_) {
    throw std::invalid_argument("IvfIndex::insert: ids/vectors size mismatch");
  }
  ensure_directory();
  const std::size_t m = pq_.m();
  std::vector<float> res(dim_);
  std::vector<std::uint8_t> code(m);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (directory_->count(ids[i]) > 0) {
      throw std::invalid_argument("IvfIndex::insert: duplicate id " +
                                  std::to_string(ids[i]));
    }
    const float* vec = vectors.data() + i * dim_;
    const std::size_t c = assign_cluster(vec);
    residual(vec, c, res.data());
    pq_.encode(res.data(), code.data());

    InvertedList& list = lists_[c];
    list.ids.push_back(ids[i]);
    list.codes.insert(list.codes.end(), code.begin(), code.end());
    if (!list.tombstones.empty()) list.tombstones.push_back(0);
    ++list.generation;
    (*directory_)[ids[i]] = {static_cast<std::uint32_t>(c),
                             static_cast<std::uint32_t>(list.ids.size() - 1)};
    ++n_points_;
  }
  if (!ids.empty()) ++mutation_epoch_;
}

bool IvfIndex::contains(std::uint32_t id) const {
  if (directory_) return directory_->count(id) > 0;
  for (const InvertedList& list : lists_) {
    for (std::size_t i = 0; i < list.ids.size(); ++i) {
      if (list.ids[i] == id && !list.is_dead(i)) return true;
    }
  }
  return false;
}

bool IvfIndex::remove(std::uint32_t id) {
  ensure_directory();
  const auto it = directory_->find(id);
  if (it == directory_->end()) return false;
  InvertedList& list = lists_[it->second.cluster];
  if (list.tombstones.empty()) list.tombstones.assign(list.ids.size(), 0);
  assert(!list.is_dead(it->second.pos));
  list.tombstones[it->second.pos] = 1;
  ++list.n_tombstones;
  ++list.generation;
  directory_->erase(it);
  --n_points_;
  ++mutation_epoch_;
  return true;
}

std::size_t IvfIndex::compact(double min_tombstone_ratio) {
  std::size_t compacted = 0;
  const std::size_t m = pq_.m();
  for (std::uint32_t c = 0; c < n_clusters_; ++c) {
    InvertedList& list = lists_[c];
    if (list.n_tombstones == 0 ||
        list.tombstone_ratio() < min_tombstone_ratio) {
      continue;
    }
    std::size_t w = 0;
    for (std::size_t i = 0; i < list.ids.size(); ++i) {
      if (list.is_dead(i)) continue;
      if (w != i) {
        list.ids[w] = list.ids[i];
        std::copy_n(list.codes.data() + i * m, m, list.codes.data() + w * m);
      }
      ++w;
    }
    list.ids.resize(w);
    list.codes.resize(w * m);
    list.tombstones.clear();
    list.n_tombstones = 0;
    ++list.generation;
    ++list.compact_epoch;
    ++compacted;
    // Surviving slots moved; refresh their directory positions.
    if (directory_) index_list_into_directory(c);
  }
  if (compacted > 0) ++mutation_epoch_;
  return compacted;
}

}  // namespace upanns::ivf
