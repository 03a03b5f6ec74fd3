// The IVFPQ index (offline phase of Fig 2): a coarse k-means quantizer
// partitions the base set into |C| clusters; every point is PQ-encoded as the
// residual against its cluster centroid. The inverted lists produced here are
// the unit of placement for the PIM engine and the unit of scanning for every
// architecture baseline.
//
// Streaming mutability: the quantizers (centroids + PQ codebooks) are frozen
// at build time, but the inverted lists are updatable — insert() PQ-encodes
// new points against the frozen quantizers and appends, remove() marks a
// tombstone, compact() physically rewrites lists whose dead fraction passed a
// threshold. Each list carries a generation counter so downstream consumers
// (the PIM engine's MRAM images) can patch only what changed.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"
#include "quant/pq.hpp"

namespace upanns::obs {
class MetricsRegistry;
}

namespace upanns::ivf {

struct IvfBuildOptions {
  std::size_t n_clusters = 256;      ///< |C| (paper sweeps 4096/8192/16384)
  std::size_t pq_m = 16;             ///< PQ code bytes per vector
  std::size_t coarse_iters = 12;
  std::size_t pq_iters = 10;
  std::uint64_t seed = 2024;
  /// Training subsample caps (0 = use all points).
  std::size_t coarse_train_points = 65536;
  std::size_t pq_train_points = 65536;
  /// Build-phase worker threads: 0 = the global pool, 1 = serial, N > 1 runs
  /// training on a dedicated N-thread pool. Output is identical for every
  /// value (fixed-chunk reductions; see DESIGN.md §13).
  std::size_t n_threads = 0;
  /// When set, build() books the build.* gauges here.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Wall-clock breakdown of one build() call, mirrored into the build.*
/// metrics and the `build` trace lane.
struct BuildStats {
  double kmeans_seconds = 0.0;    ///< coarse k-means++ seeding + iterations
  double seed_seconds = 0.0;      ///< the seeding part of kmeans_seconds
  /// Coarse k-means point-centroid distances computed, as a share of what
  /// unpruned seeding and full Lloyd scans compute.
  double kmeans_distance_share = 0.0;
  double assign_seconds = 0.0;    ///< coarse full-dataset labeling
  double residual_seconds = 0.0;  ///< residual materialization
  double pq_train_seconds = 0.0;  ///< PQ codebook training (m subspaces)
  double encode_seconds = 0.0;    ///< PQ encode + inverted-list fill
  double total_seconds = 0.0;
};

/// One inverted list: original vector ids plus their PQ codes (size x m).
/// Mutation state: `tombstones` is a per-slot dead mask (empty when the list
/// has never seen a remove — the read-only fast paths branch on that once),
/// `generation` bumps on every mutation, and `compact_epoch` bumps only when
/// slots are physically rewritten (so consumers can tell "appended/nulled in
/// place" from "everything moved").
struct InvertedList {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint8_t> codes;
  std::vector<std::uint8_t> tombstones;  ///< 1 = dead; empty = none dead
  std::uint32_t n_tombstones = 0;
  std::uint32_t generation = 0;
  std::uint32_t compact_epoch = 0;

  std::size_t size() const { return ids.size(); }  ///< physical slots (scan cost)
  std::size_t live_size() const { return ids.size() - n_tombstones; }
  bool has_tombstones() const { return n_tombstones != 0; }
  bool is_dead(std::size_t i) const {
    return !tombstones.empty() && tombstones[i] != 0;
  }
  double tombstone_ratio() const {
    return ids.empty() ? 0.0
                       : static_cast<double>(n_tombstones) /
                             static_cast<double>(ids.size());
  }
  const std::uint8_t* code(std::size_t i, std::size_t m) const {
    return codes.data() + i * m;
  }
};

class IvfIndex {
 public:
  IvfIndex() = default;
  // The lazily built id directory is a cache; copies/moves drop it and
  // rebuild on the next mutation.
  IvfIndex(const IvfIndex& other);
  IvfIndex& operator=(const IvfIndex& other);
  IvfIndex(IvfIndex&&) = default;
  IvfIndex& operator=(IvfIndex&&) = default;

  /// Build from a dataset. Throws on invalid options.
  static IvfIndex build(const data::Dataset& base, const IvfBuildOptions& opts,
                        BuildStats* stats = nullptr);

  /// An empty index sharing another's frozen quantizers (centroids + PQ):
  /// the substrate for rebuild-equivalence parity checks — insert the
  /// surviving points of a mutated index here and searches must agree.
  static IvfIndex empty_like(const IvfIndex& other);

  std::size_t n_clusters() const { return n_clusters_; }
  std::size_t dim() const { return dim_; }
  /// Live point count (physical slots minus tombstones).
  std::size_t n_points() const { return n_points_; }
  std::size_t pq_m() const { return pq_.m(); }

  const quant::ProductQuantizer& pq() const { return pq_; }
  std::span<const float> centroids() const { return centroids_; }
  const float* centroid(std::size_t c) const { return centroids_.data() + c * dim_; }
  const InvertedList& list(std::size_t c) const { return lists_[c]; }
  const std::vector<InvertedList>& lists() const { return lists_; }

  /// Physical slot counts per list (tombstoned slots still cost a scan
  /// until compacted, so placement/scheduling weigh them).
  std::vector<std::size_t> list_sizes() const;

  /// Stage (a) of the online pipeline: rank clusters by centroid distance and
  /// return the nprobe closest ids (ascending by distance).
  std::vector<std::uint32_t> filter_clusters(const float* query,
                                             std::size_t nprobe) const;

  /// Residual of `vec` against centroid c into `out` (dim floats).
  void residual(const float* vec, std::size_t c, float* out) const;

  // ----- Streaming mutation (quantizers stay frozen) -----

  /// Nearest centroid of `vec` — the coarse assignment insert() uses.
  std::size_t assign_cluster(const float* vec) const;

  /// Insert `n` vectors (row-major, n x dim) under the given ids: each is
  /// assigned to its nearest centroid, PQ-encoded as a residual against the
  /// frozen quantizers and appended to that cluster's list. Throws
  /// std::invalid_argument on a duplicate live id or size mismatch.
  void insert(std::span<const std::uint32_t> ids, std::span<const float> vectors);

  /// Tombstone one id. Returns false when the id is absent (or already
  /// dead). The slot keeps costing a scan until compact().
  bool remove(std::uint32_t id);

  bool contains(std::uint32_t id) const;

  /// Physically rewrite every list whose tombstone ratio exceeds
  /// `min_tombstone_ratio` (default 0: any tombstoned list). Returns the
  /// number of lists compacted. Rewritten lists bump both generation and
  /// compact_epoch.
  std::size_t compact(double min_tombstone_ratio = 0.0);

  /// Bumps on every insert/remove/compact — a cheap dirtiness check for
  /// consumers that mirror list state (the engine's MRAM images).
  std::uint64_t mutation_epoch() const { return mutation_epoch_; }

  /// Persist / restore the full index (centroids, PQ codebooks, inverted
  /// lists). Building a billion-scale index is expensive; production
  /// deployments train once and reload. Throws std::runtime_error on IO or
  /// format errors. save() writes format v2 (carries tombstones and
  /// generations); load() also reads the pre-mutability v1 layout.
  void save(const std::string& path) const;
  static IvfIndex load(const std::string& path);

 private:
  struct SlotRef {
    std::uint32_t cluster;
    std::uint32_t pos;
  };

  /// Lazily build (and incrementally maintain) the id -> slot directory.
  /// Read-only indexes never pay for it.
  void ensure_directory();
  void index_list_into_directory(std::uint32_t c);

  std::size_t dim_ = 0;
  std::size_t n_clusters_ = 0;
  std::size_t n_points_ = 0;  ///< live points
  std::vector<float> centroids_;  // n_clusters x dim
  quant::ProductQuantizer pq_;
  std::vector<InvertedList> lists_;

  std::uint64_t mutation_epoch_ = 0;
  std::unique_ptr<std::unordered_map<std::uint32_t, SlotRef>> directory_;
};

}  // namespace upanns::ivf
