// Opt1 (offline half): PIM-aware data placement — paper Algorithm 1.
// Clusters are replicated proportionally to their workload W_i = s_i * f_i
// and distributed across DPUs under a workload threshold that is relaxed
// until everything fits. Three insights are honored (paper 4.1.1):
//   1. whole clusters stay on a single DPU (no partial-result transfers),
//   2. hot clusters get ncpy = ceil(W_i / W-bar) replicas,
//   3. spatially proximate clusters co-locate: clusters are visited in a
//      nearest-centroid chain order and the placement cursor only advances
//      when a DPU fills up, so neighbors pack onto the same DPU.
#pragma once

#include <cstdint>
#include <vector>

#include "core/adaptive.hpp"
#include "ivf/cluster_stats.hpp"
#include "ivf/ivf_index.hpp"

namespace upanns::core {

struct PlacementOptions {
  std::size_t n_dpus = 896;
  /// Maximum vectors a DPU may hold (MAX_DPU_SIZE in Algorithm 1). 0 derives
  /// it from the MRAM capacity and the per-vector footprint.
  std::size_t max_dpu_vectors = 0;
};

struct Placement {
  /// cluster -> DPUs holding a replica (ncpy entries, distinct DPUs).
  std::vector<std::vector<std::uint32_t>> cluster_dpus;
  /// dpu -> clusters resident on it.
  std::vector<std::vector<std::uint32_t>> dpu_clusters;
  /// Estimated workload per DPU after placement (sum of per-replica w_i).
  std::vector<double> dpu_workload;
  /// Vectors per DPU.
  std::vector<std::size_t> dpu_vectors;
  /// Final threshold the algorithm relaxed to.
  double final_threshold = 1.0;
  std::size_t total_replicas = 0;

  std::size_t n_dpus() const { return dpu_clusters.size(); }
};

/// Paper Algorithm 1, applied to every cluster in proximity order.
Placement place_clusters(const ivf::IvfIndex& index,
                         const ivf::ClusterStats& stats,
                         const PlacementOptions& opts);

/// Baseline: each cluster on one uniformly random DPU (the "naive
/// distribution strategy that assigns clusters randomly" of Sec 5.3.1).
Placement place_random(const ivf::IvfIndex& index,
                       const ivf::ClusterStats& stats,
                       const PlacementOptions& opts, std::uint64_t seed = 1);

/// Order clusters so consecutive entries have nearby centroids (greedy
/// nearest-neighbor chain). Exposed for testing.
std::vector<std::uint32_t> proximity_order(const ivf::IvfIndex& index);

/// Per-vector MRAM footprint used to derive MAX_DPU_SIZE: id + codes with
/// headroom for the CAE token stream and chunk index.
std::size_t mram_bytes_per_vector(std::size_t pq_m);

/// One applied replica change from adjust_replicas().
struct CopyDelta {
  std::uint32_t cluster;
  std::uint32_t dpu;
  bool add;  ///< true: new replica loads onto dpu; false: replica retires
};

/// Apply Sec 4.1.2 minor-drift replica deltas to an existing placement in
/// place — the online counterpart of place_clusters that touches only the
/// adjusted clusters. New replicas go to the least-loaded DPU (by advisory
/// dpu_workload, ties to the lowest index) that does not already hold the
/// cluster and has MRAM capacity; retired replicas leave the most-loaded
/// holder, never dropping a cluster below one replica. `frequencies` is the
/// fresh traffic estimate the deltas were derived from; the touched
/// clusters' advisory workload shares are re-based on it. Deterministic:
/// identical inputs yield identical deltas. Replica targets are clamped to
/// [1, n_dpus]; a delta that finds no eligible DPU is partially applied,
/// so callers must act on the returned list, not the request.
std::vector<CopyDelta> adjust_replicas(
    Placement& placement, const ivf::IvfIndex& index,
    const std::vector<CopyAdjustment>& adjustments,
    const std::vector<std::size_t>& cluster_sizes,
    const std::vector<double>& frequencies, const PlacementOptions& opts);

}  // namespace upanns::core
