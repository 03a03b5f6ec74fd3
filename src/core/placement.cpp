#include "core/placement.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/hw_specs.hpp"
#include "common/rng.hpp"
#include "quant/kmeans.hpp"

namespace upanns::core {

std::size_t mram_bytes_per_vector(std::size_t pq_m) {
  // id (4B) + u16 token stream upper bound (2 * (m + 1)) + chunk-index share.
  return 4 + 2 * (pq_m + 1) + 2;
}

std::vector<std::uint32_t> proximity_order(const ivf::IvfIndex& index) {
  const std::size_t nc = index.n_clusters();
  std::vector<std::uint32_t> order;
  order.reserve(nc);
  std::vector<bool> used(nc, false);

  // Greedy chain: start at cluster 0, repeatedly hop to the nearest unused
  // centroid. O(nc^2) — fine for the few thousand clusters IVF uses.
  std::uint32_t cur = 0;
  used[0] = true;
  order.push_back(0);
  for (std::size_t step = 1; step < nc; ++step) {
    const float* cv = index.centroid(cur);
    std::uint32_t best = 0;
    float best_d = std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < nc; ++c) {
      if (used[c]) continue;
      const float d = quant::l2_sq(cv, index.centroid(c), index.dim());
      if (d < best_d) {
        best_d = d;
        best = static_cast<std::uint32_t>(c);
      }
    }
    used[best] = true;
    order.push_back(best);
    cur = best;
  }
  return order;
}

namespace {

/// Threshold relaxation rate (`rate` in Algorithm 1).
constexpr double kRelaxRate = 0.02;

std::size_t derive_max_dpu_vectors(const ivf::IvfIndex& index,
                                   const PlacementOptions& opts) {
  if (opts.max_dpu_vectors > 0) return opts.max_dpu_vectors;
  // Leave room for codebooks, centroids and result buffers; budget 90% of
  // MRAM for inverted lists.
  const std::size_t budget =
      static_cast<std::size_t>(0.9 * static_cast<double>(hw::kMramBytes));
  return budget / mram_bytes_per_vector(index.pq_m());
}

}  // namespace

Placement place_clusters(const ivf::IvfIndex& index,
                         const ivf::ClusterStats& stats,
                         const PlacementOptions& opts) {
  const std::size_t ndpu = opts.n_dpus;
  if (ndpu == 0) throw std::invalid_argument("place_clusters: n_dpus == 0");
  const std::size_t nc = index.n_clusters();
  const std::size_t max_vecs = derive_max_dpu_vectors(index, opts);
  const double w_bar =
      std::max(stats.average_workload(ndpu),
               std::numeric_limits<double>::min());

  Placement out;
  out.cluster_dpus.resize(nc);
  out.dpu_clusters.resize(ndpu);
  out.dpu_workload.assign(ndpu, 0.0);
  out.dpu_vectors.assign(ndpu, 0);

  // Visit clusters in proximity order so the "cursor parks until full"
  // behavior co-locates spatial neighbors.
  const std::vector<std::uint32_t> order = proximity_order(index);

  std::size_t d_id = 0;  // persistent cursor across clusters (Algorithm 1)
  for (std::uint32_t c : order) {
    if (stats.sizes[c] == 0) continue;
    const double w_total = stats.workloads[c];

    // ncpy = ceil(s_i * f_i / W-bar), at least 1 (Line 2).
    std::size_t ncpy =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     std::ceil(w_total / w_bar)));
    ncpy = std::min(ncpy, ndpu);
    const double w_i = w_total / static_cast<double>(ncpy);  // Line 3

    double thld = 1.0;
    std::size_t count = 0;
    std::size_t remaining = ncpy;
    while (remaining > 0) {
      const bool already_here =
          std::find(out.cluster_dpus[c].begin(), out.cluster_dpus[c].end(),
                    static_cast<std::uint32_t>(d_id)) !=
          out.cluster_dpus[c].end();
      const bool fits_load = out.dpu_workload[d_id] + w_i <= w_bar * thld;
      const bool fits_mem =
          out.dpu_vectors[d_id] + stats.sizes[c] <= max_vecs;
      if (!already_here && fits_load && fits_mem) {
        out.cluster_dpus[c].push_back(static_cast<std::uint32_t>(d_id));
        out.dpu_clusters[d_id].push_back(c);
        out.dpu_workload[d_id] += w_i;
        out.dpu_vectors[d_id] += stats.sizes[c];
        ++out.total_replicas;
        --remaining;
        count = 0;
        // Replicas of the same cluster must land on distinct DPUs, so the
        // cursor advances between replicas; for the *last* replica it stays
        // so the next (spatially close) cluster co-locates here.
        if (remaining > 0) d_id = (d_id + 1) % ndpu;
      } else {
        ++count;
        d_id = (d_id + 1) % ndpu;
        if (count == ndpu) {
          // No suitable DPU under the current threshold (Lines 11-12).
          thld += kRelaxRate;
          count = 0;
          // Memory, unlike workload, cannot be relaxed: if no DPU has the
          // capacity at all, placement is impossible.
          bool any_mem = false;
          for (std::size_t d = 0; d < ndpu; ++d) {
            const bool here = std::find(out.cluster_dpus[c].begin(),
                                        out.cluster_dpus[c].end(),
                                        static_cast<std::uint32_t>(d)) !=
                              out.cluster_dpus[c].end();
            if (!here && out.dpu_vectors[d] + stats.sizes[c] <= max_vecs) {
              any_mem = true;
              break;
            }
          }
          if (!any_mem) {
            if (out.cluster_dpus[c].empty()) {
              throw std::runtime_error(
                  "place_clusters: cluster too large for any DPU");
            }
            // Accept fewer replicas than requested.
            break;
          }
        }
      }
      out.final_threshold = std::max(out.final_threshold, thld);
    }
  }
  return out;
}

std::vector<CopyDelta> adjust_replicas(
    Placement& placement, const ivf::IvfIndex& index,
    const std::vector<CopyAdjustment>& adjustments,
    const std::vector<std::size_t>& cluster_sizes,
    const std::vector<double>& frequencies, const PlacementOptions& opts) {
  const std::size_t ndpu = placement.n_dpus();
  if (ndpu == 0) throw std::invalid_argument("adjust_replicas: empty placement");
  const std::size_t max_vecs = derive_max_dpu_vectors(index, opts);

  std::vector<CopyDelta> applied;
  for (const CopyAdjustment& adj : adjustments) {
    if (adj.cluster >= placement.cluster_dpus.size()) continue;
    const std::uint32_t c = adj.cluster;
    std::vector<std::uint32_t>& holders = placement.cluster_dpus[c];
    const std::size_t old_ncpy = holders.size();
    if (old_ncpy == 0) continue;  // unplaced cluster: never adopt online

    const std::int64_t raw =
        static_cast<std::int64_t>(old_ncpy) + adj.delta;
    std::size_t target = raw < 1 ? 1 : static_cast<std::size_t>(raw);
    target = std::min(target, ndpu);
    if (target == old_ncpy) continue;

    // Strip this cluster's advisory workload shares; they are re-added at
    // the fresh per-replica value once the holder set is final. dpu_workload
    // stays advisory (Alg-2 re-balances per batch), so re-basing only the
    // touched cluster on the new frequencies is sufficient.
    const double w_total =
        static_cast<double>(cluster_sizes[c]) * frequencies[c];
    const double old_share = w_total / static_cast<double>(old_ncpy);
    for (std::uint32_t d : holders) placement.dpu_workload[d] -= old_share;

    while (holders.size() < target) {
      std::size_t best = ndpu;
      for (std::size_t d = 0; d < ndpu; ++d) {
        if (std::find(holders.begin(), holders.end(),
                      static_cast<std::uint32_t>(d)) != holders.end()) {
          continue;
        }
        if (placement.dpu_vectors[d] + cluster_sizes[c] > max_vecs) continue;
        if (best == ndpu ||
            placement.dpu_workload[d] < placement.dpu_workload[best]) {
          best = d;
        }
      }
      if (best == ndpu) break;  // no eligible DPU: accept fewer replicas
      holders.push_back(static_cast<std::uint32_t>(best));
      placement.dpu_clusters[best].push_back(c);
      placement.dpu_vectors[best] += cluster_sizes[c];
      ++placement.total_replicas;
      applied.push_back({c, static_cast<std::uint32_t>(best), true});
    }
    while (holders.size() > target) {
      std::size_t victim_at = 0;
      for (std::size_t i = 1; i < holders.size(); ++i) {
        if (placement.dpu_workload[holders[i]] >
            placement.dpu_workload[holders[victim_at]]) {
          victim_at = i;
        }
      }
      const std::uint32_t victim = holders[victim_at];
      holders.erase(holders.begin() + static_cast<std::ptrdiff_t>(victim_at));
      std::vector<std::uint32_t>& resident = placement.dpu_clusters[victim];
      resident.erase(std::find(resident.begin(), resident.end(), c));
      placement.dpu_vectors[victim] -= cluster_sizes[c];
      --placement.total_replicas;
      applied.push_back({c, victim, false});
    }

    const double share = w_total / static_cast<double>(holders.size());
    for (std::uint32_t d : holders) placement.dpu_workload[d] += share;
  }
  return applied;
}

Placement place_random(const ivf::IvfIndex& index,
                       const ivf::ClusterStats& stats,
                       const PlacementOptions& opts, std::uint64_t seed) {
  const std::size_t ndpu = opts.n_dpus;
  if (ndpu == 0) throw std::invalid_argument("place_random: n_dpus == 0");
  const std::size_t nc = index.n_clusters();
  const std::size_t max_vecs = derive_max_dpu_vectors(index, opts);
  common::Rng rng(seed);

  Placement out;
  out.cluster_dpus.resize(nc);
  out.dpu_clusters.resize(ndpu);
  out.dpu_workload.assign(ndpu, 0.0);
  out.dpu_vectors.assign(ndpu, 0);

  for (std::size_t c = 0; c < nc; ++c) {
    if (stats.sizes[c] == 0) continue;
    // Random DPU; linear-probe forward if it lacks MRAM capacity.
    std::size_t d = rng.below(ndpu);
    std::size_t tries = 0;
    while (out.dpu_vectors[d] + stats.sizes[c] > max_vecs) {
      d = (d + 1) % ndpu;
      if (++tries == ndpu) {
        throw std::runtime_error("place_random: out of MRAM capacity");
      }
    }
    out.cluster_dpus[c].push_back(static_cast<std::uint32_t>(d));
    out.dpu_clusters[d].push_back(static_cast<std::uint32_t>(c));
    out.dpu_workload[d] += stats.workloads[c];
    out.dpu_vectors[d] += stats.sizes[c];
    ++out.total_replicas;
  }
  return out;
}

}  // namespace upanns::core
