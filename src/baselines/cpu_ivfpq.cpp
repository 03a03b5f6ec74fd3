#include "baselines/cpu_ivfpq.hpp"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.hpp"
#include "ivf/cluster_stats.hpp"

namespace upanns::baselines {

CpuSearchResult CpuIvfpqSearcher::search(const data::Dataset& queries,
                                         const SearchParams& params) const {
  const auto probes = ivf::filter_batch(index_, queries, params.nprobe);
  return search_with_probes(queries, probes, params);
}

CpuSearchResult CpuIvfpqSearcher::search_with_probes(
    const data::Dataset& queries,
    const std::vector<std::vector<std::uint32_t>>& probes,
    const SearchParams& params) const {
  CpuSearchResult out;
  out.neighbors.resize(queries.n);

  const std::size_t dim = index_.dim();
  const std::size_t m = index_.pq_m();
  std::atomic<std::size_t> total_candidates{0};
  std::atomic<std::size_t> max_cluster{0};

  common::ThreadPool::global().parallel_for(
      0, queries.n,
      [&](std::size_t q) {
        const float* qv = queries.row(q);
        common::TopK top(params.k);
        std::vector<float> residual(dim);
        std::vector<float> lut(m * quant::kPqKsub);
        std::size_t scanned = 0;
        std::size_t local_max = 0;
        for (std::uint32_t c : probes[q]) {
          const ivf::InvertedList& list = index_.list(c);
          if (list.size() == 0) continue;
          index_.residual(qv, c, residual.data());
          index_.pq().compute_lut(residual.data(), lut.data());
          if (!list.has_tombstones()) {
            for (std::size_t i = 0; i < list.size(); ++i) {
              const float d =
                  index_.pq().adc_distance(lut.data(), list.code(i, m));
              top.push(d, list.ids[i]);
            }
            scanned += list.size();
          } else {
            // Mutated list: dead slots are skipped before the ADC scan, so
            // candidates match a compacted rebuild exactly.
            std::size_t live = 0;
            for (std::size_t i = 0; i < list.size(); ++i) {
              if (list.is_dead(i)) continue;
              const float d =
                  index_.pq().adc_distance(lut.data(), list.code(i, m));
              top.push(d, list.ids[i]);
              ++live;
            }
            scanned += live;
          }
          local_max = std::max(local_max, list.size());
        }
        out.neighbors[q] = top.sorted();
        total_candidates.fetch_add(scanned, std::memory_order_relaxed);
        std::size_t prev = max_cluster.load(std::memory_order_relaxed);
        while (local_max > prev &&
               !max_cluster.compare_exchange_weak(prev, local_max)) {
        }
      },
      1);

  out.profile.n_queries = queries.n;
  out.profile.n_clusters = index_.n_clusters();
  out.profile.nprobe = queries.n > 0 ? probes[0].size() : params.nprobe;
  out.profile.dim = dim;
  out.profile.m = m;
  out.profile.k = params.k;
  out.profile.total_candidates = total_candidates.load();
  out.profile.dataset_n = index_.n_points();
  out.profile.max_cluster = max_cluster.load();
  out.times = CpuCostModel::stage_times(out.profile);
  return out;
}

}  // namespace upanns::baselines
