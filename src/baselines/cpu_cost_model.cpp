#include "baselines/cpu_cost_model.hpp"

#include <algorithm>
#include <cstdint>

#include "common/hw_specs.hpp"

namespace upanns::baselines {

namespace {
// Sustained integer/table-lookup throughput (ops/s). LUT additions are
// gather-dominated and do not reach FMA peak; ~4 ops/cycle/core sustained.
constexpr double kCpuScanOps =
    static_cast<double>(hw::kCpuCores) * hw::kCpuFreqHz * 4.0;

double compute_time(double flops) { return flops / hw::kCpuFlops; }
double memory_time(double bytes) { return bytes / hw::kCpuMemBandwidth; }

// Effective bandwidth when the scanned working set fits in the last-level
// cache (2 x 11 MB): small (million-scale) indexes are scanned mostly from
// cache, which is why the distance stage only dominates at large scale.
constexpr double kLlcBytes = 2.0 * 11.0 * 1024 * 1024;
constexpr double kLlcBandwidth = 400.0e9;

// Locality efficiency of the streamed scan. Higher IVF counts mean shorter
// inverted lists scattered through DRAM; each list restarts the prefetch
// ramp and TLB walk, so sustained bandwidth degrades as lists shrink. This
// is the effect behind the paper's observation that CPU QPS does *not* rise
// linearly with IVF while the DPU (no deep cache hierarchy) is insensitive
// to it (Sec 5.2). Efficiency is L / (L + kListRampBytes) for an average
// list of L bytes, so it is half at 4 MiB per list.
constexpr double kListRampBytes = 4.0 * 1024 * 1024;

double locality_efficiency(const QueryWorkProfile& p) {
  if (p.n_queries == 0 || p.nprobe == 0) return 1.0;
  const double avg_list_bytes =
      static_cast<double>(p.total_candidates) /
      (static_cast<double>(p.n_queries) * static_cast<double>(p.nprobe)) *
      static_cast<double>(p.m + 4);
  const double ramp = avg_list_bytes / (avg_list_bytes + kListRampBytes);
  // Floor: whatever fraction of the index fits the LLC is served from cache
  // regardless of list lengths — million-scale indexes scan mostly cached.
  const double index_bytes =
      static_cast<double>(p.dataset_n) * static_cast<double>(p.m + 4);
  const double cached = index_bytes > 0
                            ? std::min(1.0, kLlcBytes / index_bytes)
                            : 1.0;
  return std::max(ramp, cached);
}
}  // namespace

std::size_t CpuCostModel::scan_bytes(const QueryWorkProfile& p) {
  return p.total_candidates * (p.m + sizeof(std::uint32_t));
}

StageTimes CpuCostModel::stage_times(const QueryWorkProfile& p) {
  StageTimes t;
  const double nq = static_cast<double>(p.n_queries);

  // (a) Cluster filtering: nq x |C| centroid distances (2 flops/dim).
  {
    const double flops = nq * static_cast<double>(p.n_clusters) *
                         static_cast<double>(p.dim) * 2.0;
    const double bytes = nq == 0 ? 0
                                 : static_cast<double>(p.n_clusters) *
                                       static_cast<double>(p.dim) * 4.0;
    // Centroids are re-streamed once per batch, amortized across queries.
    t.cluster_filter = std::max(compute_time(flops), memory_time(bytes));
  }

  // (b) LUT construction: one LUT per (query, probed cluster) because
  // residuals are cluster-relative: nprobe x 256 x dim x 2 flops per query.
  {
    const double flops = nq * static_cast<double>(p.nprobe) * 256.0 *
                         static_cast<double>(p.dim) * 2.0;
    t.lut_build = compute_time(flops);
  }

  // (c) Distance calculation: stream every candidate's codes; m table
  // lookups + m adds each. Memory-bound at scale, cache-resident when small.
  {
    const double bytes = static_cast<double>(scan_bytes(p));
    const double index_bytes =
        static_cast<double>(p.dataset_n) * static_cast<double>(p.m + 4);
    const double bw = index_bytes <= kLlcBytes
                          ? kLlcBandwidth
                          : hw::kCpuMemBandwidth * locality_efficiency(p);
    const double ops =
        static_cast<double>(p.total_candidates) * static_cast<double>(p.m) * 2.0;
    t.distance_calc = std::max(bytes / bw, ops / kCpuScanOps);
  }

  // (d) Top-k: one compare per candidate plus heap updates for the rare
  // improvements; fused into the scan on CPUs, hence tiny (paper Fig 19).
  {
    const double ops = static_cast<double>(p.total_candidates) * 1.0 +
                       nq * static_cast<double>(p.k) * 32.0;
    t.topk = ops / kCpuScanOps;
  }
  return t;
}

}  // namespace upanns::baselines
