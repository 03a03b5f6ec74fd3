#include "core/multihost.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>

#include "baselines/cpu_cost_model.hpp"
#include "common/hw_specs.hpp"
#include "obs/metrics.hpp"

namespace upanns::core {

MultiHostUpAnns::MultiHostUpAnns(const ivf::IvfIndex& index,
                                 const ivf::ClusterStats& stats,
                                 MultiHostOptions options)
    : index_(index), options_(std::move(options)) {
  init(stats);
}

MultiHostUpAnns::MultiHostUpAnns(ivf::IvfIndex& index,
                                 const ivf::ClusterStats& stats,
                                 MultiHostOptions options)
    : index_(index), mutable_index_(&index), options_(std::move(options)) {
  init(stats);
}

void MultiHostUpAnns::init(const ivf::ClusterStats& stats) {
  if (options_.n_hosts == 0) {
    throw std::invalid_argument("MultiHostUpAnns: n_hosts == 0");
  }
  const std::size_t nc = index_.n_clusters();
  owner_.assign(nc, 0);

  // Largest-workload-first onto the least-loaded host: whole clusters only,
  // mirroring Opt1's DPU-level rule one level up.
  std::vector<std::uint32_t> order(nc);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return stats.workloads[a] > stats.workloads[b];
  });
  std::vector<double> host_load(options_.n_hosts, 0.0);
  std::vector<std::size_t> host_clusters(options_.n_hosts, 0);
  for (std::uint32_t c : order) {
    const std::size_t h = static_cast<std::size_t>(
        std::min_element(host_load.begin(), host_load.end()) -
        host_load.begin());
    owner_[c] = static_cast<std::uint32_t>(h);
    host_load[h] += stats.workloads[c];
    ++host_clusters[h];
  }

  // Per-host stats: foreign clusters appear empty, so placement skips them
  // and the scheduler never routes their probes to this host. Hosts that own
  // no clusters at all (n_hosts > n_clusters) get no engine: they would
  // scan nothing, so they contribute empty lists and zero simulated time.
  engines_.resize(options_.n_hosts);
  for (std::size_t h = 0; h < options_.n_hosts; ++h) {
    if (host_clusters[h] == 0) continue;
    ivf::ClusterStats shard = stats;
    for (std::size_t c = 0; c < nc; ++c) {
      if (owner_[c] != h) {
        shard.sizes[c] = 0;
        shard.workloads[c] = 0;
      }
    }
    // Engines over a mutable index are themselves updatable, so each host
    // can incrementally patch the clusters resident in its own shard.
    engines_[h] =
        mutable_index_ != nullptr
            ? std::make_unique<UpAnnsEngine>(*mutable_index_, shard,
                                             options_.per_host)
            : std::make_unique<UpAnnsEngine>(index_, shard,
                                             options_.per_host);
    ++n_active_;
  }
}

namespace {

UpAnnsEngine& first_active_engine(
    std::vector<std::unique_ptr<UpAnnsEngine>>& engines, bool updatable) {
  if (!updatable) {
    throw std::logic_error("MultiHostUpAnns: cluster is read-only");
  }
  for (auto& engine : engines) {
    if (engine) return *engine;
  }
  throw std::logic_error("MultiHostUpAnns: no active hosts");
}

}  // namespace

void MultiHostUpAnns::upsert(std::span<const std::uint32_t> ids,
                             std::span<const float> vectors) {
  // One engine mutates the shared index; every host's engine observes the
  // epoch drift and patches its own resident clusters on the next patch.
  first_active_engine(engines_, updatable()).upsert(ids, vectors);
}

std::size_t MultiHostUpAnns::remove(std::span<const std::uint32_t> ids) {
  return first_active_engine(engines_, updatable()).remove(ids);
}

std::size_t MultiHostUpAnns::compact(double min_tombstone_ratio) {
  return first_active_engine(engines_, updatable())
      .compact(min_tombstone_ratio);
}

bool MultiHostUpAnns::needs_patch() const {
  for (const auto& engine : engines_) {
    if (engine && engine->needs_patch()) return true;
  }
  return false;
}

UpAnnsEngine::PatchStats MultiHostUpAnns::patch_hosts() {
  if (!updatable()) {
    throw std::logic_error("MultiHostUpAnns::patch_hosts: cluster is read-only");
  }
  // Hosts patch their own MRAM buses concurrently: wall time is the slowest
  // host's patch, volume counters sum across the fleet.
  UpAnnsEngine::PatchStats total;
  for (auto& engine : engines_) {
    if (!engine) continue;
    const UpAnnsEngine::PatchStats ps = engine->patch_dpus();
    total.seconds = std::max(total.seconds, ps.seconds);
    total.bytes_written += ps.bytes_written;
    total.lists_patched += ps.lists_patched;
    total.regions_moved += ps.regions_moved;
  }
  return total;
}

std::uint32_t MultiHostUpAnns::host_of(std::size_t cluster) const {
  if (cluster >= owner_.size()) {
    throw std::out_of_range("MultiHostUpAnns::host_of: cluster " +
                            std::to_string(cluster) + " >= n_clusters " +
                            std::to_string(owner_.size()));
  }
  return owner_[cluster];
}

UpAnnsEngine& MultiHostUpAnns::host_engine(std::size_t h) {
  if (h >= engines_.size() || engines_[h] == nullptr) {
    throw std::logic_error("MultiHostUpAnns::host_engine: host " +
                           std::to_string(h) + " owns no clusters");
  }
  return *engines_[h];
}

namespace {

/// The coordinator's one cluster-filtering pass, charged on the same CPU
/// roofline ClusterFilterStage uses — every per-host engine report books an
/// identical value, which the aggregation below subtracts so the pass is
/// accounted exactly once.
double coord_filter_seconds_of(const ivf::IvfIndex& index, std::size_t nq,
                               std::size_t k) {
  baselines::QueryWorkProfile p;
  p.n_queries = nq;
  p.n_clusters = index.n_clusters();
  p.dim = index.dim();
  p.m = index.pq_m();
  p.k = k;
  return baselines::CpuCostModel::stage_times(p).cluster_filter;
}

}  // namespace

MultiHostReport MultiHostUpAnns::search(const data::Dataset& queries) {
  const auto probes =
      ivf::filter_batch(index_, queries, options_.per_host.nprobe);
  return search_with_probes(queries, probes);
}

MultiHostReport MultiHostUpAnns::search_with_probes(
    const data::Dataset& queries,
    const std::vector<std::vector<std::uint32_t>>& probes) {
  MultiHostReport report;
  const std::size_t nq = queries.n;
  const std::size_t k = options_.per_host.k;

  // One cluster-filtering pass on the coordinator, shared with every host.
  report.coord_filter_seconds =
      coord_filter_seconds_of(index_, nq, options_.per_host.k);

  // Broadcast the batch: the coordinator NIC sends every query vector to
  // each active host, so the wire time scales with the fan-out (hosts that
  // own no clusters are skipped — there is nothing for them to scan).
  const double per_host_query_bytes =
      static_cast<double>(nq) * static_cast<double>(queries.dim) * 4.0;
  const double bcast_bytes =
      static_cast<double>(n_active_) * per_host_query_bytes;
  report.broadcast_seconds =
      options_.network_latency + bcast_bytes / options_.network_bandwidth;

  // Every active host returns k results per query.
  const double per_host_result_bytes =
      static_cast<double>(nq) * static_cast<double>(k) * 8.0;
  const double gather_bytes =
      static_cast<double>(n_active_) * per_host_result_bytes;
  report.gather_seconds =
      options_.network_latency + gather_bytes / options_.network_bandwidth;
  report.network_seconds = report.broadcast_seconds + report.gather_seconds;

  std::vector<std::vector<std::vector<common::Neighbor>>> per_host_results;
  per_host_results.reserve(engines_.size());
  report.host_times.reserve(engines_.size());
  report.host_slots.reserve(engines_.size());
  for (auto& engine : engines_) {
    MultiHostHostSlot slot;
    if (engine == nullptr) {
      slot.active = false;
      report.host_times.emplace_back();
      report.host_slots.push_back(slot);
      per_host_results.emplace_back();
      continue;
    }
    auto r = engine->search_with_probes(queries, probes);
    // The engine's report books its own copy of the shared coordinator
    // filter as the first trace entry; strip it from the per-host share so
    // the pass is charged once (coord_filter_seconds above), then split the
    // remainder at the host/device boundary exactly like BatchStream. The
    // engine applies its own pending MRAM patch first.
    double filter_seconds = 0;
    for (const StageStep& step : r.trace) {
      if (step.side != StageSide::kHost) break;
      if (std::string_view(step.name) == "cluster-filter") {
        filter_seconds += step.seconds;
      }
    }
    const double prefix = leading_host_seconds(r);
    slot.host_seconds = prefix - filter_seconds;
    slot.device_seconds = r.times.total() - prefix;
    slot.network_seconds = (per_host_query_bytes + per_host_result_bytes) /
                           options_.network_bandwidth;
    report.slowest_host_seconds =
        std::max(report.slowest_host_seconds,
                 slot.host_seconds + slot.device_seconds);
    report.host_times.push_back(r.times);
    report.host_slots.push_back(slot);
    per_host_results.push_back(std::move(r.neighbors));
  }

  // Coordinator-side k-way merge across host lists, charged like the
  // engine-local MergeStage (~lists * k heap ops per query).
  double merge_ops = 0;
  report.neighbors.resize(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    std::vector<std::vector<common::Neighbor>> lists;
    lists.reserve(n_active_);
    for (auto& host : per_host_results) {
      if (host.empty()) continue;  // inactive host: nothing to merge
      lists.push_back(std::move(host[q]));
    }
    merge_ops += static_cast<double>(lists.size()) *
                 static_cast<double>(k) * 8.0;
    report.neighbors[q] = common::merge_sorted_topk(lists, k);
  }
  report.coord_merge_seconds = merge_ops / hw::kCpuFlops;

  // Summed in pre / device / post order — the same association the pipeline
  // timeline uses — so a one-batch overlapped run reproduces this value
  // bit-for-bit.
  const double pre = report.coord_filter_seconds + report.broadcast_seconds;
  const double post = report.gather_seconds + report.coord_merge_seconds;
  report.seconds = pre + report.slowest_host_seconds + post;
  report.qps = report.seconds > 0
                   ? static_cast<double>(nq) / report.seconds
                   : 0;

  obs::MetricsSink sink(metrics_);
  if (sink.enabled()) {
    sink.count("multihost.batches");
    sink.count("multihost.broadcast_bytes",
               static_cast<std::uint64_t>(bcast_bytes));
    sink.count("multihost.gather_bytes",
               static_cast<std::uint64_t>(gather_bytes));
    sink.count("multihost.merge.lists",
               static_cast<std::uint64_t>(n_active_) * nq);
    sink.observe("multihost.broadcast_seconds", report.broadcast_seconds);
    sink.observe("multihost.gather_seconds", report.gather_seconds);
    sink.observe("multihost.network_seconds", report.network_seconds);
    sink.observe("multihost.coord_merge_seconds", report.coord_merge_seconds);
    sink.observe("multihost.batch.seconds", report.seconds);
    sink.set("multihost.slowest_host_seconds", report.slowest_host_seconds);
  }
  return report;
}

void MultiHostUpAnns::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  for (auto& engine : engines_) {
    if (engine) engine->set_metrics(registry);
  }
}

}  // namespace upanns::core
