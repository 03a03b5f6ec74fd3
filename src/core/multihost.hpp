// Multi-host UpANNS (paper Sec 5.5): "UpANNS can be easily extended to
// multi-host configurations. Only query distribution and result aggregation
// require cross-host communication. The core memory-intensive search
// operations remain local to each host."
//
// Each host runs a full UpAnnsEngine over a *cluster shard* of one shared
// IVFPQ index (whole clusters never split — the same rule Opt1 applies to
// DPUs). A batch is broadcast to every host, each host filters/schedules/
// searches its own clusters on its own PIM DIMMs, and the coordinator merges
// the per-host top-k lists.
//
// Cost model (see DESIGN.md "Multi-host pipeline"):
//   seconds = coord_filter + slowest_host + network + coord_merge
// where coord_filter is the *one* coordinator-side cluster-filtering pass
// (hosts share the coordinator's probe lists; their own engine reports still
// book a filter stage, which the aggregation removes so it is charged once),
// slowest_host is the largest per-host remainder (Alg-2 schedule + device
// stages), network is the broadcast fan-out (the coordinator NIC serializes
// one per-host payload *per host*) plus the gather of every host's top-k,
// and coord_merge is the coordinator-side k-way merge across host lists.
//
// MultiHostBatchPipeline is core::BatchStream over the cluster: the
// coordinator phases of batch i (gather + inter-host merge) and of batch i+1
// (filter + broadcast) overlap the host fleet's schedule/device phase of the
// batch in flight. Execution stays serial — overlap changes only the
// simulated time accounting, so per-query neighbors are bit-identical with
// overlap on or off, and --no-overlap reproduces the synchronous per-batch
// `seconds` sums exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/pipeline.hpp"

namespace upanns::core {

struct MultiHostOptions {
  std::size_t n_hosts = 2;
  UpAnnsOptions per_host;           ///< PIM configuration of each host
  /// Coordinator <-> host link bandwidth (bytes/s); 25 GbE by default.
  double network_bandwidth = 25e9 / 8;
  double network_latency = 50e-6;   ///< per-message one-way latency
};

/// One host's share of a batch, under the coordinator's accounting.
struct MultiHostHostSlot {
  /// Leading host-side stages on this host *after* the shared coordinator
  /// filter (i.e. the Alg-2 schedule prefix).
  double host_seconds = 0;
  double device_seconds = 0;   ///< push + launch + gather + local merge
  /// This host's payload share of broadcast + gather (no per-message
  /// latency; the per-transfer latencies live in the batch-level fields).
  double network_seconds = 0;
  bool active = true;          ///< false for hosts that own no clusters
};

struct MultiHostReport {
  std::vector<std::vector<common::Neighbor>> neighbors;
  double seconds = 0;               ///< simulated batch wall time
  double qps = 0;
  double network_seconds = 0;       ///< broadcast + gather share
  double broadcast_seconds = 0;     ///< coordinator NIC fan-out, all hosts
  double gather_seconds = 0;        ///< per-host top-k readback
  double coord_filter_seconds = 0;  ///< one coordinator filtering pass
  double coord_merge_seconds = 0;   ///< coordinator k-way inter-host merge
  /// Largest per-host remainder (schedule + device stages); the shared
  /// coordinator filter is accounted once in coord_filter_seconds, never
  /// per host.
  double slowest_host_seconds = 0;
  std::vector<baselines::StageTimes> host_times;
  std::vector<MultiHostHostSlot> host_slots;
};

class MultiHostUpAnns {
 public:
  /// Shard the index's clusters across hosts (largest-first onto the
  /// least-loaded host, by workload) and build one engine per host. Hosts
  /// that end up owning no clusters (n_hosts > n_clusters) get no engine;
  /// they contribute empty lists and zero time to every search.
  MultiHostUpAnns(const ivf::IvfIndex& index, const ivf::ClusterStats& stats,
                  MultiHostOptions options);

  /// Updatable cluster: same sharding, but every per-host engine may mutate
  /// the shared index and incrementally patch its own MRAM images. With no
  /// writes issued it serves bit-identically to the read-only overload.
  MultiHostUpAnns(ivf::IvfIndex& index, const ivf::ClusterStats& stats,
                  MultiHostOptions options);

  std::size_t n_hosts() const { return engines_.size(); }
  /// Hosts that own at least one cluster (and therefore run an engine).
  std::size_t n_active_hosts() const { return n_active_; }
  bool host_active(std::size_t h) const { return engines_[h] != nullptr; }
  /// Which host owns a cluster. Throws std::out_of_range on an invalid
  /// cluster index.
  std::uint32_t host_of(std::size_t cluster) const;
  /// Valid only for active hosts (throws std::logic_error otherwise).
  UpAnnsEngine& host_engine(std::size_t h);

  const MultiHostOptions& options() const { return options_; }

  /// The shared index every host shards. The adaptive pipeline computes one
  /// coordinator-side probe pass from it for the whole fleet.
  const ivf::IvfIndex& index() const { return index_; }

  MultiHostReport search(const data::Dataset& queries);
  /// Search with externally computed probe lists (skips the coordinator
  /// filtering pass's computation but still charges its simulated time,
  /// exactly like UpAnnsEngine::search_with_probes).
  MultiHostReport search_with_probes(
      const data::Dataset& queries,
      const std::vector<std::vector<std::uint32_t>>& probes);

  /// Attach a registry to the coordinator (broadcast/gather bytes, network
  /// seconds, inter-host merge size) and to every per-host engine.
  void set_metrics(obs::MetricsRegistry* registry);
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Attach (or detach) a span log: MultiHostBatchPipeline then assembles
  /// coordinator/host/per-query spans post hoc (obs::append_spans).
  void set_spans(obs::SpanLog* spans) { spans_ = spans; }
  obs::SpanLog* spans() const { return spans_; }

  // ----- Streaming updates (clusters built from a mutable index) -----
  //
  // Mutations route through one engine (the index and its dirty epoch are
  // shared, so every host's engine observes the drift); each host then
  // patches only the clusters resident in its own shard. Read-only clusters
  // throw std::logic_error, mirroring UpAnnsEngine.

  /// True when constructed from a non-const index.
  bool updatable() const { return mutable_index_ != nullptr; }

  void upsert(std::span<const std::uint32_t> ids,
              std::span<const float> vectors);
  std::size_t remove(std::span<const std::uint32_t> ids);
  std::size_t compact(double min_tombstone_ratio = 0.0);

  /// True when any host's MRAM images are stale w.r.t. the shared index.
  bool needs_patch() const;

  /// Patch every active host's MRAM images. Hosts patch concurrently, so
  /// the simulated seconds are the slowest host's; bytes/lists/moves are
  /// summed across hosts. search() needs no explicit call: every host
  /// engine applies its pending patch when it searches.
  UpAnnsEngine::PatchStats patch_hosts();

 private:
  void init(const ivf::ClusterStats& stats);

  const ivf::IvfIndex& index_;
  ivf::IvfIndex* mutable_index_ = nullptr;
  MultiHostOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanLog* spans_ = nullptr;
  std::vector<std::uint32_t> owner_;
  std::vector<std::unique_ptr<UpAnnsEngine>> engines_;
  std::size_t n_active_ = 0;
};

/// The fleet stream is the single-host stream over a cluster (pipeline.hpp):
/// one options struct, slot type, drift loop per active host and timeline.
/// Its slots split each batch into
///   pre     coordinator filter + broadcast fan-out
///   device  slowest host's schedule + device remainder
///   post    gather + coordinator inter-host merge
/// and its run() hook mutates the cluster (upsert/remove/compact); pending
/// mutations become one fleet-wide MRAM patch charged to the device phase.
/// Hosts run in order 0..n-1 on every batch.
using MultiHostPipelineOptions = BatchPipelineOptions;
using MultiHostBatchSlot = StreamSlot<MultiHostReport>;
using MultiHostPipelineReport = StreamReport<MultiHostReport>;
using MultiHostBatchPipeline =
    BasicBatchStream<MultiHostUpAnns, MultiHostReport>;

}  // namespace upanns::core
