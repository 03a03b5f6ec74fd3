// AnnsBackend — the backend-agnostic serving interface.
//
// Every execution path (Faiss-CPU functional baseline, Faiss-GPU analytical
// model, UpANNS on the simulated PIM system, and the PIM-naive variant)
// serves queries through this one interface and reports through one unified
// `SearchReport`: neighbors, the four-stage time breakdown, QPS, QPS/W, a
// recall hook, a named per-stage trace (PIM path), and backend-specific
// extras as optional sub-structs. Benches, examples and the CLI are written
// against `AnnsBackend`; none of them reach into engine internals.
//
// Adding a backend (see README "How to add a backend"): implement the two
// `search*` methods, fill the common report fields, attach an extras
// sub-struct if the backend has system-specific observability, and register
// a `BackendKind` in `make_backend`.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "baselines/gpu_model.hpp"
#include "baselines/stage_times.hpp"
#include "common/topk.hpp"
#include "data/dataset.hpp"

namespace upanns::ivf {
class IvfIndex;
struct ClusterStats;
}  // namespace upanns::ivf

namespace upanns::obs {
class MetricsRegistry;
}  // namespace upanns::obs

namespace upanns::core {

struct UpAnnsOptions;
class UpAnnsEngine;

/// Which side of the host/device boundary a pipeline stage occupies. The
/// batch pipeline overlaps the *leading host stages* of batch i+1 with the
/// device-bound remainder of batch i (see core/pipeline.hpp).
enum class StageSide { kHost, kDevice };

/// One named, individually timed step of a backend's online path.
struct StageStep {
  const char* name = "";
  double seconds = 0;
  StageSide side = StageSide::kHost;
};

/// PIM-specific observability (UpANNS and PIM-naive backends).
struct PimExtras {
  /// Per-DPU stage seconds (only active DPUs are non-zero) — the substrate
  /// for at-scale extrapolation and the breakdown figures.
  struct DpuStageSeconds {
    double lut = 0, dist = 0, topk = 0;
    double total() const { return lut + dist + topk; }
  };
  std::vector<DpuStageSeconds> dpu_stage_seconds;

  /// Per-DPU busy seconds for this batch and the Fig 11 balance metric.
  std::vector<double> dpu_busy_seconds;
  double balance_ratio = 0;          ///< max/mean of per-DPU busy time
  /// max/mean of *scheduled scanned vectors* per DPU — the paper's Fig 11
  /// "maximum process / average process" metric (scale-free).
  double schedule_balance = 0;

  std::size_t bytes_pushed = 0;
  std::size_t bytes_gathered = 0;
  bool push_parallel = true;

  // Opt3/Opt4 visibility.
  double length_reduction = 0;       ///< scanned-stream reduction (Fig 14)
  std::uint64_t merge_insertions = 0;
  std::uint64_t merge_pruned = 0;    ///< comparisons skipped (Fig 15)
  std::uint64_t scanned_records = 0;
  std::uint64_t total_instructions = 0;  ///< across all DPUs, this batch
  std::uint64_t total_dma_cycles = 0;
  std::size_t n_dpus = 0;
};

/// GPU-model observability: the 80 GB capacity verdict (Fig 12 OOM marks).
struct GpuExtras {
  baselines::GpuCapacity capacity;
  bool oom = false;
  baselines::QueryWorkProfile profile;  ///< measured work, for re-scaling
};

/// CPU-baseline observability: the measured work profile driving the
/// roofline cost model and at-scale extrapolation.
struct CpuExtras {
  baselines::QueryWorkProfile profile;
};

/// Per-query cost-attribution inputs, captured by the PIM pipeline only
/// when a span log is attached to the engine (obs/span.hpp assembles the
/// actual spans post hoc). Never serialized into report JSON.
struct QueryCosts {
  std::uint64_t batch_id = 0;        ///< pipeline batch index
  std::uint64_t first_query_id = 0;  ///< global id of this batch's row 0
  /// Per-query share of the batch's device phase, derived from the Alg-2
  /// schedule (sums to 1 over the batch; uniform when nothing scheduled).
  std::vector<double> device_weight;
};

/// The unified result of one batch search, common to every backend.
struct SearchReport {
  std::vector<std::vector<common::Neighbor>> neighbors;  ///< per query, asc
  baselines::StageTimes times;   ///< four-stage breakdown + transfer
  /// Named per-stage trace of the online path (filled by the PIM pipeline;
  /// entries sum to times.total()).
  std::vector<StageStep> trace;
  double qps = 0;
  double qps_per_watt = 0;

  // Backend-specific extras; at most one engages per backend.
  std::optional<PimExtras> pim;
  std::optional<GpuExtras> gpu;
  std::optional<CpuExtras> cpu;
  /// Engaged only when the engine had a span log attached for this search.
  std::optional<QueryCosts> query_costs;

  double total_seconds() const { return times.total(); }

  /// Recall hook: recall@k of this report's neighbors against an exact
  /// ground-truth list (data::exact_topk output).
  double recall_against(
      const std::vector<std::vector<common::Neighbor>>& exact,
      std::size_t k) const;

  /// Linear-work extrapolation for PIM reports (see DESIGN.md): the distance
  /// stage scales with per-list work (`data_factor`) and with how many DPUs
  /// share the batch; LUT construction and top-k merging are per-assignment
  /// costs, so they scale with the per-DPU assignment count (`dpu_factor` =
  /// dpus_actual / dpus_target). Transfers and host stages are reported as
  /// measured. QPS/W is computed at the *target* DPU count implied by
  /// `dpu_factor`. Throws std::logic_error without PIM extras.
  SearchReport at_scale(double data_factor, double dpu_factor = 1.0) const;
};

/// The serving interface every system implements.
class AnnsBackend {
 public:
  virtual ~AnnsBackend() = default;

  virtual const char* name() const = 0;

  /// Search one query batch (backend performs its own cluster filtering).
  virtual SearchReport search(const data::Dataset& queries) = 0;

  /// Search with externally computed probe lists, so one filtering pass can
  /// be shared across backends (accuracy comparisons, parity tests).
  virtual SearchReport search_with_probes(
      const data::Dataset& queries,
      const std::vector<std::vector<std::uint32_t>>& probes) = 0;

  /// Attach a metrics registry for structured observability (see src/obs/).
  /// Default: ignored — backends without instrumentation stay silent. The
  /// registry must outlive the backend or a set_metrics(nullptr).
  virtual void set_metrics(obs::MetricsRegistry* registry) { (void)registry; }

  // ----- Streaming updates (optional capability) -----
  //
  // Backends constructed over a mutable index may accept writes between
  // search batches; everyone else inherits the defaults, which report
  // `supports_updates() == false` and throw std::logic_error. `upsert`
  // replaces an existing live id or inserts a new one; `remove` tombstones
  // the given ids and returns how many were actually live.

  virtual bool supports_updates() const { return false; }
  virtual void upsert(std::span<const std::uint32_t> ids,
                      std::span<const float> vectors);
  virtual std::size_t remove(std::span<const std::uint32_t> ids);
};

/// UpANNS (or PIM-naive, depending on options) behind the common interface.
/// Exposed concretely because the serving extensions — adaptive relocation
/// and the double-buffered BatchStream — are PIM-engine features.
class UpAnnsBackend final : public AnnsBackend {
 public:
  UpAnnsBackend(const ivf::IvfIndex& index, const ivf::ClusterStats& stats,
                const UpAnnsOptions& options, const char* label = "UpANNS");
  /// Updatable variant: accepts upsert/remove; the engine patches the MRAM
  /// images before its next search. With no writes issued it serves
  /// bit-identically to the read-only overload.
  UpAnnsBackend(ivf::IvfIndex& index, const ivf::ClusterStats& stats,
                const UpAnnsOptions& options, const char* label = "UpANNS");
  ~UpAnnsBackend() override;

  const char* name() const override { return label_; }
  SearchReport search(const data::Dataset& queries) override;
  SearchReport search_with_probes(
      const data::Dataset& queries,
      const std::vector<std::vector<std::uint32_t>>& probes) override;
  void set_metrics(obs::MetricsRegistry* registry) override;

  bool supports_updates() const override;
  void upsert(std::span<const std::uint32_t> ids,
              std::span<const float> vectors) override;
  std::size_t remove(std::span<const std::uint32_t> ids) override;

  UpAnnsEngine& engine() { return *engine_; }
  const UpAnnsEngine& engine() const { return *engine_; }

 private:
  std::unique_ptr<UpAnnsEngine> engine_;
  const char* label_;
};

class MultiHostUpAnns;
struct MultiHostOptions;

/// A sharded multi-host UpANNS cluster (core/multihost.hpp) behind the
/// common serving interface. The report folds the coordinator-side
/// accounting into the unified shape: `times` is the slowest host's stage
/// breakdown with the network fan-out and inter-host merge added to the
/// transfer bucket, and the trace names the coordinator phases
/// (cluster-filter / broadcast / host-search / gather / interhost-merge),
/// so times.total() equals the multi-host report's simulated seconds.
/// Exposed concretely because the serving extension — the overlapped
/// MultiHostBatchPipeline — drives the cluster directly.
class MultiHostBackend final : public AnnsBackend {
 public:
  MultiHostBackend(const ivf::IvfIndex& index, const ivf::ClusterStats& stats,
                   const MultiHostOptions& options);
  ~MultiHostBackend() override;

  const char* name() const override { return "UpANNS-MH"; }
  SearchReport search(const data::Dataset& queries) override;
  SearchReport search_with_probes(
      const data::Dataset& queries,
      const std::vector<std::vector<std::uint32_t>>& probes) override;
  void set_metrics(obs::MetricsRegistry* registry) override;

  MultiHostUpAnns& cluster() { return *cluster_; }
  const MultiHostUpAnns& cluster() const { return *cluster_; }

 private:
  std::unique_ptr<MultiHostUpAnns> cluster_;
};

enum class BackendKind { kCpuIvfpq, kGpuIvfpq, kUpAnns, kPimNaive, kMultiHost };

const char* backend_name(BackendKind kind);
/// Parse "cpu" / "gpu" / "upanns" / "naive" (or "pim-naive") / "multihost"
/// (or "mh").
std::optional<BackendKind> backend_kind_of(std::string_view name);

/// One factory for every system. `options` carries the shared runtime knobs
/// (k, nprobe) for all kinds and the full PIM configuration for the PIM
/// kinds; kPimNaive applies the paper's Sec 5.1 naive toggles on top of it.
/// CPU/GPU backends ignore `stats`. kMultiHost shards across a default two
/// hosts, each configured with `options` — use make_multihost_backend for
/// full control over host count and network parameters.
std::unique_ptr<AnnsBackend> make_backend(BackendKind kind,
                                          const ivf::IvfIndex& index,
                                          const ivf::ClusterStats& stats,
                                          const UpAnnsOptions& options);

/// Updatable factory: backends that can serve a mutable index (CPU oracle,
/// UpANNS, PIM-naive) come back with supports_updates() == true; the rest
/// (GPU model, multi-host) fall back to read-only serving of `index`.
std::unique_ptr<AnnsBackend> make_backend(BackendKind kind,
                                          ivf::IvfIndex& index,
                                          const ivf::ClusterStats& stats,
                                          const UpAnnsOptions& options);

/// The multi-host factory: full MultiHostOptions (host count, per-host PIM
/// configuration, network bandwidth/latency).
std::unique_ptr<AnnsBackend> make_multihost_backend(
    const ivf::IvfIndex& index, const ivf::ClusterStats& stats,
    const MultiHostOptions& options);

}  // namespace upanns::core
