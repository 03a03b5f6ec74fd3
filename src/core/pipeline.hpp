// The online query path, decomposed into named stage objects.
//
// QueryPipeline runs one batch through six individually timed stages:
//
//   cluster-filter  (host)    coarse filtering on the CPU roofline
//   alg2-schedule   (host)    Algorithm 2 replica selection / balancing
//   uniform-push    (device)  launch-input build + uniform-size MRAM push
//   kernel-launch   (device)  DPU kernels, max-over-DPU critical path
//   gather          (device)  per-DPU top-k result readback
//   host-merge      (host)    final k-way merge on the host
//
// Each stage books its simulated seconds into exactly one bucket of
// SearchReport::times and reports the same seconds in the SearchReport
// trace, so the trace always sums to times.total().
//
// BatchStream streams a sequence of query batches through the stages with
// double-buffering: the leading host stages (filter + schedule) of batch
// i+1 overlap the device-bound remainder of batch i, the classic two-phase
// software pipeline of the paper's Fig 5 host orchestration. Simulated
// elapsed time is h_0 + sum_i max(d_i, h_{i+1}) + d_last; with overlap
// disabled (--no-overlap in the CLI) it is exactly the serial sum of the
// per-batch totals. Results are bit-identical either way — overlap changes
// only the time accounting, never the execution order of a batch's stages.
// The multi-host stream (core/multihost.hpp) is the same class over a fleet.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "core/dpu_kernel.hpp"
#include "core/engine.hpp"
#include "core/scheduler.hpp"
#include "data/dataset.hpp"
#include "obs/metrics.hpp"
#include "pim/dpu.hpp"

namespace upanns::core {

/// Mutable state threaded through the stages of one batch.
struct BatchContext {
  const data::Dataset* queries = nullptr;
  const std::vector<std::vector<std::uint32_t>>* probes = nullptr;
  std::vector<std::vector<std::uint32_t>> owned_probes;  ///< when filtering here

  Schedule sched;
  std::vector<DpuLaunchInput> inputs;
  std::vector<std::size_t> push_bytes;
  /// Borrowed from QueryPipeline's kernel pool (rebind per batch); nullptr
  /// for idle DPUs. Valid for the lifetime of the batch only.
  std::vector<QueryKernel*> kernels;
  pim::PimSystem::LaunchStats launch;
  std::vector<std::vector<std::vector<common::Neighbor>>> per_query_lists;
  std::size_t max_gather = 0;

  SearchReport report;
};

/// One named online stage. run() performs the stage, books its cost into
/// ctx.report.times, and returns the simulated seconds it booked (the
/// pipeline appends that to the report trace).
class QueryStage {
 public:
  virtual ~QueryStage() = default;
  virtual const char* name() const = 0;
  virtual StageSide side() const = 0;
  virtual double run(QueryPipeline& pl, BatchContext& ctx) = 0;
};

class ClusterFilterStage final : public QueryStage {
 public:
  const char* name() const override { return "cluster-filter"; }
  StageSide side() const override { return StageSide::kHost; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

class ScheduleStage final : public QueryStage {
 public:
  const char* name() const override { return "alg2-schedule"; }
  StageSide side() const override { return StageSide::kHost; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

class PushStage final : public QueryStage {
 public:
  const char* name() const override { return "uniform-push"; }
  StageSide side() const override { return StageSide::kDevice; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

class LaunchStage final : public QueryStage {
 public:
  const char* name() const override { return "kernel-launch"; }
  StageSide side() const override { return StageSide::kDevice; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

class GatherStage final : public QueryStage {
 public:
  const char* name() const override { return "gather"; }
  StageSide side() const override { return StageSide::kDevice; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

class MergeStage final : public QueryStage {
 public:
  const char* name() const override { return "host-merge"; }
  StageSide side() const override { return StageSide::kHost; }
  double run(QueryPipeline& pl, BatchContext& ctx) override;
};

/// Runs one batch through the six stages. Engine internals funnel through
/// the accessors below (the engine befriends only this class). Every engine
/// owns one (UpAnnsEngine::pipeline()), so its kernel pool lives as long as
/// the engine and serves every batch, stream or standalone search.
class QueryPipeline {
 public:
  explicit QueryPipeline(UpAnnsEngine& engine);

  /// probes == nullptr -> the filter stage computes them (options().nprobe).
  /// batch_id / first_query_id are the stable telemetry ids stamped into
  /// SearchReport::query_costs when the engine has a span log attached
  /// (obs/span.hpp); they are ignored otherwise, so standalone searches can
  /// leave them defaulted. probes_out, when non-null, receives the batch's
  /// probe lists after the stages ran (moved out when the filter stage
  /// computed them) — the adaptive serving loop feeds them to its drift
  /// controller; null skips the capture entirely.
  SearchReport run(const data::Dataset& queries,
                   const std::vector<std::vector<std::uint32_t>>* probes,
                   std::uint64_t batch_id = 0,
                   std::uint64_t first_query_id = 0,
                   std::vector<std::vector<std::uint32_t>>* probes_out =
                       nullptr);

  UpAnnsEngine& engine() { return engine_; }
  const ivf::IvfIndex& index() const { return engine_.index_; }
  const UpAnnsOptions& options() const { return engine_.options_; }
  const Placement& placement() const { return engine_.placement_; }
  pim::PimSystem& system() { return *engine_.system_; }
  KernelMode mode() const { return engine_.mode_; }
  UpAnnsEngine::PerDpu& per_dpu(std::size_t d) { return engine_.per_dpu_[d]; }
  /// Empty (inlined no-op) when the engine has no registry attached.
  obs::MetricsSink sink() const { return engine_.metrics_; }
  /// Null when no span log is attached (per-query cost capture skipped).
  obs::SpanLog* spans() const { return engine_.spans_; }

  /// Kernel pool: constructs DPU d's kernel on first use, rebinds it to the
  /// new launch input afterwards. Mode, pruning and the static layout are
  /// per-engine constants, so reuse across batches is sound; the returned
  /// pointer stays owned by the pipeline and must not outlive it.
  QueryKernel* acquire_kernel(std::size_t d, const DpuLaunchInput& input);

  /// Drop every pooled kernel. UpAnnsEngine::relocate() calls this on the
  /// pipeline it owns: a relocation rebuilds the per-DPU layout objects the
  /// pooled kernels hold references into, so they must be reconstructed on
  /// next use.
  void reset_kernels() { kernel_pool_.clear(); }

 private:
  UpAnnsEngine& engine_;
  std::vector<std::unique_ptr<QueryStage>> stages_;
  std::vector<std::unique_ptr<QueryKernel>> kernel_pool_;
};

struct BatchPipelineOptions {
  /// Overlap host stages of batch i+1 with device stages of batch i (on a
  /// fleet: the coordinator phases with the hosts' device phase). False
  /// reproduces the serial per-batch totals exactly (CLI --no-overlap).
  bool overlap = true;
  /// Book per-query `query.latency_seconds` (cumulative + rolling window)
  /// from the simulated timeline when the run finishes. The online serve
  /// layer (src/serve/) turns this off and books measured enqueue→complete
  /// latencies under the same name instead, so the metric never mixes the
  /// simulated and wall-clock time bases.
  bool book_query_latency = true;
  /// Online adaptive replication (paper Sec 4.1.2): after each batch every
  /// serving engine's DriftLoop observes the probe histogram; a
  /// recommendation made at the end of batch i is applied before batch i+1
  /// runs (a drain point), its MRAM cost folded into that slot's device
  /// phase like a mutation patch. kOff (the default) skips the controller
  /// entirely and is byte-identical to a build without the feature.
  AdaptMode adapt = AdaptMode::kOff;
  /// Controller tuning when adapt != kOff. window_batches doubles as the
  /// decision cooldown: at least that many batches are observed after every
  /// action (or stream start) before any controller may act again.
  AdaptiveOptions adaptive{};
};

/// One scheduled batch of a stream run. Its three phases always sum to the
/// batch's serial cost (report total + patch + adapt):
///   pre     one host: the leading host stages (filter + schedule);
///           fleet: coordinator filter + broadcast fan-out
///   device  the rest of the batch on the PIM side (one host: push, launch,
///           gather, merge; fleet: the slowest host's schedule + device
///           remainder), led by any MRAM patch and adaptation work
///   post    fleet only: gather + coordinator inter-host merge (0 on one
///           host, which has no coordinator)
template <class Report>
struct StreamSlot {
  double pre_seconds = 0;
  double device_seconds = 0;
  double post_seconds = 0;
  /// Incremental MRAM patch applied before this batch (updatable engines
  /// with pending mutations only; folded into device_seconds — the patch
  /// occupies the MRAM bus, so it leads the device phase). On a fleet the
  /// hosts patch concurrently: seconds is the slowest host's, bytes sum.
  double patch_seconds = 0;
  std::uint64_t patch_bytes = 0;
  /// Drift-loop work applied before this batch, after the mutation patch —
  /// a copy-adjust MRAM load or a full relocation decided at the end of an
  /// earlier batch (BatchPipelineOptions::adapt), folded into
  /// device_seconds the same way; zero whenever no controller acted. Fleet
  /// hosts adapt concurrently: seconds is the slowest host's, bytes sum,
  /// action/drift record the most severe host.
  double adapt_seconds = 0;
  std::uint64_t adapt_bytes = 0;
  AdaptAction adapt_action = AdaptAction::kNone;
  double adapt_drift = 0;  ///< controller drift at decision time
  Report report;
};

template <class Report>
struct StreamReport {
  std::vector<StreamSlot<Report>> slots;
  double serial_seconds = 0;   ///< sum of per-batch totals (no-overlap time)
  double elapsed_seconds = 0;  ///< simulated end-to-end time of this run
  bool overlapped = true;
  std::size_t n_queries = 0;
  double qps = 0;              ///< n_queries / elapsed_seconds
};

using BatchSlot = StreamSlot<SearchReport>;
using BatchPipelineReport = StreamReport<SearchReport>;

/// Simulated-time windows of one batch: pre and post on the host (fleet:
/// coordinator) lane, device on the device (fleet: host) lanes.
struct PhaseWindows {
  double pre_start = 0, pre_end = 0;
  double device_start = 0, device_end = 0;
  double post_start = 0, post_end = 0;
  /// When the batch's results are complete: the end of its last phase with
  /// work. A zero-length post (always, on one host) completes with the
  /// device phase — its window would otherwise inherit the coordinator's
  /// wait for the next batch's pre phase.
  double done = 0;
};

/// Lay every batch out under the two-resource model both streams share:
/// the host (fleet: coordinator) is one serial resource running pre(0),
/// pre(1), post(0), pre(2), post(1), ...; the device (fleet: the hosts)
/// runs device phases in batch order. Each phase also waits for its input:
/// device(i) needs pre(i), post(i) needs device(i). Overlapped runs end at
/// elapsed_seconds bit-for-bit (the stream computes elapsed from this);
/// serial runs lay the three phases of every batch back to back, which can
/// differ from serial_seconds by a few ulps.
template <class Report>
std::vector<PhaseWindows> batch_timeline(const StreamReport<Report>& report);

/// Sum of the leading StageSide::kHost trace entries of a report — the host
/// prefix (filter + schedule) that the streams overlap with the previous
/// batch's device phase.
double leading_host_seconds(const SearchReport& report);

/// The Sec 4.1.2 drift loop of one serving engine: the controller, the
/// decision pending until the next drain point, resident-copy sizing, and
/// the relocate / copy-adjust apply with its `adapt.*` bookings. A stream
/// holds one per engine it serves (each fleet host watches the shared
/// coordinator probe stream but sizes replicas against its own shard).
class DriftLoop {
 public:
  DriftLoop(UpAnnsEngine& engine, AdaptMode mode, AdaptiveOptions options);

  bool pending() const { return pending_.action != AdaptAction::kNone; }

  /// What apply_pending() shipped; action kNone when nothing was pending.
  struct Applied {
    double seconds = 0;
    std::uint64_t bytes = 0;
    AdaptAction action = AdaptAction::kNone;
    double drift = 0;
  };
  /// Drain point: apply the pending decision (relocate or copy adjust) and
  /// restart drift from the decided profile.
  Applied apply_pending();

  /// Feed one batch's probe lists. `busy` (one host only) also feeds the
  /// per-DPU busy seconds, which books adapt.balance_pre/post around
  /// actions.
  void observe(const std::vector<std::vector<std::uint32_t>>& probes,
               const SearchReport* busy);

  /// Size resident replica counts from the window mean and pend the
  /// controller's recommendation, if any.
  void decide();

 private:
  UpAnnsEngine& engine_;
  AdaptMode mode_;
  AdaptiveOptions options_;
  // Created on the first observation; survives stream finish() so a reused
  // stream keeps its traffic estimate across runs.
  std::unique_ptr<AdaptiveController> controller_;
  AdaptReport pending_;                ///< decision awaiting the drain point
  std::vector<double> pending_freqs_;  ///< profile the decision was sized for
  bool busy_fed_ = false;              ///< observe() has seen busy seconds
  bool book_balance_post_ = false;     ///< first batch after an action
};

/// Mixed read/write workload hook: `mutate(i)` runs before batch i and may
/// issue upsert/remove/compact calls on the stream's target. Pending
/// mutations are then applied as one incremental MRAM patch whose cost is
/// charged to the slot's device phase — the patch occupies the MRAM bus, so
/// it cannot overlap the batch's own device stages, but the next batch's
/// pre phase still overlaps it like any device work. A null hook (or one
/// that never mutates) reproduces the read-only run bit-for-bit.
using MutationHook = std::function<void(std::size_t batch_index)>;

/// The one serving loop, over a single engine (BatchStream) or a
/// MultiHostUpAnns fleet (MultiHostBatchPipeline, core/multihost.hpp).
/// Batches are fed one at a time — the entry point the online serve layer
/// (src/serve/) uses, where a deadline batcher decides the boundaries — or
/// all at once through run(). Execution stays serial, so per-query
/// neighbors are bit-identical with overlap on or off; overlap changes only
/// the time accounting (batch_timeline).
template <class Target, class Report>
class BasicBatchStream {
 public:
  using Slot = StreamSlot<Report>;
  using RunReport = StreamReport<Report>;
  using MutationHook = core::MutationHook;

  explicit BasicBatchStream(Target& target, BatchPipelineOptions opts = {});
  /// Serving executors hold the stream's address.
  BasicBatchStream(const BasicBatchStream&) = delete;
  BasicBatchStream& operator=(const BasicBatchStream&) = delete;

  /// Apply any pending mutations as one MRAM patch, then any pending
  /// adaptation, then search `batch`, split its phases and let the drift
  /// loops observe it. The returned slot reference stays valid until
  /// finish(). Query/batch telemetry ids continue across calls.
  const Slot& run_batch(const data::Dataset& batch);

  /// Close the stream: compute the elapsed time, book the slot metrics and
  /// spans, and return the report. The stream resets and can be reused for
  /// a fresh run afterwards.
  RunReport finish();

  /// run_batch over `batches` (calling `mutate(i)` before batch i), then
  /// finish().
  RunReport run(const std::vector<data::Dataset>& batches,
                const MutationHook& mutate = {});

  std::size_t n_batches() const { return out_.slots.size(); }
  std::size_t n_queries() const { return out_.n_queries; }

 private:
  Target& target_;
  BatchPipelineOptions opts_;
  RunReport out_;
  std::uint64_t first_query_id_ = 0;
  /// One per active host, in host order; empty when adapt is off.
  std::vector<DriftLoop> loops_;
  std::size_t observed_since_action_ = 0;  ///< shared decision cooldown
};

/// The single-host stream: filter + schedule form the pre phase, post is 0.
using BatchStream = BasicBatchStream<UpAnnsEngine, SearchReport>;

/// Split a query set into consecutive batches of `batch_size` (the last one
/// may be short). Rows are copied; the input stays valid independently.
std::vector<data::Dataset> split_batches(const data::Dataset& queries,
                                         std::size_t batch_size);

}  // namespace upanns::core
