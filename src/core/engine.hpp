// UpAnnsEngine — the end-to-end system (paper Fig 5).
//
// Offline (build, engine_build.cpp): collect cluster stats from a query
// history, encode every cluster (Opt3), place replicas across DPUs (Opt1),
// and load MRAM images (codebooks, centroids, id arrays, token streams,
// combo tables). One writer, sync_dpu() in engine_mutate.cpp, renders every
// replica image: at load, on list patches and on copy adjustments.
//
// Online (search, pipeline.cpp): the query path is a sequence of named stage
// objects — cluster filter, Alg-2 scheduling, uniform-size transfer, kernel
// launch, gather, host merge — run by core::QueryPipeline. All timing is
// simulated (see DESIGN.md): the report contains the four-stage breakdown,
// a per-stage trace, per-DPU busy times, balance ratio, energy metrics and
// CAE statistics. `core::BatchStream` streams multiple batches through the
// stages with host/device double-buffering.
//
// Every optimization can be toggled independently, which is how the ablation
// benches (Figs 11, 13-17) are driven; `UpAnnsOptions::pim_naive()` yields
// the paper's PIM-naive baseline (random placement, naive scheduling, raw
// codes, unpruned merge — but with the Opt2 resource management retained,
// exactly as Sec 5.1 defines it).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "baselines/stage_times.hpp"
#include "common/topk.hpp"
#include "core/backend.hpp"
#include "core/cae.hpp"
#include "core/dpu_kernel.hpp"
#include "core/placement.hpp"
#include "core/scheduler.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "pim/dpu.hpp"
#include "pim/energy.hpp"

namespace upanns::obs {
class MetricsRegistry;
class SpanLog;
}  // namespace upanns::obs

namespace upanns::core {

class QueryPipeline;

struct UpAnnsOptions {
  std::size_t n_dpus = 896;          ///< 7 DIMMs (Table 1)
  unsigned n_tasklets = 11;          ///< pipeline saturation point (Fig 13)
  std::size_t k = 10;
  std::size_t nprobe = 64;
  /// MRAM read granularity for the distance stage, in vectors (Fig 17;
  /// default 16 per Sec 5.4.2). 0 = one maximal DMA per chunk.
  std::size_t mram_read_vectors = 16;
  /// Fractional slack reserved past each list region when loading MRAM
  /// images, so a list that grows via insert() patches in place instead of
  /// relocating. Offsets are timing-invisible (DMA is charged by bytes), so
  /// the slack never changes read-only results.
  double mram_list_slack = 0.25;

  bool opt_placement = true;         ///< Opt1 offline (Algorithm 1)
  bool opt_scheduling = true;        ///< Opt1 online (Algorithm 2)
  bool opt_cae = true;               ///< Opt3
  bool opt_prune_topk = true;        ///< Opt4
  /// When CAE is off, UpANNS still streams direct-address tokens; PIM-naive
  /// streams raw u8 codes and pays address arithmetic.
  bool naive_raw_codes = false;

  CaeOptions cae;
  PlacementOptions placement;
  std::uint64_t seed = 11;

  static UpAnnsOptions upanns() { return UpAnnsOptions{}; }
  static UpAnnsOptions pim_naive() {
    UpAnnsOptions o;
    o.opt_placement = false;
    o.opt_scheduling = false;
    o.opt_cae = false;
    o.opt_prune_topk = false;
    o.naive_raw_codes = true;
    return o;
  }
};

class UpAnnsEngine {
 public:
  /// Build the PIM-resident index. `stats` supplies s_i / f_i for placement.
  UpAnnsEngine(const ivf::IvfIndex& index, const ivf::ClusterStats& stats,
               UpAnnsOptions options);

  /// Updatable engine: same build, but the engine may mutate the index
  /// (upsert/remove/compact) and incrementally patch the MRAM images via
  /// patch_dpus(). With no mutations issued, behavior is bit-identical to
  /// the read-only overload.
  UpAnnsEngine(ivf::IvfIndex& index, const ivf::ClusterStats& stats,
               UpAnnsOptions options);

  /// The owned QueryPipeline holds a reference back to the engine, so an
  /// engine never moves.
  UpAnnsEngine(const UpAnnsEngine&) = delete;
  UpAnnsEngine& operator=(const UpAnnsEngine&) = delete;
  ~UpAnnsEngine();

  /// Search one batch. Pending mutations are applied first (patch_dpus),
  /// so a search always sees every write issued before it.
  SearchReport search(const data::Dataset& queries);

  /// Search with externally computed probe lists (shared with baselines);
  /// applies pending mutations like search().
  SearchReport search_with_probes(
      const data::Dataset& queries,
      const std::vector<std::vector<std::uint32_t>>& probes);

  /// The engine's own query pipeline and kernel pool, reused by every
  /// search. The batch streams run it directly after patching explicitly,
  /// so they can charge the patch to a slot.
  QueryPipeline& pipeline() { return *pipeline_; }

  const UpAnnsOptions& options() const { return options_; }

  // Runtime-tunable knobs. Only knobs that leave the loaded MRAM images
  // valid are settable; topology (n_dpus, n_tasklets, placement options)
  // is fixed at build — change it by constructing a new engine, and adapt
  // to workload drift via relocate(). (This replaced a mutable_options()
  // accessor that silently desynced MRAM images when topology fields were
  // written after build.)
  void set_k(std::size_t k);
  void set_nprobe(std::size_t nprobe);
  void set_mram_read_vectors(std::size_t vectors);

  /// Attach (or detach, with nullptr) a metrics registry. The pipeline
  /// stages, the PIM system and the transfer model record into it; with no
  /// registry the instrumentation is an inlined no-op and reports are
  /// bit-identical (test_obs parity test). The registry must outlive the
  /// engine or a subsequent set_metrics(nullptr).
  void set_metrics(obs::MetricsRegistry* registry);
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Attach (or detach) a span log. The pipeline then stamps
  /// SearchReport::query_costs (batch/query ids + per-query device shares)
  /// so obs::append_spans can assemble per-query spans post hoc;
  /// with no log attached the capture is skipped entirely and reports are
  /// bit-identical. The log must outlive the engine or a set_spans(nullptr).
  void set_spans(obs::SpanLog* spans) { spans_ = spans; }
  obs::SpanLog* spans() const { return spans_; }

  const Placement& placement() const { return placement_; }
  const ivf::IvfIndex& index() const { return index_; }
  pim::PimSystem& system() { return *system_; }

  /// Average CAE length reduction over resident clusters (build-time stat).
  double build_length_reduction() const { return build_length_reduction_; }

  /// One incremental patch pass: delta-sync of changed list segments.
  struct PatchStats {
    std::uint64_t bytes_written = 0;  ///< MRAM bytes actually pushed
    std::size_t lists_patched = 0;    ///< dirty (cluster, replica) images
    std::size_t regions_moved = 0;    ///< relocations past the slack cap
    double seconds = 0;               ///< simulated host->DPU push time
  };

  /// Rebuild the replica layout for a new frequency profile — the
  /// major-drift path of Sec 4.1.2 (fresh Algorithm 1 pass + full MRAM
  /// reload, without retraining the index). Returns the reload cost so the
  /// online pipelines can charge it to a batch slot: bytes_written is the
  /// full image, seconds the per-DPU batch push; callers that relocate
  /// between workloads may ignore it. Drops the pipeline's pooled kernels,
  /// which referenced the old per-DPU layouts.
  PatchStats relocate(const ivf::ClusterStats& stats);

  /// Result of one apply_copy_adjustments() pass. Retires are host-side
  /// bookkeeping (regions return to the MRAM free list) and cost nothing;
  /// only newly loaded replica images ship bytes.
  struct AdaptStats {
    std::size_t replicas_added = 0;
    std::size_t replicas_retired = 0;
    std::uint64_t bytes_written = 0;  ///< MRAM bytes pushed for new replicas
    double seconds = 0;               ///< simulated host->DPU push time
  };

  /// The minor-drift path of Sec 4.1.2: re-place only the requested replica
  /// deltas (core::adjust_replicas) and ship them incrementally — new
  /// replica images load into reused MRAM regions (mram_alloc_reuse with
  /// the usual slack), retired replicas release theirs — without touching
  /// any other resident cluster. `frequencies` is the fresh traffic
  /// estimate the adjustments were derived from. Replication changes
  /// placement, never results: neighbors are bit-identical before/after.
  AdaptStats apply_copy_adjustments(
      const std::vector<CopyAdjustment>& adjustments,
      const std::vector<double>& frequencies);

  /// Frequency profile (normalized) the current placement was built
  /// against — the drift baseline for AdaptiveController::set_baseline.
  /// Updated by relocate().
  const std::vector<double>& placement_frequencies() const {
    return placement_frequencies_;
  }

  // ----- Streaming updates (engines built from a mutable index) -----

  /// True when constructed from a non-const index.
  bool updatable() const { return mutable_index_ != nullptr; }

  /// Mutate the index through the engine so dirty-list tracking stays
  /// coherent. Throw std::logic_error on a read-only engine. The MRAM
  /// images go stale until patch_dpus(), which search() and
  /// search_with_probes() apply lazily; the batch streams call it
  /// explicitly to charge its cost to the next slot.
  void upsert(std::span<const std::uint32_t> ids,
              std::span<const float> vectors);
  std::size_t remove(std::span<const std::uint32_t> ids);
  std::size_t compact(double min_tombstone_ratio = 0.0);

  /// True when the index mutated since the MRAM images were last synced.
  bool needs_patch() const;

  /// Push only the dirty list segments (ids with tombstone sentinels, token
  /// stream, chunk index, combos) plus the updated length/static-mark
  /// tables to the DPUs — the streaming replacement for a full load_dpus().
  /// No-op (all-zero stats) when nothing is dirty.
  PatchStats patch_dpus();

  /// Total MRAM bytes host_write() pushed by the last full load_dpus() —
  /// the denominator for patch-incrementality checks.
  std::uint64_t load_image_bytes() const { return load_image_bytes_; }
  /// Cumulative patch bytes across all patch_dpus() calls.
  std::uint64_t patch_bytes_total() const { return patch_bytes_total_; }

  /// Per-DPU MRAM image state. Internal to the engine + pipeline; public
  /// only as a type so QueryPipeline can name it.
  struct PerDpu {
    DpuStaticLayout layout;
    std::size_t static_mark = 0;
    std::vector<std::int32_t> cluster_slot;  ///< cluster id -> slot (-1 none)
  };

 private:
  friend class QueryPipeline;  ///< online path reads layouts, rewinds MRAM

  /// Host-side byte image of one cluster's MRAM regions — the single source
  /// the replica writer renders from, so a patched replica is byte-identical
  /// to a freshly loaded one.
  struct ClusterImage {
    std::vector<std::uint32_t> ids;     ///< tombstoned slots already sentineled
    std::vector<std::uint8_t> stream;   ///< u16 tokens or raw codes, as bytes
    std::size_t stream_elems = 0;       ///< element count (cd.stream_len)
    std::vector<std::uint32_t> chunk_index;
    std::vector<std::uint8_t> combos;   ///< packed 4B combo defs
    std::uint32_t n_records = 0;
    std::uint32_t n_tombstones = 0;
  };

  /// One operation of the replica writer.
  struct ReplicaOp {
    enum class Kind : std::uint8_t {
      kLoad,    ///< write a new replica into fresh regions
      kSync,    ///< bring a resident replica up to date with its list
      kRetire,  ///< release a resident replica's regions
    };
    Kind kind;
    std::uint32_t cluster;
  };

  /// What the replica writer did, on one DPU or summed over all of them.
  struct ReplicaCounts {
    std::size_t bytes = 0;  ///< MRAM bytes pushed
    std::size_t loaded = 0;
    std::size_t synced = 0;
    std::size_t retired = 0;
    std::size_t regions_moved = 0;  ///< synced regions that outgrew their cap
  };

  /// The only writer of replica MRAM images: runs `ops` on DPU d in order.
  /// Each region is diffed in place while the image fits its reservation,
  /// else written whole into a fresh slack-padded region (a new replica's
  /// regions start with none). Keeps descriptors, cluster_slot and the
  /// static mark current.
  ReplicaCounts sync_dpu(std::size_t d, std::span<const ReplicaOp> ops);
  /// sync_dpu(d, ops[d]) on every DPU in parallel. Fills the bytes pushed
  /// per DPU and returns the counts summed over DPUs.
  ReplicaCounts sync_replicas(const std::vector<std::vector<ReplicaOp>>& ops,
                              std::vector<std::size_t>& dpu_bytes);
  /// Full MRAM image load onto a fresh PimSystem: the codebook, then every
  /// placed replica. Returns the bytes pushed per DPU (relocate turns them
  /// into simulated transfer seconds, the constructor discards them).
  std::vector<std::size_t> load_dpus();
  void encode_cluster(std::size_t c);
  /// Bring encodings_[c] up to date with the list: full re-encode after a
  /// compaction, cheap direct-token append after pure inserts.
  void refresh_encoding(std::size_t c);
  void build_cluster_image(std::uint32_t c, ClusterImage& out) const;
  std::size_t slack_bytes(std::size_t bytes) const;
  void snapshot_loaded_state();
  void set_placement_frequencies(const std::vector<double>& frequencies);

  const ivf::IvfIndex& index_;
  ivf::IvfIndex* mutable_index_ = nullptr;
  UpAnnsOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanLog* spans_ = nullptr;
  Placement placement_;
  std::vector<double> placement_frequencies_;
  std::unique_ptr<pim::PimSystem> system_;
  std::vector<PerDpu> per_dpu_;

  // Shared (all-DPU) quantized codebook image, plus the kernels' host
  // mirror of it dequantized (prescale_codebook), referenced by every
  // DpuStaticLayout.
  std::vector<std::int8_t> codebook_q_;
  std::vector<float> codebook_scales_;
  std::vector<float> codebook_prescaled_;

  // Cluster encodings, shared across replicas.
  std::vector<CaeClusterEncoding> encodings_;
  double build_length_reduction_ = 0;

  // Streaming-update bookkeeping: per-cluster list state the MRAM images /
  // encodings were built from, and byte totals for incrementality checks.
  std::vector<std::uint32_t> loaded_gen_;
  std::vector<std::uint32_t> enc_compact_;
  std::uint64_t loaded_epoch_ = 0;
  std::uint64_t load_image_bytes_ = 0;
  std::uint64_t patch_bytes_total_ = 0;

  KernelMode mode_ = KernelMode::kCae;

  std::unique_ptr<QueryPipeline> pipeline_;
};

}  // namespace upanns::core
