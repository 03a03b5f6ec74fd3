// Online half of UpAnnsEngine (see pipeline.hpp). The stage bodies are the
// former UpAnnsEngine::search_with_probes monolith, split so every step is
// named and individually timed; the simulated-time arithmetic is unchanged.
#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "baselines/cpu_cost_model.hpp"
#include "common/hw_specs.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "pim/transfer.hpp"

namespace upanns::core {

// --- Host stage (a): cluster filtering, charged on the CPU roofline.
double ClusterFilterStage::run(QueryPipeline& pl, BatchContext& ctx) {
  const data::Dataset& queries = *ctx.queries;
  if (ctx.probes == nullptr) {
    ctx.owned_probes =
        ivf::filter_batch(pl.index(), queries, pl.options().nprobe);
    ctx.probes = &ctx.owned_probes;
  }
  baselines::QueryWorkProfile p;
  p.n_queries = queries.n;
  p.n_clusters = pl.index().n_clusters();
  p.dim = pl.index().dim();
  p.m = pl.index().pq_m();
  p.k = pl.options().k;
  const double seconds = baselines::CpuCostModel::stage_times(p).cluster_filter;
  ctx.report.times.cluster_filter += seconds;
  return seconds;
}

// --- Scheduling (Algorithm 2), also host-side; O(|Q| * nprobe).
double ScheduleStage::run(QueryPipeline& pl, BatchContext& ctx) {
  const std::vector<std::size_t> sizes = pl.index().list_sizes();
  ctx.sched =
      pl.options().opt_scheduling
          ? schedule_queries(*ctx.probes, pl.placement(), sizes, pl.sink())
          : schedule_naive(*ctx.probes, pl.placement(), sizes, pl.sink());
  const double seconds =
      static_cast<double>(ctx.sched.total_assignments()) * 16.0 / hw::kCpuFlops;
  ctx.report.times.cluster_filter += seconds;
  return seconds;
}

// --- Per-DPU launch inputs (unique query tables + assignment lists), then
// the push transfer: UpANNS pads per-DPU buffers to a uniform size so the
// transfer runs concurrently (Sec 2.2); PIM-naive pays the serialized path.
double PushStage::run(QueryPipeline& pl, BatchContext& ctx) {
  const data::Dataset& queries = *ctx.queries;
  const std::size_t nq = queries.n;
  const std::size_t dim = pl.index().dim();
  const std::size_t k = pl.options().k;
  const std::size_t ndpu = pl.options().n_dpus;

  ctx.inputs.assign(ndpu, DpuLaunchInput{});
  ctx.push_bytes.assign(ndpu, 0);
  const std::size_t read_bytes_cfg =
      pl.options().mram_read_vectors == 0
          ? 0
          : pl.options().mram_read_vectors *
                (pl.mode() == KernelMode::kNaiveRaw
                     ? pl.index().pq_m()
                     : (pl.index().pq_m() + 1) * sizeof(std::uint16_t));

  common::ThreadPool::global().parallel_for(
      0, ndpu,
      [&](std::size_t d) {
        const auto& assigns = ctx.sched.per_dpu[d];
        if (assigns.empty()) return;
        DpuLaunchInput& in = ctx.inputs[d];
        in.k = k;
        in.mram_read_bytes = read_bytes_cfg;

        std::vector<std::int32_t> local_of(nq, -1);
        std::vector<std::uint32_t>& uniq = in.query_rows;
        for (const Assignment& a : assigns) {
          if (local_of[a.query] < 0) {
            local_of[a.query] = static_cast<std::int32_t>(uniq.size());
            uniq.push_back(a.query);
          }
          in.items.push_back(
              {static_cast<std::uint32_t>(local_of[a.query]),
               static_cast<std::uint32_t>(
                   pl.per_dpu(d).cluster_slot[a.cluster])});
        }

        // Scratch MRAM: query table + result slots (rewound every batch).
        pim::Dpu& dpu = pl.system().dpu(d);
        dpu.mram_rewind(pl.per_dpu(d).static_mark);
        in.queries_off =
            dpu.mram_alloc(uniq.size() * dim * sizeof(float), "batch-queries");
        for (std::size_t i = 0; i < uniq.size(); ++i) {
          dpu.host_write(in.queries_off + i * dim * sizeof(float),
                         queries.row(uniq[i]), dim * sizeof(float));
        }
        in.results_off = dpu.mram_alloc(uniq.size() * k * 8, "batch-results");

        ctx.push_bytes[d] =
            uniq.size() * dim * sizeof(float) + in.items.size() * 4;
      },
      1);

  std::size_t max_bytes = 0;
  for (std::size_t b : ctx.push_bytes) max_bytes = std::max(max_bytes, b);
  pim::TransferStats ts;
  if (pl.options().opt_scheduling) {
    ts = pim::TransferEngine::uniform(ndpu, max_bytes);
  } else {
    ts = pim::TransferEngine::batch(ctx.push_bytes);
  }
  ctx.report.times.transfer += ts.seconds;
  ctx.report.pim->bytes_pushed = ts.bytes;
  ctx.report.pim->push_parallel = ts.parallel;
  pim::TransferEngine::record(pl.sink(), "push", ts);
  return ts.seconds;
}

// --- Launch: one kernel over all DPUs; the slowest DPU sets the critical
// path, plus the fixed host launch latency.
double LaunchStage::run(QueryPipeline& pl, BatchContext& ctx) {
  const std::size_t ndpu = pl.options().n_dpus;
  PimExtras& px = *ctx.report.pim;

  ctx.kernels.assign(ndpu, nullptr);
  for (std::size_t d = 0; d < ndpu; ++d) {
    if (!ctx.inputs[d].items.empty()) {
      ctx.kernels[d] = pl.acquire_kernel(d, ctx.inputs[d]);
    }
  }
  ctx.launch = pl.system().launch(
      [&](std::size_t d) -> pim::DpuKernel* { return ctx.kernels[d]; },
      pl.options().n_tasklets);
  px.dpu_busy_seconds = ctx.launch.dpu_seconds;
  {
    // Every DPU that holds data participates in the ratio: a placement that
    // starves half the fleet must read as imbalanced, so zero-busy DPUs
    // count as long as they have at least one resident cluster (dropping
    // them made max-over-mean report ~1.0 for arbitrarily skewed batches).
    // Truly empty DPUs (no clusters placed) stay excluded — they can never
    // receive work.
    std::vector<double> busy;
    for (std::size_t d = 0; d < ndpu; ++d) {
      if (ctx.launch.dpu_seconds[d] > 0 ||
          !pl.placement().dpu_clusters[d].empty()) {
        busy.push_back(ctx.launch.dpu_seconds[d]);
      }
    }
    px.balance_ratio = common::max_over_mean(busy);
  }
  {
    std::vector<double> loads;
    for (std::size_t d = 0; d < ndpu; ++d) {
      if (!ctx.sched.per_dpu[d].empty()) {
        loads.push_back(ctx.sched.dpu_workload[d]);
      }
    }
    px.schedule_balance = common::max_over_mean(loads);
  }
  ctx.report.times.transfer += hw::kHostLaunchLatency;
  if (pl.sink().enabled()) {
    pl.sink().set("pim.balance_ratio", px.balance_ratio);
    pl.sink().set("pim.schedule_balance", px.schedule_balance);
  }

  // Per-DPU stage attribution; the slowest DPU sets the launch-critical
  // breakdown (at-scale extrapolation re-derives the max after scaling).
  px.dpu_stage_seconds.assign(ndpu, PimExtras::DpuStageSeconds{});
  for (std::size_t d = 0; d < ndpu; ++d) {
    if (!ctx.kernels[d]) continue;
    px.total_instructions += ctx.launch.dpu_stats[d].instructions;
    px.total_dma_cycles += ctx.launch.dpu_stats[d].dma_cycles;
    const KernelStageCycles stages =
        ctx.kernels[d]->attribute_stages(ctx.launch.dpu_stats[d].phase_cycles);
    px.dpu_stage_seconds[d] = {
        pim::DpuCostModel::cycles_to_seconds(stages.lut_build),
        pim::DpuCostModel::cycles_to_seconds(stages.distance),
        pim::DpuCostModel::cycles_to_seconds(stages.topk)};
  }
  double crit_seconds = 0;
  if (ctx.kernels[ctx.launch.slowest_dpu]) {
    const auto& crit = px.dpu_stage_seconds[ctx.launch.slowest_dpu];
    ctx.report.times.lut_build = crit.lut;
    ctx.report.times.distance_calc = crit.dist;
    ctx.report.times.topk = crit.topk;
    crit_seconds = crit.total();
  }
  return crit_seconds + hw::kHostLaunchLatency;
}

// --- Gather: read each DPU's per-query top-k slots back to the host (a
// second uniform-size transfer) and collect kernel-side statistics.
double GatherStage::run(QueryPipeline& pl, BatchContext& ctx) {
  const std::size_t nq = ctx.queries->n;
  const std::size_t k = pl.options().k;
  const std::size_t ndpu = pl.options().n_dpus;
  PimExtras& px = *ctx.report.pim;

  ctx.per_query_lists.assign(nq, {});
  ctx.max_gather = 0;
  std::vector<std::uint32_t> packed(2 * k);
  for (std::size_t d = 0; d < ndpu; ++d) {
    if (!ctx.kernels[d]) continue;
    const DpuLaunchInput& in = ctx.inputs[d];
    ctx.max_gather = std::max(
        ctx.max_gather, in.query_rows.size() * k * 8);
    for (std::size_t i = 0; i < in.query_rows.size(); ++i) {
      pl.system().dpu(d).host_read(in.results_off + i * k * 8, packed.data(),
                                   k * 8);
      std::vector<common::Neighbor> list;
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint32_t bits = packed[2 * j];
        const std::uint32_t id = packed[2 * j + 1];
        if (bits == 0xFFFFFFFFu && id == 0xFFFFFFFFu) break;  // unused slot
        float dist;
        std::memcpy(&dist, &bits, sizeof(dist));
        list.push_back({dist, id});
      }
      ctx.per_query_lists[in.query_rows[i]].push_back(std::move(list));
    }
    px.merge_insertions += ctx.kernels[d]->merge_insertions();
    px.merge_pruned += ctx.kernels[d]->merge_pruned();
    px.scanned_records += ctx.kernels[d]->scanned_records();
    if (ctx.kernels[d]->scanned_records() > 0) {
      px.length_reduction +=
          (1.0 - static_cast<double>(ctx.kernels[d]->scanned_elements()) /
                     (static_cast<double>(ctx.kernels[d]->scanned_records()) *
                      static_cast<double>(pl.index().pq_m()))) *
          static_cast<double>(ctx.kernels[d]->scanned_records());
    }
  }
  if (px.scanned_records > 0) {
    px.length_reduction /= static_cast<double>(px.scanned_records);
  }

  const pim::TransferStats ts =
      pim::TransferEngine::uniform(ndpu, ctx.max_gather);
  ctx.report.times.transfer += ts.seconds;
  px.bytes_gathered = ts.bytes;
  pim::TransferEngine::record(pl.sink(), "gather", ts);
  if (pl.sink().enabled()) {
    pl.sink().count("kernel.merge_insertions", px.merge_insertions);
    pl.sink().count("kernel.merge_pruned", px.merge_pruned);
    pl.sink().count("kernel.scanned_records", px.scanned_records);
  }
  return ts.seconds;
}

// --- Final host merge: ~(lists * k) heap ops per query. Charged to the
// transfer/host bucket so the DPU top-k stage stays scale-attributable.
double MergeStage::run(QueryPipeline& pl, BatchContext& ctx) {
  const std::size_t nq = ctx.queries->n;
  const std::size_t k = pl.options().k;

  ctx.report.neighbors.resize(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    ctx.report.neighbors[q] =
        common::merge_sorted_topk(ctx.per_query_lists[q], k);
  }
  double ops = 0;
  for (const auto& lists : ctx.per_query_lists) {
    ops += static_cast<double>(lists.size()) * static_cast<double>(k) * 8.0;
  }
  const double seconds = ops / hw::kCpuFlops;
  ctx.report.times.transfer += seconds;
  return seconds;
}

QueryKernel* QueryPipeline::acquire_kernel(std::size_t d,
                                           const DpuLaunchInput& input) {
  if (kernel_pool_.size() != options().n_dpus) {
    kernel_pool_.resize(options().n_dpus);
  }
  std::unique_ptr<QueryKernel>& slot = kernel_pool_[d];
  if (!slot) {
    slot = std::make_unique<QueryKernel>(per_dpu(d).layout, input, mode(),
                                         options().opt_prune_topk);
  } else {
    slot->rebind(input);
  }
  return slot.get();
}

QueryPipeline::QueryPipeline(UpAnnsEngine& engine) : engine_(engine) {
  stages_.push_back(std::make_unique<ClusterFilterStage>());
  stages_.push_back(std::make_unique<ScheduleStage>());
  stages_.push_back(std::make_unique<PushStage>());
  stages_.push_back(std::make_unique<LaunchStage>());
  stages_.push_back(std::make_unique<GatherStage>());
  stages_.push_back(std::make_unique<MergeStage>());
}

SearchReport QueryPipeline::run(
    const data::Dataset& queries,
    const std::vector<std::vector<std::uint32_t>>* probes,
    std::uint64_t batch_id, std::uint64_t first_query_id,
    std::vector<std::vector<std::uint32_t>>* probes_out) {
  BatchContext ctx;
  ctx.queries = &queries;
  ctx.probes = probes;
  ctx.report.pim.emplace();

  obs::MetricsSink s = sink();
  for (const auto& stage : stages_) {
    const double seconds = stage->run(*this, ctx);
    ctx.report.trace.push_back({stage->name(), seconds, stage->side()});
    if (s.enabled()) {
      s.observe(std::string("pipeline.stage.") + stage->name() + ".seconds",
                seconds);
    }
  }
  if (s.enabled()) {
    s.count("pipeline.batches");
    s.count("pipeline.queries", queries.n);
    s.observe("pipeline.batch.seconds", ctx.report.times.total());
  }

  // Per-query cost attribution for the span assembler — only when a span
  // log is attached, so detached runs skip the capture entirely (the field
  // is never serialized, keeping reports byte-identical either way).
  if (spans() != nullptr) {
    QueryCosts qc;
    qc.batch_id = batch_id;
    qc.first_query_id = first_query_id;
    std::vector<double> weight(queries.n, 0.0);
    const std::vector<std::size_t> sizes = index().list_sizes();
    double total = 0;
    for (const auto& assigns : ctx.sched.per_dpu) {
      for (const Assignment& a : assigns) {
        // One unit per assignment plus the scanned list length — the same
        // work measure Alg-2 balances on.
        const double v = 1.0 + static_cast<double>(sizes[a.cluster]);
        weight[a.query] += v;
        total += v;
      }
    }
    if (total > 0) {
      for (double& v : weight) v /= total;
    } else if (queries.n > 0) {
      std::fill(weight.begin(), weight.end(),
                1.0 / static_cast<double>(queries.n));
    }
    qc.device_weight = std::move(weight);
    ctx.report.query_costs = std::move(qc);
  }

  // Hand the probe lists to the caller (adaptive drift loop) after every
  // stage consumed them; moving the filter-owned vector changes nothing the
  // stages produced, so captured and uncaptured runs stay bit-identical.
  if (probes_out != nullptr) {
    if (ctx.probes == &ctx.owned_probes) {
      *probes_out = std::move(ctx.owned_probes);
    } else {
      *probes_out = *ctx.probes;
    }
  }

  ctx.report.pim->n_dpus = options().n_dpus;
  const double total = ctx.report.times.total();
  ctx.report.qps =
      total > 0 ? static_cast<double>(queries.n) / total : 0;
  ctx.report.qps_per_watt = pim::qps_per_watt(
      ctx.report.qps, pim::Platform::kPim, options().n_dpus);
  return ctx.report;
}

SearchReport UpAnnsEngine::search(const data::Dataset& queries) {
  return QueryPipeline(*this).run(queries, nullptr);
}

SearchReport UpAnnsEngine::search_with_probes(
    const data::Dataset& queries,
    const std::vector<std::vector<std::uint32_t>>& probes) {
  return QueryPipeline(*this).run(queries, &probes);
}

double leading_host_seconds(const SearchReport& report) {
  double seconds = 0;
  for (const StageStep& step : report.trace) {
    if (step.side != StageSide::kHost) break;
    seconds += step.seconds;
  }
  return seconds;
}

BatchStream::BatchStream(UpAnnsEngine& engine, BatchPipelineOptions opts)
    : engine_(engine), opts_(opts), pipeline_(engine) {
  out_.overlapped = opts_.overlap;
}

const BatchSlot& BatchStream::run_batch(const data::Dataset& batch) {
  BatchSlot slot;
  if (engine_.updatable() && engine_.needs_patch()) {
    const UpAnnsEngine::PatchStats ps = engine_.patch_dpus();
    slot.patch_seconds = ps.seconds;
    slot.patch_bytes = ps.bytes_written;
  }
  // Mutations land first so an adaptive replica added below is built from
  // fresh encodings; the adaptation itself is a drain point — the previous
  // batch fully finished, the next has not started.
  const bool adapting = opts_.adapt != AdaptMode::kOff;
  if (adapting) apply_pending_adaptation(slot);

  std::vector<std::vector<std::uint32_t>> probes;
  slot.report = pipeline_.run(batch, nullptr, out_.slots.size(),
                              first_query_id_, adapting ? &probes : nullptr);
  first_query_id_ += batch.n;

  // Host prefix = the leading kHost trace entries (filter + schedule);
  // the device phase is the exact remainder of the batch total plus any
  // MRAM patch or adaptation work, so host + device always reproduces
  // times.total() (+ patch + adapt) bit-for-bit. With no mutations pending
  // and no controller action both extras are 0 and the accounting matches
  // the read-only overload exactly.
  slot.host_seconds = leading_host_seconds(slot.report);
  slot.device_seconds = slot.report.times.total() - slot.host_seconds +
                        slot.patch_seconds + slot.adapt_seconds;

  out_.n_queries += batch.n;
  out_.serial_seconds +=
      slot.report.times.total() + slot.patch_seconds + slot.adapt_seconds;
  out_.slots.push_back(std::move(slot));
  if (adapting) observe_and_decide(probes, out_.slots.back());
  return out_.slots.back();
}

void BatchStream::apply_pending_adaptation(BatchSlot& slot) {
  if (pending_.action == AdaptAction::kNone) return;
  const double balance_pre = adapt_ ? adapt_->busy_balance() : 0.0;

  if (pending_.action == AdaptAction::kRelocate) {
    // Major drift: full Algorithm-1 re-placement over the *resident* cluster
    // set (never-placed clusters stay out, so the searchable set — and with
    // it every neighbor list — is unchanged), sized for the profile the
    // controller decided on.
    ivf::ClusterStats stats;
    stats.sizes = engine_.index().list_sizes();
    stats.frequencies = pending_freqs_;
    for (std::size_t c = 0; c < stats.sizes.size(); ++c) {
      if (engine_.placement().cluster_dpus[c].empty()) stats.sizes[c] = 0;
    }
    stats.workloads.resize(stats.sizes.size());
    for (std::size_t c = 0; c < stats.sizes.size(); ++c) {
      stats.workloads[c] =
          static_cast<double>(stats.sizes[c]) * stats.frequencies[c];
    }
    const UpAnnsEngine::PatchStats ps = engine_.relocate(stats);
    pipeline_.reset_kernels();  // pooled kernels referenced the old layouts
    slot.adapt_seconds = ps.seconds;
    slot.adapt_bytes = ps.bytes_written;
  } else {
    const UpAnnsEngine::AdaptStats as =
        engine_.apply_copy_adjustments(pending_.adjustments, pending_freqs_);
    slot.adapt_seconds = as.seconds;
    slot.adapt_bytes = as.bytes_written;
  }
  slot.adapt_action = pending_.action;
  slot.adapt_drift = pending_.drift;

  obs::MetricsSink sink = engine_.metrics();
  if (sink.enabled()) {
    sink.count(std::string("adapt.actions.") +
               adapt_action_name(pending_.action));
    sink.set("adapt.drift", pending_.drift);
    sink.set("adapt.balance_pre", balance_pre);
  }

  // The placement now matches the decided profile: restart drift from it.
  adapt_->set_baseline(pending_freqs_);
  pending_ = AdaptReport{};
  pending_freqs_.clear();
  observed_since_action_ = 0;
  adapt_applied_last_ = true;
}

void BatchStream::observe_and_decide(
    const std::vector<std::vector<std::uint32_t>>& probes,
    const BatchSlot& slot) {
  if (!adapt_) {
    adapt_ = std::make_unique<AdaptiveController>(
        engine_.index().n_clusters(), opts_.adaptive);
    adapt_->set_baseline(engine_.placement_frequencies());
  }
  adapt_->observe_batch(probes);
  if (slot.report.pim) {
    adapt_->observe_busy(slot.report.pim->dpu_busy_seconds);
    if (adapt_applied_last_) {
      // First batch served on the adjusted placement: record the post-action
      // balance next to the pre-action one booked at apply time.
      obs::MetricsSink sink = engine_.metrics();
      if (sink.enabled()) {
        sink.set("adapt.balance_post", slot.report.pim->balance_ratio);
      }
      adapt_applied_last_ = false;
    }
  }
  ++observed_since_action_;

  if (pending_.action != AdaptAction::kNone) return;  // awaiting drain point
  if (observed_since_action_ < opts_.adaptive.window_batches) return;

  const std::vector<std::size_t> sizes = engine_.index().list_sizes();
  const Placement& placement = engine_.placement();
  std::vector<std::size_t> copies(sizes.size(), 0);
  std::vector<std::size_t> resident_sizes = sizes;
  double total_workload = 0;
  const std::vector<double> freqs = adapt_->window_mean();
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    copies[c] = placement.cluster_dpus[c].size();
    // Only clusters with a resident replica participate: adopting a
    // never-placed cluster online would change the searchable set (and in a
    // multi-host shard would steal another host's clusters).
    if (copies[c] == 0) resident_sizes[c] = 0;
    total_workload += static_cast<double>(resident_sizes[c]) * freqs[c];
  }
  const double w_bar =
      total_workload / static_cast<double>(placement.n_dpus());

  AdaptReport rep =
      adapt_->recommend(resident_sizes, copies, w_bar,
                        /*allow_relocate=*/opts_.adapt == AdaptMode::kFull);
  if (rep.action == AdaptAction::kNone) return;
  pending_ = std::move(rep);
  pending_freqs_ = freqs;
}

BatchPipelineReport BatchStream::finish() {
  BatchPipelineReport out = std::move(out_);
  out_ = BatchPipelineReport{};
  out_.overlapped = opts_.overlap;
  first_query_id_ = 0;

  if (!opts_.overlap || out.slots.empty()) {
    out.elapsed_seconds = out.serial_seconds;
  } else {
    // Two-phase software pipeline: while batch i occupies the device, the
    // host prepares batch i+1. elapsed = h_0 + sum max(d_i, h_{i+1}) + d_n.
    out.elapsed_seconds = out.slots.front().host_seconds;
    for (std::size_t i = 0; i + 1 < out.slots.size(); ++i) {
      out.elapsed_seconds += std::max(out.slots[i].device_seconds,
                                      out.slots[i + 1].host_seconds);
    }
    out.elapsed_seconds += out.slots.back().device_seconds;
  }
  out.qps = out.elapsed_seconds > 0
                ? static_cast<double>(out.n_queries) / out.elapsed_seconds
                : 0;

  obs::MetricsSink sink = engine_.metrics();
  if (sink.enabled()) {
    // The same deterministic timeline the Perfetto exporter draws gives
    // every batch a completion time, which is what the rolling windows key
    // on (all time is simulated — there is no wall clock to sample).
    const std::vector<obs::BatchWindows> timeline = obs::pipeline_timeline(out);
    for (std::size_t i = 0; i < out.slots.size(); ++i) {
      const BatchSlot& slot = out.slots[i];
      sink.observe("batch_pipeline.slot.host_seconds", slot.host_seconds);
      sink.observe("batch_pipeline.slot.device_seconds", slot.device_seconds);
      // Only written when a patch actually ran, so read-only runs keep a
      // byte-identical metrics report.
      if (slot.patch_seconds > 0) {
        sink.observe("batch_pipeline.slot.patch_seconds", slot.patch_seconds);
        sink.count("batch_pipeline.patch_bytes", slot.patch_bytes);
      }
      if (slot.adapt_seconds > 0) {
        sink.observe("batch_pipeline.slot.adapt_seconds", slot.adapt_seconds);
        sink.count("batch_pipeline.adapt_bytes", slot.adapt_bytes);
      }
      // Per-query latency under the pipeline's accounting: submission to
      // batch completion, recorded once per query of the batch, both
      // cumulatively and into the rolling window at its completion time.
      // The serve layer books measured latencies instead (see
      // BatchPipelineOptions::book_query_latency).
      if (opts_.book_query_latency) {
        const double latency = timeline[i].device_end - timeline[i].host_start;
        const std::uint64_t nq = slot.report.neighbors.size();
        sink.observe_n("query.latency_seconds", latency, nq);
        sink.observe_window("query.latency_seconds", timeline[i].device_end,
                            latency, nq);
      }
    }
    sink.count("batch_pipeline.runs");
    sink.set("batch_pipeline.overlap_saved_seconds",
             out.serial_seconds - out.elapsed_seconds);
    sink.set("batch_pipeline.qps", out.qps);
  }
  if (engine_.spans() != nullptr) {
    obs::append_pipeline_spans(*engine_.spans(), out);
  }
  return out;
}

BatchPipeline::BatchPipeline(UpAnnsEngine& engine, BatchPipelineOptions opts)
    : engine_(engine), opts_(opts) {}

BatchPipelineReport BatchPipeline::run(
    const std::vector<data::Dataset>& batches) {
  return run(batches, MutationHook{});
}

BatchPipelineReport BatchPipeline::run(
    const std::vector<data::Dataset>& batches, const MutationHook& mutate) {
  BatchStream stream(engine_, opts_);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (mutate) mutate(b);
    stream.run_batch(batches[b]);
  }
  return stream.finish();
}

std::vector<data::Dataset> split_batches(const data::Dataset& queries,
                                         std::size_t batch_size) {
  if (batch_size == 0) throw std::invalid_argument("batch_size == 0");
  std::vector<data::Dataset> out;
  for (std::size_t start = 0; start < queries.n; start += batch_size) {
    const std::size_t n = std::min(batch_size, queries.n - start);
    data::Dataset b;
    b.dim = queries.dim;
    b.n = n;
    b.values.assign(queries.values.begin() + start * queries.dim,
                    queries.values.begin() + (start + n) * queries.dim);
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace upanns::core
