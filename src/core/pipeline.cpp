// Online half of UpAnnsEngine (see pipeline.hpp). The stage bodies are the
// former UpAnnsEngine::search_with_probes monolith, split so every step is
// named and individually timed; the simulated-time arithmetic is unchanged.
// Below them: the shared batch timeline, the per-engine drift loop, and the
// one batch stream both BatchStream and MultiHostBatchPipeline instantiate.
#include "core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "baselines/cpu_cost_model.hpp"
#include "common/hw_specs.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/multihost.hpp"
#include "obs/span.hpp"
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
  // The Alg-2 workload (records to scan) orders the host dispatch, longest
  // simulation first.
  ctx.launch = pl.system().launch(
      [&](std::size_t d) -> pim::DpuKernel* { return ctx.kernels[d]; },
      pl.options().n_tasklets, ctx.sched.dpu_workload);
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
  std::array<std::uint64_t, pim::DpuRunStats::kStages> launch_stages{};
  for (std::size_t d = 0; d < ndpu; ++d) {
    if (!ctx.kernels[d]) continue;
    const pim::DpuRunStats& st = ctx.launch.dpu_stats[d];
    px.total_instructions += st.instructions;
    px.total_dma_cycles += st.dma_cycles;
    for (std::size_t s = 0; s < launch_stages.size(); ++s) {
      launch_stages[s] += st.stage_cycles[s];
    }
    px.dpu_stage_seconds[d] = {
        pim::DpuCostModel::cycles_to_seconds(st.stage_cycles[kStageLut]),
        pim::DpuCostModel::cycles_to_seconds(st.stage_cycles[kStageDistance]),
        pim::DpuCostModel::cycles_to_seconds(st.stage_cycles[kStageTopk])};
  }
  if (pl.sink().enabled()) {
    pl.sink().count("kernel.cycles.lut_build", launch_stages[kStageLut]);
    pl.sink().count("kernel.cycles.distance", launch_stages[kStageDistance]);
    pl.sink().count("kernel.cycles.topk", launch_stages[kStageTopk]);
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

  // Index every (DPU, query) result list by query, in DPU order: count,
  // prefix-sum, then place.
  ctx.result_begin.assign(nq + 1, 0);
  ctx.max_gather = 0;
  for (std::size_t d = 0; d < ndpu; ++d) {
    if (!ctx.kernels[d]) continue;
    for (const std::uint32_t q : ctx.inputs[d].query_rows) {
      ++ctx.result_begin[q + 1];
    }
  }
  for (std::size_t q = 0; q < nq; ++q) {
    ctx.result_begin[q + 1] += ctx.result_begin[q];
  }
  ctx.result_lists.resize(ctx.result_begin[nq]);
  std::vector<std::size_t> next(ctx.result_begin.begin(),
                                ctx.result_begin.end() - 1);
  for (std::size_t d = 0; d < ndpu; ++d) {
    if (!ctx.kernels[d]) continue;
    const DpuLaunchInput& in = ctx.inputs[d];
    ctx.max_gather = std::max(
        ctx.max_gather, in.query_rows.size() * k * 8);
    const pim::Dpu& dpu = pl.system().dpu(d);
    for (std::size_t i = 0; i < in.query_rows.size(); ++i) {
      ctx.result_lists[next[in.query_rows[i]]++] =
          dpu.mram_data(in.results_off + i * k * 8);
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
  common::TopK top(k);
  double ops = 0;
  for (std::size_t q = 0; q < nq; ++q) {
    top.clear();
    for (std::size_t l = ctx.result_begin[q]; l < ctx.result_begin[q + 1];
         ++l) {
      // Each list is k packed (dist bits, id) slots, ascending, ending early
      // at its first unused slot (both words all ones).
      const std::uint8_t* slots = ctx.result_lists[l];
      common::merge_ascending(
          top, [&](std::size_t j) -> std::optional<std::uint64_t> {
            if (j == k) return std::nullopt;
            std::uint32_t bits, id;
            std::memcpy(&bits, slots + j * 8, sizeof(bits));
            std::memcpy(&id, slots + j * 8 + 4, sizeof(id));
            if (bits == 0xFFFFFFFFu && id == 0xFFFFFFFFu) return std::nullopt;
            return (std::uint64_t{bits} << 32) | id;
          });
    }
    ctx.report.neighbors[q] = top.sorted();
    ops += static_cast<double>(ctx.result_begin[q + 1] - ctx.result_begin[q]) *
           static_cast<double>(k) * 8.0;
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
  if (needs_patch()) patch_dpus();
  return pipeline_->run(queries, nullptr);
}

SearchReport UpAnnsEngine::search_with_probes(
    const data::Dataset& queries,
    const std::vector<std::vector<std::uint32_t>>& probes) {
  if (needs_patch()) patch_dpus();
  return pipeline_->run(queries, &probes);
}

double leading_host_seconds(const SearchReport& report) {
  double seconds = 0;
  for (const StageStep& step : report.trace) {
    if (step.side != StageSide::kHost) break;
    seconds += step.seconds;
  }
  return seconds;
}

template <class Report>
std::vector<PhaseWindows> batch_timeline(const StreamReport<Report>& report) {
  std::vector<PhaseWindows> out;
  out.reserve(report.slots.size());
  const auto close = [&](std::size_t i) {
    PhaseWindows& w = out[i];
    w.done = report.slots[i].post_seconds > 0 ? w.post_end : w.device_end;
  };
  if (!report.overlapped) {
    double t = 0;
    for (std::size_t i = 0; i < report.slots.size(); ++i) {
      const StreamSlot<Report>& slot = report.slots[i];
      PhaseWindows& w = out.emplace_back();
      w.pre_start = t;
      w.pre_end = w.pre_start + slot.pre_seconds;
      w.device_start = w.pre_end;
      w.device_end = w.device_start + slot.device_seconds;
      w.post_start = w.device_end;
      w.post_end = w.post_start + slot.post_seconds;
      t = w.post_end;
      close(i);
    }
    return out;
  }

  // Two resources: the host/coordinator runs pre(0), pre(1), post(0),
  // pre(2), post(1), ... (ready the next batch first, then finish the
  // previous one); the device runs device phases in batch order. device(i)
  // additionally waits for pre(i), post(i) for device(i). With post = 0 this
  // is the one-host recurrence: pre(i+1) starts when device(i) does.
  double coord_free = 0;
  double device_free = 0;
  for (std::size_t i = 0; i < report.slots.size(); ++i) {
    PhaseWindows& w = out.emplace_back();
    w.pre_start = coord_free;
    w.pre_end = w.pre_start + report.slots[i].pre_seconds;
    coord_free = w.pre_end;
    w.device_start = std::max(w.pre_end, device_free);
    w.device_end = w.device_start + report.slots[i].device_seconds;
    device_free = w.device_end;
    if (i >= 1) {
      PhaseWindows& prev = out[i - 1];
      prev.post_start = std::max(coord_free, prev.device_end);
      prev.post_end = prev.post_start + report.slots[i - 1].post_seconds;
      coord_free = prev.post_end;
      close(i - 1);
    }
  }
  if (!out.empty()) {
    PhaseWindows& last = out.back();
    last.post_start = std::max(coord_free, last.device_end);
    last.post_end = last.post_start + report.slots.back().post_seconds;
    close(out.size() - 1);
  }
  return out;
}

DriftLoop::DriftLoop(UpAnnsEngine& engine, AdaptMode mode,
                     AdaptiveOptions options)
    : engine_(engine), mode_(mode), options_(options) {}

DriftLoop::Applied DriftLoop::apply_pending() {
  if (!pending()) return {};
  const double balance_pre = controller_->busy_balance();
  Applied out;
  if (pending_.action == AdaptAction::kRelocate) {
    // Major drift: full Algorithm-1 re-placement over the *resident* cluster
    // set (never-placed and, on a fleet, foreign clusters stay out, so the
    // searchable set — and with it every neighbor list — is unchanged),
    // sized for the profile the controller decided on.
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
    out.seconds = ps.seconds;
    out.bytes = ps.bytes_written;
  } else {
    const UpAnnsEngine::AdaptStats as =
        engine_.apply_copy_adjustments(pending_.adjustments, pending_freqs_);
    out.seconds = as.seconds;
    out.bytes = as.bytes_written;
  }
  out.action = pending_.action;
  out.drift = pending_.drift;

  obs::MetricsSink sink = engine_.metrics();
  if (sink.enabled()) {
    sink.count(std::string("adapt.actions.") +
               adapt_action_name(pending_.action));
    sink.set("adapt.drift", pending_.drift);
    if (busy_fed_) sink.set("adapt.balance_pre", balance_pre);
  }

  // The placement now matches the decided profile: restart drift from it.
  controller_->set_baseline(pending_freqs_);
  pending_ = AdaptReport{};
  pending_freqs_.clear();
  book_balance_post_ = true;
  return out;
}

void DriftLoop::observe(const std::vector<std::vector<std::uint32_t>>& probes,
                        const SearchReport* busy) {
  if (!controller_) {
    controller_ = std::make_unique<AdaptiveController>(
        engine_.index().n_clusters(), options_);
    controller_->set_baseline(engine_.placement_frequencies());
  }
  controller_->observe_batch(probes);
  if (busy != nullptr && busy->pim) {
    busy_fed_ = true;
    controller_->observe_busy(busy->pim->dpu_busy_seconds);
    if (book_balance_post_) {
      // First batch served on the adjusted placement: record the post-action
      // balance next to the pre-action one booked at apply time.
      obs::MetricsSink sink = engine_.metrics();
      if (sink.enabled()) {
        sink.set("adapt.balance_post", busy->pim->balance_ratio);
      }
      book_balance_post_ = false;
    }
  }
}

void DriftLoop::decide() {
  const std::vector<std::size_t> sizes = engine_.index().list_sizes();
  const Placement& placement = engine_.placement();
  std::vector<std::size_t> copies(sizes.size(), 0);
  std::vector<std::size_t> resident_sizes = sizes;
  double total_workload = 0;
  const std::vector<double> freqs = controller_->window_mean();
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    copies[c] = placement.cluster_dpus[c].size();
    // Only clusters with a resident replica participate: adopting a
    // never-placed cluster online would change the searchable set (and in a
    // fleet would steal another host's clusters).
    if (copies[c] == 0) resident_sizes[c] = 0;
    total_workload += static_cast<double>(resident_sizes[c]) * freqs[c];
  }
  const double w_bar =
      total_workload / static_cast<double>(placement.n_dpus());

  AdaptReport rep =
      controller_->recommend(resident_sizes, copies, w_bar,
                             /*allow_relocate=*/mode_ == AdaptMode::kFull);
  if (rep.action == AdaptAction::kNone) return;
  pending_ = std::move(rep);
  pending_freqs_ = freqs;
}

namespace {

// ----- What differs between one host and a fleet --------------------------

using Probes = std::vector<std::vector<std::uint32_t>>;

std::vector<UpAnnsEngine*> hosts_of(UpAnnsEngine& engine) { return {&engine}; }

std::vector<UpAnnsEngine*> hosts_of(MultiHostUpAnns& cluster) {
  std::vector<UpAnnsEngine*> hosts;
  for (std::size_t h = 0; h < cluster.n_hosts(); ++h) {
    if (cluster.host_active(h)) hosts.push_back(&cluster.host_engine(h));
  }
  return hosts;
}

UpAnnsEngine::PatchStats patch(UpAnnsEngine& engine) {
  return engine.patch_dpus();
}

UpAnnsEngine::PatchStats patch(MultiHostUpAnns& cluster) {
  return cluster.patch_hosts();
}

SearchReport search_batch(UpAnnsEngine& engine, const data::Dataset& batch,
                          std::uint64_t batch_id, std::uint64_t first_query_id,
                          Probes* probes_out) {
  return engine.pipeline().run(batch, nullptr, batch_id, first_query_id,
                               probes_out);
}

MultiHostReport search_batch(MultiHostUpAnns& cluster,
                             const data::Dataset& batch, std::uint64_t,
                             std::uint64_t, Probes* probes_out) {
  // One coordinator probe pass, shared by every host's search and, when
  // adapting, by every host's controller (MultiHostUpAnns::search's path).
  Probes probes = ivf::filter_batch(cluster.index(), batch,
                                    cluster.options().per_host.nprobe);
  MultiHostReport report = cluster.search_with_probes(batch, probes);
  if (probes_out != nullptr) *probes_out = std::move(probes);
  return report;
}

/// A report's pre / device / post split and its serial total.
struct Phases {
  double pre, device, post, total;
};

Phases phases_of(const SearchReport& r) {
  const double pre = leading_host_seconds(r);
  const double total = r.times.total();
  return {pre, total - pre, 0.0, total};
}

Phases phases_of(const MultiHostReport& r) {
  return {r.coord_filter_seconds + r.broadcast_seconds, r.slowest_host_seconds,
          r.gather_seconds + r.coord_merge_seconds, r.seconds};
}

/// Only a single host feeds per-DPU busy time to its drift loop.
const SearchReport* busy_of(const SearchReport& r) { return &r; }
const SearchReport* busy_of(const MultiHostReport&) { return nullptr; }

/// Slot metric names: `<prefix>.slot.<phase>_seconds`.
void book_phases(obs::MetricsSink& sink, const BatchSlot& slot) {
  sink.observe("batch_pipeline.slot.host_seconds", slot.pre_seconds);
  sink.observe("batch_pipeline.slot.device_seconds", slot.device_seconds);
}

void book_phases(obs::MetricsSink& sink, const MultiHostBatchSlot& slot) {
  sink.observe("multihost_pipeline.slot.pre_seconds", slot.pre_seconds);
  sink.observe("multihost_pipeline.slot.device_seconds", slot.device_seconds);
  sink.observe("multihost_pipeline.slot.post_seconds", slot.post_seconds);
}

/// Stream-level metrics live under `<prefix>.*`.
const char* metric_prefix(const BatchPipelineReport&) {
  return "batch_pipeline";
}
const char* metric_prefix(const MultiHostPipelineReport&) {
  return "multihost_pipeline";
}

}  // namespace

template <class Target, class Report>
BasicBatchStream<Target, Report>::BasicBatchStream(Target& target,
                                                   BatchPipelineOptions opts)
    : target_(target), opts_(opts) {
  out_.overlapped = opts_.overlap;
  if (opts_.adapt == AdaptMode::kOff) return;
  for (UpAnnsEngine* host : hosts_of(target)) {
    loops_.emplace_back(*host, opts_.adapt, opts_.adaptive);
  }
}

template <class Target, class Report>
auto BasicBatchStream<Target, Report>::run_batch(const data::Dataset& batch)
    -> const Slot& {
  Slot slot;
  if (target_.needs_patch()) {
    const UpAnnsEngine::PatchStats ps = patch(target_);
    slot.patch_seconds = ps.seconds;
    slot.patch_bytes = ps.bytes_written;
  }
  // Mutations land first so an adaptive replica added below is built from
  // fresh encodings; the adaptation itself is a drain point — the previous
  // batch fully finished, the next has not started. Hosts adapt their own
  // MRAM buses concurrently, like they patch: the slot takes the slowest
  // host's seconds, sums the bytes and keeps the most severe action
  // (relocate > adjust-copies) with the largest drift.
  bool adapted = false;
  for (DriftLoop& loop : loops_) {
    const DriftLoop::Applied a = loop.apply_pending();
    if (a.action == AdaptAction::kNone) continue;
    slot.adapt_seconds = std::max(slot.adapt_seconds, a.seconds);
    slot.adapt_bytes += a.bytes;
    if (static_cast<int>(a.action) > static_cast<int>(slot.adapt_action)) {
      slot.adapt_action = a.action;
    }
    slot.adapt_drift = std::max(slot.adapt_drift, a.drift);
    adapted = true;
  }
  if (adapted) observed_since_action_ = 0;

  const bool adapting = !loops_.empty();
  Probes probes;
  slot.report = search_batch(target_, batch, out_.slots.size(),
                             first_query_id_, adapting ? &probes : nullptr);
  first_query_id_ += batch.n;

  // The device phase carries any MRAM patch or adaptation work, so the
  // three phases always reproduce the report total (+ patch + adapt)
  // bit-for-bit; with neither, adding 0.0 keeps read-only runs identical.
  const Phases p = phases_of(slot.report);
  slot.pre_seconds = p.pre;
  slot.device_seconds = p.device + slot.patch_seconds + slot.adapt_seconds;
  slot.post_seconds = p.post;
  out_.n_queries += batch.n;
  out_.serial_seconds += p.total + slot.patch_seconds + slot.adapt_seconds;
  out_.slots.push_back(std::move(slot));
  if (!adapting) return out_.slots.back();

  const SearchReport* busy = busy_of(out_.slots.back().report);
  for (DriftLoop& loop : loops_) loop.observe(probes, busy);
  ++observed_since_action_;
  // No new decisions while any host awaits its drain point, nor within the
  // cooldown after the last action.
  for (const DriftLoop& loop : loops_) {
    if (loop.pending()) return out_.slots.back();
  }
  if (observed_since_action_ < opts_.adaptive.window_batches) {
    return out_.slots.back();
  }
  for (DriftLoop& loop : loops_) loop.decide();
  return out_.slots.back();
}

template <class Target, class Report>
auto BasicBatchStream<Target, Report>::finish() -> RunReport {
  RunReport out = std::move(out_);
  out_ = RunReport{};
  out_.overlapped = opts_.overlap;
  first_query_id_ = 0;

  const std::vector<PhaseWindows> timeline = batch_timeline(out);
  // Serial runs keep the exact serial sum: the timeline re-associates the
  // three phases and can differ from it by a few ulps.
  out.elapsed_seconds = !out.overlapped || timeline.empty()
                            ? out.serial_seconds
                            : timeline.back().post_end;
  out.qps = out.elapsed_seconds > 0
                ? static_cast<double>(out.n_queries) / out.elapsed_seconds
                : 0;

  obs::MetricsSink sink = target_.metrics();
  if (sink.enabled()) {
    const std::string prefix = metric_prefix(out);
    for (std::size_t i = 0; i < out.slots.size(); ++i) {
      const Slot& slot = out.slots[i];
      book_phases(sink, slot);
      // Only written when a patch actually ran, so read-only runs keep a
      // byte-identical metrics report.
      if (slot.patch_seconds > 0) {
        sink.observe(prefix + ".slot.patch_seconds", slot.patch_seconds);
        sink.count(prefix + ".patch_bytes", slot.patch_bytes);
      }
      if (slot.adapt_seconds > 0) {
        sink.observe(prefix + ".slot.adapt_seconds", slot.adapt_seconds);
        sink.count(prefix + ".adapt_bytes", slot.adapt_bytes);
      }
      // Per-query latency under the stream's accounting: submission to
      // batch completion on the same timeline the Perfetto exporter draws,
      // recorded once per query, cumulatively and into the rolling window
      // at the completion time. The serve layer books measured latencies
      // instead (BatchPipelineOptions::book_query_latency).
      if (opts_.book_query_latency) {
        const double latency = timeline[i].done - timeline[i].pre_start;
        const std::uint64_t nq = slot.report.neighbors.size();
        sink.observe_n("query.latency_seconds", latency, nq);
        sink.observe_window("query.latency_seconds", timeline[i].done,
                            latency, nq);
      }
    }
    sink.count(prefix + ".runs");
    sink.set(prefix + ".overlap_saved_seconds",
             out.serial_seconds - out.elapsed_seconds);
    sink.set(prefix + ".qps", out.qps);
  }
  if (target_.spans() != nullptr) obs::append_spans(*target_.spans(), out);
  return out;
}

template <class Target, class Report>
auto BasicBatchStream<Target, Report>::run(
    const std::vector<data::Dataset>& batches, const MutationHook& mutate)
    -> RunReport {
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (mutate) mutate(b);
    run_batch(batches[b]);
  }
  return finish();
}

template std::vector<PhaseWindows> batch_timeline(
    const StreamReport<SearchReport>&);
template std::vector<PhaseWindows> batch_timeline(
    const StreamReport<MultiHostReport>&);
template class BasicBatchStream<UpAnnsEngine, SearchReport>;
template class BasicBatchStream<MultiHostUpAnns, MultiHostReport>;

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
