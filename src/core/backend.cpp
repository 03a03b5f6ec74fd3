// Backend implementations behind the AnnsBackend interface. The CPU and GPU
// backends wrap the functional Faiss-CPU searcher (GPU reuses its neighbors
// — same ADC math — and re-times them with the analytical GPU model); the
// PIM backends wrap UpAnnsEngine.
#include "core/backend.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "baselines/cpu_ivfpq.hpp"
#include "core/engine.hpp"
#include "core/multihost.hpp"
#include "data/ground_truth.hpp"
#include "pim/energy.hpp"

namespace upanns::core {

void AnnsBackend::upsert(std::span<const std::uint32_t>,
                         std::span<const float>) {
  throw std::logic_error(std::string(name()) +
                         ": backend does not support updates");
}

std::size_t AnnsBackend::remove(std::span<const std::uint32_t>) {
  throw std::logic_error(std::string(name()) +
                         ": backend does not support updates");
}

double SearchReport::recall_against(
    const std::vector<std::vector<common::Neighbor>>& exact,
    std::size_t k) const {
  return data::recall_at_k(exact, neighbors, k);
}

SearchReport SearchReport::at_scale(double data_factor,
                                    double dpu_factor) const {
  if (!pim.has_value()) {
    throw std::logic_error("SearchReport::at_scale: report has no PIM extras");
  }
  SearchReport r = *this;
  PimExtras& px = *r.pim;
  // Scale every DPU's stages, then let the slowest *scaled* DPU set the
  // launch-critical path (balance is preserved through the max).
  double best = -1.0;
  PimExtras::DpuStageSeconds crit;
  for (PimExtras::DpuStageSeconds s : pim->dpu_stage_seconds) {
    s.lut *= dpu_factor;
    s.dist *= data_factor * dpu_factor;
    s.topk *= dpu_factor;
    if (s.total() > best) {
      best = s.total();
      crit = s;
    }
  }
  if (best >= 0) {
    r.times.lut_build = crit.lut;
    r.times.distance_calc = crit.dist;
    r.times.topk = crit.topk;
  }
  // Power is drawn by the *target* configuration the extrapolation aims at
  // (dpu_factor = dpus_actual / dpus_target), not the measured DPU count.
  const std::size_t target_dpus =
      dpu_factor > 0
          ? static_cast<std::size_t>(std::llround(
                static_cast<double>(pim->n_dpus) / dpu_factor))
          : pim->n_dpus;
  px.n_dpus = target_dpus;
  const double total = r.times.total();
  r.qps = total > 0 ? static_cast<double>(neighbors.size()) / total : 0;
  r.qps_per_watt = pim::qps_per_watt(r.qps, pim::Platform::kPim, target_dpus);
  return r;
}

namespace {

baselines::SearchParams params_of(const UpAnnsOptions& options) {
  baselines::SearchParams p;
  p.nprobe = options.nprobe;
  p.k = options.k;
  return p;
}

class CpuBackend final : public AnnsBackend {
 public:
  CpuBackend(const ivf::IvfIndex& index, const UpAnnsOptions& options)
      : searcher_(index), params_(params_of(options)) {}
  /// Updatable variant — the parity oracle for streaming-update tests. The
  /// searcher scans the live lists directly, so writes need no extra sync.
  CpuBackend(ivf::IvfIndex& index, const UpAnnsOptions& options)
      : searcher_(index), params_(params_of(options)), mutable_index_(&index) {}

  const char* name() const override { return "Faiss-CPU"; }

  SearchReport search(const data::Dataset& queries) override {
    return wrap(searcher_.search(queries, params_));
  }

  SearchReport search_with_probes(
      const data::Dataset& queries,
      const std::vector<std::vector<std::uint32_t>>& probes) override {
    return wrap(searcher_.search_with_probes(queries, probes, params_));
  }

  bool supports_updates() const override { return mutable_index_ != nullptr; }

  void upsert(std::span<const std::uint32_t> ids,
              std::span<const float> vectors) override {
    if (!mutable_index_) return AnnsBackend::upsert(ids, vectors);
    for (std::uint32_t id : ids) mutable_index_->remove(id);
    mutable_index_->insert(ids, vectors);
  }

  std::size_t remove(std::span<const std::uint32_t> ids) override {
    if (!mutable_index_) return AnnsBackend::remove(ids);
    std::size_t removed = 0;
    for (std::uint32_t id : ids) removed += mutable_index_->remove(id) ? 1 : 0;
    return removed;
  }

 private:
  SearchReport wrap(baselines::CpuSearchResult res) const {
    SearchReport r;
    r.times = res.times;
    r.qps = res.qps();
    r.qps_per_watt = pim::qps_per_watt(r.qps, pim::Platform::kCpu);
    r.cpu.emplace();
    r.cpu->profile = res.profile;
    r.neighbors = std::move(res.neighbors);
    return r;
  }

  baselines::CpuIvfpqSearcher searcher_;
  baselines::SearchParams params_;
  ivf::IvfIndex* mutable_index_ = nullptr;
};

class GpuBackend final : public AnnsBackend {
 public:
  GpuBackend(const ivf::IvfIndex& index, const UpAnnsOptions& options)
      : searcher_(index), params_(params_of(options)) {}

  const char* name() const override { return "Faiss-GPU"; }

  SearchReport search(const data::Dataset& queries) override {
    return wrap(searcher_.search(queries, params_));
  }

  SearchReport search_with_probes(
      const data::Dataset& queries,
      const std::vector<std::vector<std::uint32_t>>& probes) override {
    return wrap(searcher_.search_with_probes(queries, probes, params_));
  }

 private:
  SearchReport wrap(baselines::CpuSearchResult res) const {
    SearchReport r;
    r.times = baselines::GpuModel::stage_times(res.profile);
    r.gpu.emplace();
    r.gpu->capacity = baselines::GpuModel::capacity(res.profile);
    r.gpu->oom = !r.gpu->capacity.fits;
    r.gpu->profile = res.profile;
    const double total = r.times.total();
    r.qps = (r.gpu->oom || total <= 0)
                ? 0
                : static_cast<double>(res.profile.n_queries) / total;
    r.qps_per_watt = pim::qps_per_watt(r.qps, pim::Platform::kGpu);
    r.neighbors = std::move(res.neighbors);
    return r;
  }

  baselines::CpuIvfpqSearcher searcher_;
  baselines::SearchParams params_;
};

}  // namespace

UpAnnsBackend::UpAnnsBackend(const ivf::IvfIndex& index,
                             const ivf::ClusterStats& stats,
                             const UpAnnsOptions& options, const char* label)
    : engine_(std::make_unique<UpAnnsEngine>(index, stats, options)),
      label_(label) {}

UpAnnsBackend::UpAnnsBackend(ivf::IvfIndex& index,
                             const ivf::ClusterStats& stats,
                             const UpAnnsOptions& options, const char* label)
    : engine_(std::make_unique<UpAnnsEngine>(index, stats, options)),
      label_(label) {}

UpAnnsBackend::~UpAnnsBackend() = default;

SearchReport UpAnnsBackend::search(const data::Dataset& queries) {
  return engine_->search(queries);
}

SearchReport UpAnnsBackend::search_with_probes(
    const data::Dataset& queries,
    const std::vector<std::vector<std::uint32_t>>& probes) {
  return engine_->search_with_probes(queries, probes);
}

void UpAnnsBackend::set_metrics(obs::MetricsRegistry* registry) {
  engine_->set_metrics(registry);
}

bool UpAnnsBackend::supports_updates() const { return engine_->updatable(); }

void UpAnnsBackend::upsert(std::span<const std::uint32_t> ids,
                           std::span<const float> vectors) {
  if (!engine_->updatable()) return AnnsBackend::upsert(ids, vectors);
  engine_->upsert(ids, vectors);
}

std::size_t UpAnnsBackend::remove(std::span<const std::uint32_t> ids) {
  if (!engine_->updatable()) return AnnsBackend::remove(ids);
  return engine_->remove(ids);
}

MultiHostBackend::MultiHostBackend(const ivf::IvfIndex& index,
                                   const ivf::ClusterStats& stats,
                                   const MultiHostOptions& options)
    : cluster_(std::make_unique<MultiHostUpAnns>(index, stats, options)) {}

MultiHostBackend::~MultiHostBackend() = default;

namespace {

SearchReport wrap_multihost(MultiHostReport r) {
  SearchReport out;
  // Slowest host's breakdown, with the shared coordinator filter replacing
  // the host's own copy (identical value, charged once) and the network +
  // inter-host merge share in the transfer bucket. The trace carries the
  // coordinator-phase decomposition; both sum to the multi-host seconds.
  std::size_t slowest = 0;
  double slowest_remainder = -1.0;
  for (std::size_t h = 0; h < r.host_slots.size(); ++h) {
    const MultiHostHostSlot& s = r.host_slots[h];
    if (!s.active) continue;
    if (s.host_seconds + s.device_seconds > slowest_remainder) {
      slowest_remainder = s.host_seconds + s.device_seconds;
      slowest = h;
    }
  }
  if (slowest_remainder >= 0) out.times = r.host_times[slowest];
  out.times.cluster_filter +=
      r.coord_filter_seconds -
      (slowest_remainder >= 0
           ? r.host_times[slowest].total() - slowest_remainder
           : 0);
  out.times.transfer += r.network_seconds + r.coord_merge_seconds;
  out.trace = {
      {"cluster-filter", r.coord_filter_seconds, StageSide::kHost},
      {"broadcast", r.broadcast_seconds, StageSide::kHost},
      {"host-search", r.slowest_host_seconds, StageSide::kDevice},
      {"gather", r.gather_seconds, StageSide::kHost},
      {"interhost-merge", r.coord_merge_seconds, StageSide::kHost},
  };
  out.qps = r.qps;
  out.qps_per_watt = 0;  // per-host power is a per-engine notion
  out.neighbors = std::move(r.neighbors);
  return out;
}

}  // namespace

SearchReport MultiHostBackend::search(const data::Dataset& queries) {
  return wrap_multihost(cluster_->search(queries));
}

SearchReport MultiHostBackend::search_with_probes(
    const data::Dataset& queries,
    const std::vector<std::vector<std::uint32_t>>& probes) {
  return wrap_multihost(cluster_->search_with_probes(queries, probes));
}

void MultiHostBackend::set_metrics(obs::MetricsRegistry* registry) {
  cluster_->set_metrics(registry);
}

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kCpuIvfpq: return "Faiss-CPU";
    case BackendKind::kGpuIvfpq: return "Faiss-GPU";
    case BackendKind::kUpAnns: return "UpANNS";
    case BackendKind::kPimNaive: return "PIM-naive";
    case BackendKind::kMultiHost: return "UpANNS-MH";
  }
  return "unknown";
}

std::optional<BackendKind> backend_kind_of(std::string_view name) {
  if (name == "cpu") return BackendKind::kCpuIvfpq;
  if (name == "gpu") return BackendKind::kGpuIvfpq;
  if (name == "upanns") return BackendKind::kUpAnns;
  if (name == "naive" || name == "pim-naive") return BackendKind::kPimNaive;
  if (name == "multihost" || name == "mh") return BackendKind::kMultiHost;
  return std::nullopt;
}

std::unique_ptr<AnnsBackend> make_backend(BackendKind kind,
                                          const ivf::IvfIndex& index,
                                          const ivf::ClusterStats& stats,
                                          const UpAnnsOptions& options) {
  switch (kind) {
    case BackendKind::kCpuIvfpq:
      return std::make_unique<CpuBackend>(index, options);
    case BackendKind::kGpuIvfpq:
      return std::make_unique<GpuBackend>(index, options);
    case BackendKind::kUpAnns:
      return std::make_unique<UpAnnsBackend>(index, stats, options,
                                             backend_name(kind));
    case BackendKind::kPimNaive: {
      // Apply the paper's Sec 5.1 naive toggles on top of the caller's
      // shared sizing knobs (n_dpus, k, nprobe, ...).
      UpAnnsOptions naive = options;
      UpAnnsOptions defaults = UpAnnsOptions::pim_naive();
      naive.opt_placement = defaults.opt_placement;
      naive.opt_scheduling = defaults.opt_scheduling;
      naive.opt_cae = defaults.opt_cae;
      naive.opt_prune_topk = defaults.opt_prune_topk;
      naive.naive_raw_codes = defaults.naive_raw_codes;
      return std::make_unique<UpAnnsBackend>(index, stats, naive,
                                             backend_name(kind));
    }
    case BackendKind::kMultiHost: {
      MultiHostOptions mh;
      mh.per_host = options;
      return std::make_unique<MultiHostBackend>(index, stats, mh);
    }
  }
  throw std::invalid_argument("make_backend: unknown backend kind");
}

std::unique_ptr<AnnsBackend> make_backend(BackendKind kind,
                                          ivf::IvfIndex& index,
                                          const ivf::ClusterStats& stats,
                                          const UpAnnsOptions& options) {
  switch (kind) {
    case BackendKind::kCpuIvfpq:
      return std::make_unique<CpuBackend>(index, options);
    case BackendKind::kUpAnns:
      return std::make_unique<UpAnnsBackend>(index, stats, options,
                                             backend_name(kind));
    case BackendKind::kPimNaive: {
      UpAnnsOptions naive = options;
      UpAnnsOptions defaults = UpAnnsOptions::pim_naive();
      naive.opt_placement = defaults.opt_placement;
      naive.opt_scheduling = defaults.opt_scheduling;
      naive.opt_cae = defaults.opt_cae;
      naive.opt_prune_topk = defaults.opt_prune_topk;
      naive.naive_raw_codes = defaults.naive_raw_codes;
      return std::make_unique<UpAnnsBackend>(index, stats, naive,
                                             backend_name(kind));
    }
    default:
      // GPU model / multi-host have no update path; serve read-only.
      return make_backend(kind, static_cast<const ivf::IvfIndex&>(index),
                          stats, options);
  }
}

std::unique_ptr<AnnsBackend> make_multihost_backend(
    const ivf::IvfIndex& index, const ivf::ClusterStats& stats,
    const MultiHostOptions& options) {
  return std::make_unique<MultiHostBackend>(index, stats, options);
}

}  // namespace upanns::core
