#include "bench_common.hpp"

#include <sstream>
#include <stdexcept>

#include "common/log.hpp"

namespace upanns::bench {

std::string Config::key() const {
  std::ostringstream os;
  os << data::family_name(family) << "/n=" << n << "/C=" << scaled_ivf
     << "/seed=" << seed << "/pp=" << pattern_prob;
  return os.str();
}

namespace {
std::map<std::string, std::unique_ptr<Context>>& cache() {
  static std::map<std::string, std::unique_ptr<Context>> c;
  return c;
}
}  // namespace

void clear_context_cache() { cache().clear(); }

namespace {
// (Re)compute the frequency statistics for the config's nprobe: placement
// quality depends on the history being probed the same way the evaluation
// will probe (paper Sec 4.1: f_i is the *historical* access frequency of
// the live workload).
void refresh_stats(Context& ctx, const Config& cfg) {
  if (ctx.stats_nprobe == cfg.nprobe) return;
  ctx.history = ivf::filter_batch(*ctx.index, ctx.history_workload.queries,
                                  cfg.nprobe);
  ctx.stats = ivf::collect_stats(*ctx.index, ctx.history);
  ctx.stats_nprobe = cfg.nprobe;
}
}  // namespace

Context& context_for(const Config& cfg) {
  auto& c = cache();
  const std::string key = cfg.key();
  auto it = c.find(key);
  if (it != c.end()) {
    refresh_stats(*it->second, cfg);
    return *it->second;
  }

  common::log_info("building context ", key);
  auto ctx = std::make_unique<Context>();
  data::SyntheticSpec spec;
  spec.family = cfg.family;
  spec.n = cfg.n;
  spec.seed = cfg.seed;
  spec.size_sigma = data::family_size_sigma(cfg.family);
  spec.dense_core_frac = data::family_dense_core_frac(cfg.family);
  if (cfg.pattern_prob >= 0) spec.pattern_prob = cfg.pattern_prob;
  ctx->base = data::generate_synthetic(spec);

  ivf::IvfBuildOptions build;
  build.n_clusters = cfg.scaled_ivf;
  build.pq_m = spec.pq_m();
  build.coarse_iters = 8;
  build.pq_iters = 8;
  build.coarse_train_points = std::min<std::size_t>(cfg.n, 40'000);
  build.pq_train_points = std::min<std::size_t>(cfg.n, 30'000);
  build.seed = cfg.seed + 1;
  ctx->index = std::make_unique<ivf::IvfIndex>(
      ivf::IvfIndex::build(ctx->base, build));

  data::WorkloadSpec wspec;
  wspec.n_queries = cfg.n_queries;
  wspec.seed = cfg.seed + 2;
  ctx->workload = data::generate_workload(ctx->base, wspec);

  // History: a separate (earlier) workload drives the frequency estimate so
  // placement never sees the evaluation queries themselves.
  data::WorkloadSpec hspec = wspec;
  hspec.seed = cfg.seed + 3;
  hspec.n_queries = std::max<std::size_t>(1024, 2 * cfg.n_queries);
  ctx->history_workload = data::generate_workload(ctx->base, hspec);

  refresh_stats(*ctx, cfg);

  auto [pos, ok] = c.emplace(key, std::move(ctx));
  (void)ok;
  return *pos->second;
}

baselines::QueryWorkProfile paper_profile(
    const Config& cfg, const baselines::QueryWorkProfile& measured) {
  baselines::QueryWorkProfile p = measured;
  const double f = cfg.data_factor();
  p.total_candidates = static_cast<std::size_t>(
      static_cast<double>(p.total_candidates) * f);
  // Ordinary inverted lists scale with the per-list factor; a near-duplicate
  // clump (DEEP1B-like) is a fixed *fraction* of the dataset — more coarse
  // centroids cannot split identical points, so it stays frac * n at scale.
  const double generic_max = static_cast<double>(p.max_cluster) * f;
  const double clump_max =
      data::family_dense_core_frac(cfg.family) * static_cast<double>(kPaperN);
  p.max_cluster = static_cast<std::size_t>(std::max(generic_max, clump_max));
  p.dataset_n = kPaperN;
  p.n_clusters = cfg.paper_ivf;
  return p;
}

double qps_of(const Config& cfg, const baselines::StageTimes& t) {
  const double total = t.total();
  return total > 0 ? static_cast<double>(cfg.n_queries) / total : 0;
}

core::UpAnnsOptions upanns_options(const Config& cfg) {
  core::UpAnnsOptions o = core::UpAnnsOptions::upanns();
  o.n_dpus = cfg.n_dpus;
  o.nprobe = cfg.nprobe;
  o.k = cfg.k;
  return o;
}

std::unique_ptr<core::AnnsBackend> make_backend(
    core::BackendKind kind, const Config& cfg,
    const core::UpAnnsOptions* override_opts) {
  Context& ctx = context_for(cfg);
  const core::UpAnnsOptions opts =
      override_opts ? *override_opts : upanns_options(cfg);
  return core::make_backend(kind, *ctx.index, ctx.stats, opts);
}

core::SearchReport at_paper_scale(const Config& cfg,
                                  const core::SearchReport& measured) {
  if (measured.pim.has_value()) {
    return measured.at_scale(cfg.data_factor(), cfg.dpu_factor());
  }
  core::SearchReport r = measured;
  if (measured.cpu.has_value()) {
    r.times = baselines::CpuCostModel::stage_times(
        paper_profile(cfg, measured.cpu->profile));
    r.qps = qps_of(cfg, r.times);
    r.qps_per_watt = pim::qps_per_watt(r.qps, pim::Platform::kCpu);
    return r;
  }
  if (measured.gpu.has_value()) {
    const auto profile = paper_profile(cfg, measured.gpu->profile);
    r.gpu->capacity = baselines::GpuModel::capacity(profile);
    r.gpu->oom = !r.gpu->capacity.fits;
    r.times = baselines::GpuModel::stage_times(profile);
    r.qps = r.gpu->oom ? 0 : qps_of(cfg, r.times);
    r.qps_per_watt = pim::qps_per_watt(r.qps, pim::Platform::kGpu);
    return r;
  }
  throw std::invalid_argument(
      "at_paper_scale: report carries no backend extras");
}

core::SearchReport run_system(core::BackendKind kind, const Config& cfg,
                              const core::UpAnnsOptions* override_opts) {
  Context& ctx = context_for(cfg);
  auto backend = make_backend(kind, cfg, override_opts);
  return at_paper_scale(cfg, backend->search(ctx.workload.queries));
}

core::SearchReport run_cpu(const Config& cfg) {
  return run_system(core::BackendKind::kCpuIvfpq, cfg);
}

core::SearchReport run_gpu(const Config& cfg) {
  return run_system(core::BackendKind::kGpuIvfpq, cfg);
}

core::SearchReport run_upanns(const Config& cfg,
                              const core::UpAnnsOptions* override_opts) {
  return run_system(core::BackendKind::kUpAnns, cfg, override_opts);
}

core::SearchReport run_pim_naive(const Config& cfg) {
  return run_system(core::BackendKind::kPimNaive, cfg);
}

}  // namespace upanns::bench
