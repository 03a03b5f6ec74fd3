// Figure 20: UpANNS scalability with the number of DPUs. Following the
// paper, QPS is measured at 500-900 DPUs on a 500M-point configuration, a
// linear regression is fitted, and QPS is predicted out to 2560 DPUs
// (20 DIMMs). The Faiss-GPU QPS line and the 1654-DPU point where PIM's
// DIMM power equals the A100's 300 W budget are marked. Expected shape:
// near-linear scaling; prediction at 2560 DPUs ~2.6x the GPU.
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "pim/energy.hpp"

using namespace upanns;
using namespace upanns::bench;

int main() {
  metrics::banner("Figure 20", "Scalability with #DPUs (500M-point scale)");

  const std::size_t paper_dpus[] = {500, 600, 700, 800, 900};
  std::vector<double> xs;
  std::vector<double> measured;

  Config cfg;
  cfg.family = data::DatasetFamily::kSiftLike;
  cfg.n = 200'000;
  cfg.scaled_ivf = 256;
  cfg.paper_ivf = 4096;
  cfg.n_queries = 192;
  cfg.nprobe = 64;

  metrics::Table table({"DPUs", "QPS", "kind"});
  for (const std::size_t target : paper_dpus) {
    // Simulate a proportionally scaled system (1/8 the DPUs) and extrapolate
    // per-DPU work to the target count, as everywhere else in the harness.
    cfg.n_dpus = target / 8;
    Context& ctx = context_for(cfg);
    auto backend = make_backend(core::BackendKind::kUpAnns, cfg);
    const auto report = backend->search(ctx.workload.queries);
    // 500M-point scale: per-list factor relative to the scaled run.
    const double data_factor =
        (5e8 / static_cast<double>(cfg.paper_ivf)) /
        (static_cast<double>(cfg.n) / static_cast<double>(cfg.scaled_ivf));
    const double dpu_factor = static_cast<double>(cfg.n_dpus) /
                              static_cast<double>(target);
    const auto at_scale = report.at_scale(data_factor, dpu_factor);
    xs.push_back(static_cast<double>(target));
    measured.push_back(at_scale.qps);
    table.add_row({std::to_string(target),
                   metrics::Table::fmt(at_scale.qps, 1), "measured"});
  }

  const common::LinearFit fit = common::fit_linear(xs, measured);
  for (const std::size_t d : {1024u, 1280u, 1536u, 1654u, 2048u, 2560u}) {
    table.add_row({std::to_string(d),
                   metrics::Table::fmt(fit.predict(static_cast<double>(d)), 1),
                   d == 1654 ? "predicted (GPU power parity)" : "predicted"});
  }
  table.print();

  // GPU reference at the same 500M scale.
  cfg.n_dpus = 64;
  Context& ctx = context_for(cfg);
  auto gpu_backend = make_backend(core::BackendKind::kGpuIvfpq, cfg);
  const auto gpu_report = gpu_backend->search(ctx.workload.queries);
  auto profile = gpu_report.gpu->profile;
  {
    const double f = (5e8 / static_cast<double>(cfg.paper_ivf)) /
                     (static_cast<double>(cfg.n) /
                      static_cast<double>(cfg.scaled_ivf));
    profile.total_candidates = static_cast<std::size_t>(
        static_cast<double>(profile.total_candidates) * f);
    profile.dataset_n = 500'000'000;
    profile.n_clusters = cfg.paper_ivf;
  }
  const double gpu_qps =
      static_cast<double>(cfg.n_queries) /
      baselines::GpuModel::stage_times(profile).total();

  std::printf("\nregression fit R^2 = %.4f (paper: near-perfect linear fit)\n",
              fit.r2);
  std::printf("Faiss-GPU QPS at this scale: %.1f\n", gpu_qps);
  std::printf("UpANNS @ 1654 DPUs (GPU power parity, 300W): %.1f QPS "
              "(%.2fx GPU)\n",
              fit.predict(1654), fit.predict(1654) / gpu_qps);
  std::printf("UpANNS @ 2560 DPUs (20 DIMMs, $8000): %.1f QPS (%.2fx GPU)\n",
              fit.predict(2560), fit.predict(2560) / gpu_qps);
  return 0;
}
