// Shared harness for the figure-reproduction benches.
//
// Scaling methodology (see DESIGN.md §1 and EXPERIMENTS.md): each bench runs
// the *functional* pipeline on a scaled dataset (10^5-ish points, |C| and
// DPU count scaled by the same factor so clusters-per-DPU matches the paper)
// and then extrapolates the distance-calculation stage linearly to the
// paper's 1B-point / 7-DIMM configuration. LUT construction, top-k merging,
// scheduling and transfers are scale-free (they depend on |Q|, nprobe, m, k)
// and are reported as measured.
//
// Every system runs through the core::AnnsBackend interface: one
// `make_backend` factory, one `run_system` driver, one `core::SearchReport`
// result shape. The per-figure mains only pick configs and print.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "baselines/cpu_cost_model.hpp"
#include "baselines/cpu_ivfpq.hpp"
#include "baselines/gpu_model.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "data/dataset.hpp"
#include "data/ground_truth.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "metrics/report.hpp"

namespace upanns::bench {

inline constexpr std::size_t kPaperN = 1'000'000'000;  ///< 1B points
inline constexpr std::size_t kPaperDpus = 896;         ///< 7 DIMMs
inline constexpr std::size_t kPaperBatch = 1000;

/// A scaled stand-in for one paper configuration.
struct Config {
  data::DatasetFamily family = data::DatasetFamily::kSiftLike;
  std::size_t n = 100'000;         ///< scaled dataset size
  std::size_t paper_ivf = 4096;    ///< |C| as labeled in the paper
  std::size_t scaled_ivf = 512;    ///< |C| actually trained
  std::size_t n_dpus = 128;        ///< DPUs actually simulated
  std::size_t n_queries = 128;     ///< batch actually searched
  std::size_t nprobe = 64;
  std::size_t k = 10;
  std::uint64_t seed = 7;
  /// Override the generator's subvector-pattern probability (drives the CAE
  /// length-reduction rate, Fig 14). Negative = family default.
  double pattern_prob = -1.0;

  /// Per-list work multiplier taking a scaled list to its paper-sized
  /// counterpart: (1B / paper_ivf) / (n / scaled_ivf).
  double data_factor() const {
    return (static_cast<double>(kPaperN) / static_cast<double>(paper_ivf)) /
           (static_cast<double>(n) / static_cast<double>(scaled_ivf));
  }
  /// Distance work per DPU shrinks with more DPUs (Fig 20 linearity).
  double dpu_factor() const {
    return static_cast<double>(n_dpus) / static_cast<double>(kPaperDpus);
  }
  std::string key() const;
};

/// Built artifacts for one (family, n, scaled_ivf) triple; index builds are
/// the expensive part, so benches share them through the cache below.
struct Context {
  data::Dataset base;
  std::unique_ptr<ivf::IvfIndex> index;
  data::QueryWorkload workload;
  data::QueryWorkload history_workload;  ///< drives frequency estimation
  ivf::ClusterStats stats;               ///< for `stats_nprobe`
  std::vector<std::vector<std::uint32_t>> history;
  std::size_t stats_nprobe = 0;
};

/// Build (or fetch from the in-process cache) the context for a config.
Context& context_for(const Config& cfg);

/// Work profile rescaled to the paper's 1B-point configuration.
baselines::QueryWorkProfile paper_profile(const Config& cfg,
                                          const baselines::QueryWorkProfile& measured);

/// QPS helpers (batch = the measured batch size).
double qps_of(const Config& cfg, const baselines::StageTimes& t);

/// Default UpANNS options for a config (shared sizing knobs; `make_backend`
/// derives the PIM-naive variant from the same options).
core::UpAnnsOptions upanns_options(const Config& cfg);

/// Construct a backend for this config on the cached context.
std::unique_ptr<core::AnnsBackend> make_backend(
    core::BackendKind kind, const Config& cfg,
    const core::UpAnnsOptions* override_opts = nullptr);

/// Extrapolate a measured report to the paper scale (1B points, kPaperDpus
/// DPUs for PIM; the analytical cost models re-run on the rescaled profile
/// for CPU/GPU). QPS, QPS/W and stage times are rewritten in place.
core::SearchReport at_paper_scale(const Config& cfg,
                                  const core::SearchReport& measured);

/// Run one system end to end on a config and return at-scale numbers.
core::SearchReport run_system(core::BackendKind kind, const Config& cfg,
                              const core::UpAnnsOptions* override_opts = nullptr);

core::SearchReport run_cpu(const Config& cfg);
core::SearchReport run_gpu(const Config& cfg);
core::SearchReport run_upanns(const Config& cfg,
                              const core::UpAnnsOptions* override_opts = nullptr);
core::SearchReport run_pim_naive(const Config& cfg);

/// Clear the context cache (benches with many families call this to bound
/// memory).
void clear_context_cache();

}  // namespace upanns::bench
