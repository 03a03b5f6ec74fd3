// Shared pieces of the perfbench program: run options, the result record,
// timers, the neighbor digest and the timed set-up path.
//
// Every layer is measured from outside the library: wall-clock timers
// around calls into public functions, plus fields of the public reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/topk.hpp"
#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "ivf/cluster_stats.hpp"
#include "ivf/ivf_index.hpp"

namespace perfbench {

using namespace upanns;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< length of each measured phase
  bool trace = false;   ///< fill the per-layer metrics (separate run)
  bool tiny = false;    ///< self-check sizes: seconds, not minutes
};

/// What one run reports. `end_to_end` and `per_layer` map metric name to
/// value (BENCHMARK.json holds the names and units; run.py attaches the
/// units and rejects a name it does not list); `signature` holds values that
/// must repeat exactly for the same seed and code (simulated numbers,
/// recall, the neighbor digest).
struct Result {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, std::string> signature;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void e2e(const std::string& name, double value) { end_to_end[name] = value; }
  void layer(const std::string& name, double value) { per_layer[name] = value; }
  /// Record a simulated value that must repeat exactly across runs; the
  /// value is kept with all 17 significant digits.
  void sign(const std::string& name, double value);
  /// One correctness check: counts as attempted, and as failed unless `ok`.
  void check(bool ok, const std::string& what);
};

/// 0 for an empty sample.
inline double median(std::vector<double> v) {
  return common::percentile(std::move(v), 0.5);
}

/// FNV-1a over neighbor ids, in query order.
class Digest {
 public:
  void add(const std::vector<std::vector<common::Neighbor>>& lists);
  void add(const std::vector<common::Neighbor>& list);
  std::string hex() const;
  bool operator==(const Digest& o) const { return h_ == o.h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Process high-water resident set, MiB.
double peak_rss_mb();

/// One line of JSON provenance: build stamp, nproc, CPU model, SIMD level
/// and the global pool size.
std::string provenance_json();

/// Wall-clock seconds of each set-up substage.
struct SetupTimes {
  double gen = 0;          ///< data::generate_synthetic + query generation
  double kmeans = 0;       ///< ivf BuildStats
  double assign = 0;
  double residual = 0;
  double pq_train = 0;
  double encode = 0;
  double stats = 0;        ///< history filter + ivf::collect_stats
  double engine = 0;       ///< engine / multi-host cluster construction
  double total = 0;
};

/// Seed of the base vectors and of index training. The base set is fixed,
/// like a real benchmark's base set; --seed drives every query-side input
/// (query streams, placement history, arrival schedule, write stream).
/// Synthetic base sets differ so much from seed to seed (sim_qps spread
/// 752-1218 over five seeds on batch_paper) that no usable bound would
/// hold across them.
constexpr std::uint64_t kDataSeed = 7;

/// Synthetic SIFT-like base set plus its IVF-PQ index.
struct IndexSpec {
  std::size_t n = 0;
  std::size_t clusters = 0;
  std::size_t extra_rows = 0;  ///< generated past n, kept out of the index
};

struct BuiltIndex {
  data::Dataset base;   ///< the n indexed rows (ids 0..n-1)
  data::Dataset extra;  ///< extra_rows more rows from the same distribution
  ivf::IvfIndex index;
};

BuiltIndex build_index(const IndexSpec& spec, SetupTimes& t);

/// Placement input: probe a history query set and collect cluster stats.
ivf::ClusterStats history_stats(const ivf::IvfIndex& index,
                                const data::Dataset& history,
                                std::size_t nprobe, SetupTimes& t);

void report_setup(const std::vector<SetupTimes>& runs, Result& r);

/// Run `make` `reps` times (each a full set-up from scratch), keep the last
/// state, and report setup_s (median total) plus the substage medians.
template <typename State>
std::unique_ptr<State> repeated_setup(
    int reps, Result& r,
    const std::function<std::unique_ptr<State>(SetupTimes&)>& make) {
  std::vector<SetupTimes> runs;
  std::unique_ptr<State> state;
  for (int i = 0; i < reps; ++i) {
    state.reset();  // free the previous copy before building the next
    SetupTimes t;
    const auto t0 = Clock::now();
    state = make(t);
    t.total = seconds_since(t0);
    runs.push_back(t);
  }
  report_setup(runs, r);
  return state;
}

/// Fixed sizes of one workload at full or self-check scale.
inline std::size_t pick(bool tiny, std::size_t full, std::size_t small) {
  return tiny ? small : full;
}

/// Lowest acceptable recall@10: `full` at benchmark size, a loose floor for
/// the self-check's tiny indexes.
inline double recall_floor(const RunOptions& o, double full) {
  return o.tiny ? 0.25 : full;
}

/// Per-batch sums of a single-host report's simulated layers, turned into
/// per-layer metrics and signature entries by `emit`.
struct SimLayers {
  std::size_t batches = 0, queries = 0;
  double stage[6] = {0, 0, 0, 0, 0, 0};  ///< SearchReport::trace, in order
  double lut = 0, distance = 0, topk = 0;
  double balance = 0, schedule_balance = 0;
  double length_reduction = 0;
  std::uint64_t instructions = 0, dma_cycles = 0, scanned = 0;
  std::uint64_t merge_pruned = 0, merge_insertions = 0;
  std::uint64_t push_bytes = 0, gather_bytes = 0;

  void add(const core::SearchReport& rep);
  bool operator==(const SimLayers&) const = default;
  /// Per-layer metrics; `sign` also records them in the signature.
  void emit(Result& r, bool sign) const;
};

/// Names of the six stages, as metric suffixes, in pipeline order.
extern const char* const kStageKeys[6];

/// The six public query stage objects run in order on a QueryPipeline of
/// their own, each timed: the traced runs' host view of one batch.
class StagedPipeline {
 public:
  explicit StagedPipeline(core::UpAnnsEngine& engine) : qp_(engine) {}

  core::SearchReport run(const data::Dataset& batch);
  /// Forget the timings so far (after warm-up batches).
  void reset();
  /// core.*_ms and pim.launch_ms (mean per batch), pim.host_ns_per_instr.
  void emit(Result& r) const;

 private:
  core::QueryPipeline qp_;
  core::ClusterFilterStage filter_;
  core::ScheduleStage schedule_;
  core::PushStage push_;
  core::LaunchStage launch_;
  core::GatherStage gather_;
  core::MergeStage merge_;
  double stage_s_[6] = {0, 0, 0, 0, 0, 0};
  std::uint64_t instructions_ = 0;
  std::size_t batches_ = 0;
};

}  // namespace perfbench
