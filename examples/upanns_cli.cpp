// upanns_cli — a small command-line front end over the library, the way a
// downstream user would drive it without writing C++:
//
//   upanns_cli gen    --family sift --n 50000 --out base.fvecs
//   upanns_cli build  --data base.fvecs --clusters 128 --m 16 --out index.bin
//   upanns_cli tune   --index index.bin --data base.fvecs --recall 0.8
//   upanns_cli search --index index.bin --data base.fvecs --nprobe 16
//                     --queries 64 --k 10 --dpus 128 --system upanns
//                     [--metrics-out metrics.json] [--prom-out metrics.prom]
//   upanns_cli serve  --index index.bin --data base.fvecs --queries 512
//                     --batch 64 [--hosts 4] [--no-overlap]
//                     [--adapt[=copies|full] --adapt-window N --shift S]
//                     [--online --target-qps 2000 --deadline-ms 2
//                      --queue-cap 1024 --clients 4]
//                     [--update-rate 0.05 [--compact-ratio 0.3]]
//                     [--trace-out trace.json] [--metrics-out metrics.json]
//                     [--spans-out spans.json] [--prom-out metrics.prom]
//                     [--stats-every N --window-seconds W --window-slots S]
//   upanns_cli stats  --metrics metrics.json [--prom-out metrics.prom]
//                     [--watch --interval-ms 1000 --iterations K]
//
// `search` drives any backend (cpu, gpu, upanns, naive, multihost) through
// the common core::AnnsBackend interface; `serve` streams query batches
// through the double-buffered core::BatchStream — or, with `--hosts N`,
// through the same stream over a multi-host cluster (network modeled via
// --net-gbps / --net-latency-us). `serve --online` runs the real-threaded
// continuous-batching front-end over that stream instead (src/serve/):
// per-client submitter threads offer Poisson traffic at --target-qps,
// batches close at --batch requests or --deadline-ms after the oldest one,
// the bounded queue (--queue-cap) rejects overload, and shutdown drains.
// `--update-rate R` mixes writes into the offline stream (single- or
// multi-host): before each batch, ~R * batch_size mutations are issued —
// half inserts of perturbed base vectors under fresh ids, half removes of
// random live ids — then applied as one incremental MRAM patch instead of a
// full reload; lists whose tombstone share exceeds --compact-ratio are
// compacted along the way. `--adapt` closes the drift loop online or
// offline, on one host or many.
//
// Telemetry outputs: `--trace-out` writes a Chrome/Perfetto trace of the run
// (load at ui.perfetto.dev); `--metrics-out` writes the report plus a
// metrics-registry snapshot (with build provenance) as JSON; `--spans-out`
// writes the per-query span forest (obs/span.hpp); `--prom-out` writes the
// snapshot as Prometheus text exposition. When spans are recorded the
// Perfetto trace nests them as async events. `--stats-every N` replays the
// run's simulated timeline after the fact, printing the rolling-window
// p50/p99/p999 and rate every N batches (`--window-seconds` /
// `--window-slots` shape the window). Existing output files are never
// silently overwritten — pass `--force` to clobber. `stats` renders a
// previously written metrics JSON as a table (and optionally Prometheus
// text); `--watch` re-reads the file periodically, tailing a live run.
//
// Flags accept both `--key value` and `--key=value`; `--log-level
// debug|info|warn|error` (or the UPANNS_LOG environment variable) sets log
// verbosity anywhere. An unknown flag, a flag missing its value, a stray
// token or an unknown --family/--system/--log-level value exits 2 before
// any work.
//
// `gen` writes TEXMEX .fvecs files, so real SIFT/DEEP/SPACEV slices can be
// substituted for the synthetic data at any step.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/simd_dispatch.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/multihost.hpp"
#include "core/pipeline.hpp"
#include "core/tuner.hpp"
#include "data/ground_truth.hpp"
#include "data/io.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "metrics/report.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/provenance.hpp"
#include "obs/report_json.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "serve/executors.hpp"
#include "serve/server.hpp"

using namespace upanns;

namespace {

/// A bad flag value, not a runtime failure: main() maps this to exit code 2
/// (as opposed to 3 for everything else) so scripts can tell the two apart.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The flags one subcommand reads: `values` bind `--key value` or
/// `--key=value`; `switches` (e.g. --no-overlap) stand alone, and one that
/// takes a setting binds it only as `--key=value` (`--adapt=full`).
struct FlagNames {
  std::vector<std::string_view> values;
  std::vector<std::string_view> switches;
};

/// Accepted by every subcommand.
const FlagNames kCommonFlags = {{"log-level", "simd"}, {"force"}};

bool listed(const std::vector<std::string_view>& names, std::string_view key) {
  return std::find(names.begin(), names.end(), key) != names.end();
}

struct Args {
  std::map<std::string, std::string> kv;

  /// Parse argv[from..] against a subcommand's flags. An unknown name, or a
  /// token where a flag belongs, is a usage error: a typo must not run
  /// with defaults.
  static Args parse(int argc, char** argv, int from, const FlagNames& own) {
    Args a;
    for (int i = from; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw UsageError(std::string("unexpected argument ") + argv[i]);
      }
      std::string key(argv[i] + 2);
      std::string value = "1";  // what a switch reads
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        value = key.substr(eq + 1);
        key.resize(eq);
      }
      const bool is_switch =
          listed(own.switches, key) || listed(kCommonFlags.switches, key);
      if (!is_switch && !listed(own.values, key) &&
          !listed(kCommonFlags.values, key)) {
        throw UsageError("unknown flag --" + key);
      }
      if (!is_switch && eq == std::string::npos) {
        if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
          throw UsageError("--" + key + " needs a value");
        }
        value = argv[++i];
      }
      a.kv.insert_or_assign(std::move(key), std::move(value));
    }
    return a;
  }
  bool flag(const std::string& key) const { return kv.count(key) > 0; }
  std::string str(const std::string& key, const std::string& dflt) const {
    const auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  }
};

/// Read a numeric flag and reject garbage, NaN/inf and out-of-range values
/// up front: the whole token must parse, so a mistyped `--deadline-ms abc`
/// (strtod -> 0) must not silently serve with a zero deadline.
double checked_real(const Args& a, const std::string& key, double dflt,
                    bool allow_zero = false) {
  const auto it = a.kv.find(key);
  if (it == a.kv.end()) return dflt;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) ||
      (allow_zero ? v < 0 : !(v > 0))) {
    throw UsageError("--" + key + " must be a finite " +
                     (allow_zero ? "non-negative" : "positive") + " number");
  }
  return v;
}

/// Like checked_real for count-valued flags: the whole token must parse as
/// a base-10 integer >= `min` (strtoull's silent `abc -> 0` must not pick a
/// thread count, nor its wrap of `-3` to a huge one).
std::size_t checked_count(const Args& a, const std::string& key,
                          std::size_t dflt, std::size_t min = 1) {
  const auto it = a.kv.find(key);
  if (it == a.kv.end()) return dflt;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      v < min) {
    throw UsageError("--" + key + " must be an integer >= " +
                     std::to_string(min));
  }
  return static_cast<std::size_t>(v);
}

/// --adapt[=off|copies|full]: bare `--adapt` (a switch, parsed as "1")
/// selects the default online mode, copies. Anything else unknown is a
/// usage error.
core::AdaptMode parse_adapt_flag(const Args& a) {
  if (!a.flag("adapt")) return core::AdaptMode::kOff;
  const std::string text = a.str("adapt", "off");
  if (text == "1") return core::AdaptMode::kCopies;
  core::AdaptMode mode;
  if (!core::parse_adapt_mode(text, &mode)) {
    throw UsageError("--adapt must be off, copies or full");
  }
  return mode;
}

/// --hosts N and the coordinator network model, read once for every serve
/// and search path: N >= 1, a positive finite --net-gbps and a
/// non-negative --net-latency-us.
core::MultiHostOptions fleet_flags(const Args& a,
                                   const core::UpAnnsOptions& per_host,
                                   std::size_t default_hosts) {
  core::MultiHostOptions mh;
  mh.n_hosts = checked_count(a, "hosts", default_hosts);
  mh.per_host = per_host;
  mh.network_bandwidth = checked_real(a, "net-gbps", 25.0) * 1e9 / 8.0;
  mh.network_latency =
      checked_real(a, "net-latency-us", 50.0, /*allow_zero=*/true) * 1e-6;
  return mh;
}

data::DatasetFamily family_of(const std::string& name) {
  if (name == "sift") return data::DatasetFamily::kSiftLike;
  if (name == "deep") return data::DatasetFamily::kDeepLike;
  if (name == "spacev") return data::DatasetFamily::kSpacevLike;
  throw UsageError("unknown --family " + name + " (sift|deep|spacev)");
}

/// Fail fast (before the run burns any time) when an output path would
/// clobber an existing file and --force was not passed. The actual writes
/// go through obs::write_text_file_guarded as a second line of defense.
void guard_outputs(const std::vector<std::string>& paths, bool force) {
  if (force) return;
  for (const auto& p : paths) {
    if (!p.empty() && obs::file_exists(p)) {
      common::log_warn("output file ", p, " already exists");
      throw std::runtime_error("refusing to overwrite existing file " + p +
                               " (pass --force to overwrite)");
    }
  }
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// {"provenance": ..., "<report_key>": ..., "metrics": ...} — the common
/// shape of every CLI metrics artifact; `stats` prints the provenance
/// header's schema and commit above the tables.
void write_metrics_json(const std::string& path, const char* report_key,
                        const std::string& report_json,
                        const obs::MetricsSnapshot& snapshot, bool force) {
  obs::JsonWriter w;
  w.begin_object();
  obs::append_provenance(w);
  w.key(report_key).raw(report_json);
  w.key("metrics").raw(obs::snapshot_json(snapshot));
  w.end_object();
  obs::write_text_file_guarded(path, w.take(), force);
  std::printf("wrote metrics JSON to %s\n", path.c_str());
}

/// One batch's contribution to the post-run rolling-window replay.
struct BatchSample {
  double t_end = 0;    ///< simulated completion time of the batch
  double latency = 0;  ///< per-query latency attributed to the batch
  std::uint64_t nq = 0;
};

/// `--stats-every N`: replay the run's simulated timeline through a fresh
/// rolling window and print the live p50/p99/p999/rate every N batches —
/// the same numbers a scrape of the wired-in window would have shown at
/// those simulated instants.
void replay_window_stats(const obs::WindowOptions& wopts, std::size_t every,
                         const std::vector<BatchSample>& samples) {
  obs::WindowedHistogram win(wopts, obs::Histogram::default_time_bounds());
  std::printf("rolling window stats (width %.1f s, %zu slots), every %zu "
              "batch(es):\n",
              wopts.width_seconds, wopts.slots, every);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    win.observe(samples[i].t_end, samples[i].latency, samples[i].nq);
    if ((i + 1) % every == 0 || i + 1 == samples.size()) {
      std::printf("  t=%10.3f ms  p50=%.4f ms  p99=%.4f ms  p999=%.4f ms  "
                  "rate=%.1f q/s  n=%llu\n",
                  samples[i].t_end * 1e3, win.quantile(0.5) * 1e3,
                  win.quantile(0.99) * 1e3, win.quantile(0.999) * 1e3,
                  win.rate(),
                  static_cast<unsigned long long>(win.count()));
    }
  }
}

/// Mixed read/write stream shared by the single- and multi-host serve
/// paths: before batch b, issue ~rate * batch_size writes (half fresh-id
/// inserts of perturbed base rows, half removes of random live ids) against
/// any target exposing upsert/remove/compact, then compact.
struct UpdateStream {
  const data::Dataset& ds;
  const std::vector<data::Dataset>& batches;
  double rate;
  double compact_ratio;
  common::Rng rng;
  std::vector<std::uint32_t> live;
  std::uint32_t next_id = 0;
  std::size_t n_upserts = 0, n_removes = 0;

  UpdateStream(const data::Dataset& ds, const std::vector<data::Dataset>& b,
               double rate, double compact_ratio, std::size_t seed,
               std::size_t n_points)
      : ds(ds), batches(b), rate(rate), compact_ratio(compact_ratio),
        rng(seed * 7919 + 13), live(n_points) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      live[i] = static_cast<std::uint32_t>(i);
      next_id = std::max(next_id, live[i] + 1);
    }
  }

  template <typename Target>
  void issue(Target& target, std::size_t b) {
    const std::size_t writes = static_cast<std::size_t>(
        rate * static_cast<double>(batches[b].n) + 0.5);
    std::vector<float> vec(ds.dim);
    for (std::size_t w = 0; w < writes; ++w) {
      if (w % 2 == 0 || live.empty()) {
        const float* base = ds.row(rng.below(ds.n));
        for (std::size_t j = 0; j < ds.dim; ++j) {
          vec[j] = base[j] + rng.uniform(-0.05f, 0.05f);
        }
        const std::uint32_t id = next_id++;
        target.upsert({&id, 1}, {vec.data(), vec.size()});
        live.push_back(id);
        ++n_upserts;
      } else {
        const std::size_t pick = rng.below(live.size());
        const std::uint32_t id = live[pick];
        live[pick] = live.back();
        live.pop_back();
        target.remove({&id, 1});
        ++n_removes;
      }
    }
    target.compact(compact_ratio);
  }
};

int cmd_gen(const Args& a) {
  const auto family = family_of(a.str("family", "sift"));
  data::SyntheticSpec spec;
  spec.family = family;
  spec.n = checked_count(a, "n", 50'000);
  spec.seed = checked_count(a, "seed", 7, /*min=*/0);
  spec.size_sigma = data::family_size_sigma(family);
  spec.dense_core_frac = data::family_dense_core_frac(family);
  // Cluster-contiguous storage makes `serve --shift` a real cluster-level
  // drift (see SyntheticSpec::shuffle) — the adaptive-replication demo.
  spec.shuffle = !a.flag("cluster-order");
  const data::Dataset ds = data::generate_synthetic(spec);
  const std::string out = a.str("out", "base.fvecs");
  data::write_fvecs(out, ds);
  std::printf("wrote %zu x %zu-d %s vectors to %s\n", ds.n, ds.dim,
              data::family_name(family), out.c_str());
  return 0;
}

int cmd_build(const Args& a) {
  const data::Dataset ds = data::read_fvecs(a.str("data", "base.fvecs"));
  ivf::IvfBuildOptions opts;
  opts.n_clusters = checked_count(a, "clusters", 128);
  opts.pq_m = checked_count(
      a, "m", ds.dim % 16 == 0 ? 16 : ds.dim % 12 == 0 ? 12 : 20);
  opts.seed = checked_count(a, "seed", 2024, /*min=*/0);
  // --build-threads 1 forces serial training; N > 1 pins a dedicated pool.
  // Output is identical either way (DESIGN.md §13), so this is purely a
  // resource knob.
  opts.n_threads = checked_count(a, "build-threads", 0);

  const std::string trace_out = a.str("trace-out", "");
  const std::string metrics_out = a.str("metrics-out", "");
  const bool force = a.flag("force");
  guard_outputs({trace_out, metrics_out}, force);
  obs::MetricsRegistry registry;
  if (!metrics_out.empty()) opts.metrics = &registry;

  ivf::BuildStats bs;
  const ivf::IvfIndex index = ivf::IvfIndex::build(ds, opts, &bs);
  const std::string out = a.str("out", "index.bin");
  index.save(out);
  std::printf("built IVF%zu,PQ%zu over %zu vectors -> %s\n",
              index.n_clusters(), index.pq_m(), index.n_points(), out.c_str());
  std::printf(
      "  build %.3fs (kmeans %.3f assign %.3f residual %.3f pq_train %.3f "
      "encode %.3f) simd=%s\n",
      bs.total_seconds, bs.kmeans_seconds, bs.assign_seconds,
      bs.residual_seconds, bs.pq_train_seconds, bs.encode_seconds,
      common::simd_level_name(common::simd_active_level()));

  if (!trace_out.empty()) {
    obs::write_text_file_guarded(trace_out,
                                 obs::trace_json(obs::build_trace(bs)), force);
    std::printf("wrote build trace to %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    obs::JsonWriter rw;
    rw.begin_object();
    rw.kv("n_clusters", static_cast<std::uint64_t>(index.n_clusters()));
    rw.kv("pq_m", static_cast<std::uint64_t>(index.pq_m()));
    rw.kv("n_points", static_cast<std::uint64_t>(index.n_points()));
    rw.kv("total_seconds", bs.total_seconds);
    rw.end_object();
    write_metrics_json(metrics_out, "build", rw.take(), registry.snapshot(),
                       force);
  }
  return 0;
}

int cmd_tune(const Args& a) {
  const ivf::IvfIndex index = ivf::IvfIndex::load(a.str("index", "index.bin"));
  const data::Dataset ds = data::read_fvecs(a.str("data", "base.fvecs"));
  data::WorkloadSpec wspec;
  wspec.n_queries = checked_count(a, "queries", 32);
  wspec.seed = checked_count(a, "seed", 99, /*min=*/0);
  const auto wl = data::generate_workload(ds, wspec);
  core::TuneOptions topts;
  topts.target_recall = checked_real(a, "recall", 0.9);
  if (topts.target_recall > 1.0) throw UsageError("--recall must be in (0, 1]");
  topts.k = checked_count(a, "k", 10);
  const auto gt = data::exact_topk(ds, wl.queries, topts.k);
  const auto result = core::tune_nprobe(index, wl.queries, gt, topts);
  metrics::Table table({"nprobe", "recall@" + std::to_string(topts.k)});
  for (const auto& [nprobe, recall] : result.curve) {
    table.add_row({std::to_string(nprobe), metrics::Table::fmt(recall, 3)});
  }
  table.print();
  if (result.target_met) {
    std::printf("target %.2f met at nprobe=%zu (recall %.3f)\n",
                topts.target_recall, result.nprobe, result.recall);
  } else {
    std::printf("target %.2f NOT reachable; best %.3f at nprobe=%zu\n",
                topts.target_recall, result.recall, result.nprobe);
  }
  return result.target_met ? 0 : 2;
}

int cmd_search(const Args& a) {
  const std::string system = a.str("system", "upanns");
  const auto kind = core::backend_kind_of(system);
  if (!kind) {
    throw UsageError("unknown --system " + system +
                     " (cpu|gpu|upanns|naive|multihost)");
  }
  const ivf::IvfIndex index = ivf::IvfIndex::load(a.str("index", "index.bin"));
  const data::Dataset ds = data::read_fvecs(a.str("data", "base.fvecs"));
  data::WorkloadSpec wspec;
  wspec.n_queries = checked_count(a, "queries", 64);
  wspec.seed = checked_count(a, "seed", 5, /*min=*/0);
  const auto wl = data::generate_workload(ds, wspec);

  const std::size_t nprobe = checked_count(a, "nprobe", 16);
  data::WorkloadSpec hist = wspec;
  hist.seed = wspec.seed + 1;
  hist.n_queries = 4 * wspec.n_queries;
  const auto hw_wl = data::generate_workload(ds, hist);
  const auto stats = ivf::collect_stats(
      index, ivf::filter_batch(index, hw_wl.queries, nprobe));

  core::UpAnnsOptions opts = core::UpAnnsOptions::upanns();
  opts.n_dpus = checked_count(a, "dpus", 128);
  opts.n_tasklets = static_cast<unsigned>(checked_count(a, "tasklets", 11));
  opts.nprobe = nprobe;
  opts.k = checked_count(a, "k", 10);

  std::unique_ptr<core::AnnsBackend> backend;
  if (*kind == core::BackendKind::kMultiHost) {
    backend = core::make_multihost_backend(index, stats,
                                           fleet_flags(a, opts, 2));
  } else {
    backend = core::make_backend(*kind, index, stats, opts);
  }
  obs::MetricsRegistry registry;
  const bool force = a.flag("force");
  const std::string metrics_out = a.str("metrics-out", "");
  const std::string prom_out = a.str("prom-out", "");
  guard_outputs({metrics_out, prom_out}, force);
  if (!metrics_out.empty() || !prom_out.empty()) {
    backend->set_metrics(&registry);
  }
  const auto r = backend->search(wl.queries);

  const auto gt = data::exact_topk(ds, wl.queries, opts.k);
  const auto shares = metrics::shares(r.times);
  std::printf("system=%s queries=%zu dpus=%zu tasklets=%u nprobe=%zu k=%zu\n",
              backend->name(), wl.queries.n, opts.n_dpus, opts.n_tasklets,
              nprobe, opts.k);
  std::printf("simulated QPS=%.1f QPS/W=%.2f recall@%zu=%.3f\n", r.qps,
              r.qps_per_watt, opts.k, r.recall_against(gt, opts.k));
  std::printf("stages: LUT %.1f%%, distance %.1f%%, topk %.1f%%, "
              "transfer %.1f%%\n",
              shares.lut_build, shares.distance_calc, shares.topk,
              shares.transfer);
  if (r.pim.has_value()) {
    std::printf("balance %.2f; CAE reduction %.1f%%\n",
                r.pim->schedule_balance, r.pim->length_reduction * 100.0);
    std::printf("stage trace:");
    for (const auto& step : r.trace) {
      std::printf(" %s=%.3fms", step.name, step.seconds * 1e3);
    }
    std::printf("\n");
  }
  if (!metrics_out.empty()) {
    write_metrics_json(metrics_out, "search_report", obs::search_report_json(r),
                       registry.snapshot(), force);
  }
  if (!prom_out.empty()) {
    obs::write_text_file_guarded(prom_out,
                                 obs::prometheus_text(registry.snapshot()),
                                 force);
    std::printf("wrote Prometheus text to %s\n", prom_out.c_str());
  }
  return 0;
}

/// Parsed serve flags and the telemetry sinks behind --metrics-out,
/// --prom-out, --stats-every and --spans-out, shared by the single-host and
/// fleet paths.
struct ServeContext {
  ServeContext(const Args& a, const data::Dataset& ds,
               const data::WorkloadSpec& wspec, const data::Dataset& queries,
               std::size_t n_points)
      : a(a), ds(ds), wspec(wspec), queries(queries), n_points(n_points) {}

  const Args& a;
  const data::Dataset& ds;
  const data::WorkloadSpec& wspec;
  const data::Dataset& queries;
  std::size_t n_points;  ///< indexed points (--update-rate's live ids)
  core::BatchPipelineOptions popts;
  double update_rate = 0;
  bool force = false;
  std::string trace_out, metrics_out, spans_out, prom_out;
  std::size_t stats_every = 0;
  obs::MetricsRegistry registry;
  obs::SpanLog spans;
  bool want_metrics = false;
  bool want_spans = false;
  // --online only.
  double target_qps = 0;
  serve::BatchPolicy policy;
  std::size_t queue_cap = 0;
  std::size_t n_clients = 0;
};

// ----- How a serve run describes one host vs a fleet ----------------------

void print_served(const core::BatchPipelineReport& run, core::UpAnnsEngine&) {
  std::printf("served %zu queries in %zu batches (%s)\n", run.n_queries,
              run.slots.size(), run.overlapped ? "overlapped" : "no-overlap");
  std::printf("simulated elapsed %.3f ms (serial stage sum %.3f ms), "
              "QPS=%.1f\n",
              run.elapsed_seconds * 1e3, run.serial_seconds * 1e3, run.qps);
}

void print_served(const core::MultiHostPipelineReport& run,
                  core::MultiHostUpAnns& cluster) {
  std::printf("served %zu queries in %zu batches on %zu hosts "
              "(%zu active, %s)\n",
              run.n_queries, run.slots.size(), cluster.n_hosts(),
              cluster.n_active_hosts(),
              run.overlapped ? "overlapped" : "no-overlap");
  std::printf("simulated elapsed %.3f ms (synchronous sum %.3f ms), "
              "QPS=%.1f\n",
              run.elapsed_seconds * 1e3, run.serial_seconds * 1e3, run.qps);
}

/// Tail of the patch/adapt summary lines.
std::string summary_scope(core::UpAnnsEngine& engine) {
  return " (full image " + std::to_string(engine.load_image_bytes()) +
         " bytes)";
}
std::string summary_scope(core::MultiHostUpAnns&) {
  return " across the fleet";
}

void print_slot(std::size_t i, const core::BatchSlot& slot) {
  if (slot.patch_seconds > 0) {
    std::printf("  batch %2zu: patch %.4f ms, host %.4f ms, device %.4f ms\n",
                i, slot.patch_seconds * 1e3, slot.pre_seconds * 1e3,
                slot.device_seconds * 1e3);
  } else {
    std::printf("  batch %2zu: host %.4f ms, device %.4f ms\n", i,
                slot.pre_seconds * 1e3, slot.device_seconds * 1e3);
  }
}

void print_slot(std::size_t i, const core::MultiHostBatchSlot& slot) {
  std::printf("  batch %2zu: pre %.4f ms, device %.4f ms, post %.4f ms\n", i,
              slot.pre_seconds * 1e3, slot.device_seconds * 1e3,
              slot.post_seconds * 1e3);
}

obs::PipelineTrace trace_of(const core::BatchPipelineReport& run) {
  return obs::pipeline_trace(run);
}
obs::PipelineTrace trace_of(const core::MultiHostPipelineReport& run) {
  return obs::multihost_trace(run);
}

void write_run_metrics(ServeContext& c, const core::BatchPipelineReport& run) {
  write_metrics_json(c.metrics_out, "batch_pipeline",
                     obs::batch_pipeline_json(run), c.registry.snapshot(),
                     c.force);
}
void write_run_metrics(ServeContext& c,
                       const core::MultiHostPipelineReport& run) {
  write_metrics_json(c.metrics_out, "multihost_pipeline",
                     obs::multi_host_pipeline_json(run), c.registry.snapshot(),
                     c.force);
}

// ----- Shared by both -----------------------------------------------------

/// The patch and adapt summary lines of a run.
template <class Report, class Target>
void print_drain_work(const ServeContext& c,
                      const core::StreamReport<Report>& run, Target& target,
                      const UpdateStream* updates) {
  const std::string scope = summary_scope(target);
  if (updates != nullptr) {
    std::uint64_t patch_bytes = 0;
    double patch_ms = 0;
    for (const auto& slot : run.slots) {
      patch_bytes += slot.patch_bytes;
      patch_ms += slot.patch_seconds * 1e3;
    }
    std::printf("writes: %zu upserts, %zu removes; %llu patch bytes in "
                "%.3f ms%s\n",
                updates->n_upserts, updates->n_removes,
                static_cast<unsigned long long>(patch_bytes), patch_ms,
                scope.c_str());
  }
  if (c.popts.adapt != core::AdaptMode::kOff) {
    std::uint64_t adapt_bytes = 0;
    double adapt_ms = 0;
    std::size_t actions = 0;
    for (const auto& slot : run.slots) {
      adapt_bytes += slot.adapt_bytes;
      adapt_ms += slot.adapt_seconds * 1e3;
      if (slot.adapt_action != core::AdaptAction::kNone) ++actions;
    }
    std::printf("adapt(%s, window %zu): %zu actions, %llu bytes in %.3f ms%s\n",
                core::adapt_mode_name(c.popts.adapt),
                c.popts.adaptive.window_batches, actions,
                static_cast<unsigned long long>(adapt_bytes), adapt_ms,
                scope.c_str());
  }
}

/// --trace-out: the run's simulated timeline, nesting the spans recorded
/// so far.
template <class Report>
void write_run_trace(ServeContext& c, const core::StreamReport<Report>& run) {
  if (c.trace_out.empty()) return;
  obs::write_text_file_guarded(
      c.trace_out,
      obs::trace_json(trace_of(run), c.want_spans ? &c.spans : nullptr),
      c.force);
  std::printf("wrote Perfetto trace to %s (load at ui.perfetto.dev)\n",
              c.trace_out.c_str());
}

/// --spans-out, --metrics-out (`write_metrics` renders the artifact) and
/// --prom-out.
template <class WriteMetrics>
void write_run_exports(ServeContext& c, const WriteMetrics& write_metrics) {
  if (c.want_spans) {
    obs::write_text_file_guarded(c.spans_out, obs::span_log_json(c.spans),
                                 c.force);
    std::printf("wrote %zu spans to %s\n", c.spans.size(), c.spans_out.c_str());
  }
  if (!c.metrics_out.empty()) write_metrics();
  if (!c.prom_out.empty()) {
    obs::write_text_file_guarded(
        c.prom_out, obs::prometheus_text(c.registry.snapshot()), c.force);
    std::printf("wrote Prometheus text to %s\n", c.prom_out.c_str());
  }
}

/// --online: real-threaded continuous batching. Per-client submitter
/// threads push single queries at --target-qps (open-loop Poisson); the
/// server's batcher thread closes each batch at --batch requests or
/// --deadline-ms after its oldest request — whichever first — and executes
/// it through the same batch stream as offline serve, so neighbors are
/// bit-identical to pre-formed batches.
template <class Stream, class Target>
int serve_online(ServeContext& c, Target& target) {
  const serve::BatchPolicy& policy = c.policy;
  const std::size_t n_clients = c.n_clients;
  // Wall-clock request latency is booked by the server below; the stream
  // must not also book its simulated per-query latency.
  core::BatchPipelineOptions popts = c.popts;
  popts.book_query_latency = false;
  Stream stream(target, popts);

  serve::ServeOptions sopts;
  sopts.dim = c.queries.dim;
  sopts.policy = policy;
  sopts.queue_capacity = c.queue_cap;
  sopts.metrics = c.want_metrics ? &c.registry : nullptr;
  serve::Server server(serve::stream_executor(stream), sopts);

  // Each client owns an equal share of the offered rate and pulls the next
  // workload row from a shared counter; rejections (try_submit -> nullopt)
  // are the backpressure signal and are counted by the server.
  std::atomic<std::size_t> next_row{0};
  const double per_client_qps =
      c.target_qps / static_cast<double>(n_clients);
  std::vector<std::thread> clients;
  clients.reserve(n_clients);
  for (std::size_t k = 0; k < n_clients; ++k) {
    clients.emplace_back([&, k] {
      common::Rng rng(c.wspec.seed * 1000003 + k);
      for (;;) {
        const std::size_t i = next_row.fetch_add(1, std::memory_order_relaxed);
        if (i >= c.queries.n) break;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            -std::log1p(-rng.uniform()) / per_client_qps));
        (void)server.try_submit({c.queries.row(i), c.queries.dim});
      }
    });
  }
  for (auto& t : clients) t.join();
  server.drain();

  const serve::ServeStats sstats = server.stats();
  const serve::ServeSummary summary =
      serve::summarize(server.request_log(), server.batch_log(), policy);
  std::printf("online serve: %zu offered, %llu accepted, %llu rejected, "
              "%llu completed, %llu failed (%zu clients)\n",
              c.queries.n, static_cast<unsigned long long>(sstats.accepted),
              static_cast<unsigned long long>(sstats.rejected),
              static_cast<unsigned long long>(sstats.completed),
              static_cast<unsigned long long>(sstats.failed), n_clients);
  std::printf("batches: %llu (%llu full, %llu deadline, %llu drain), "
              "mean fill %.2f\n",
              static_cast<unsigned long long>(sstats.batches),
              static_cast<unsigned long long>(sstats.full_closes),
              static_cast<unsigned long long>(sstats.deadline_closes),
              static_cast<unsigned long long>(sstats.drain_closes),
              summary.mean_batch_fill);
  std::printf("latency: p50 %.3f ms, p99 %.3f ms, mean %.3f ms, max "
              "%.3f ms (mean queue wait %.3f ms)\n",
              summary.p50 * 1e3, summary.p99 * 1e3, summary.mean * 1e3,
              summary.max * 1e3, summary.mean_queue_wait * 1e3);
  std::printf("achieved %.1f qps of %.1f offered\n", summary.achieved_qps,
              c.target_qps);

  // Close the stream first: the Perfetto trace carries the stream's
  // *simulated* timeline, so the wall-clock request spans appended after it
  // go to --spans-out only.
  const auto run = stream.finish();
  print_drain_work(c, run, target, nullptr);
  write_run_trace(c, run);
  if (c.want_spans) serve::append_request_spans(c.spans, server.request_log());
  write_run_exports(c, [&] {
    write_metrics_json(c.metrics_out, "serve_report",
                       serve::serve_report_json(summary, sstats),
                       c.registry.snapshot(), c.force);
  });
  return 0;
}

/// Offline serve: pre-formed batches of --batch queries, optionally mixed
/// with --update-rate writes, through the overlapped batch stream.
template <class Stream, class Target>
int serve_offline(ServeContext& c, Target& target) {
  const Args& a = c.a;
  const auto batches =
      core::split_batches(c.queries, checked_count(a, "batch", 64));
  const double compact_ratio =
      checked_real(a, "compact-ratio", 0.3, /*allow_zero=*/true);
  UpdateStream updates(c.ds, batches, c.update_rate, compact_ratio,
                       checked_count(a, "seed", 5, /*min=*/0), c.n_points);

  core::MutationHook hook;
  if (c.update_rate > 0) {
    hook = [&](std::size_t b) { updates.issue(target, b); };
  }
  Stream stream(target, c.popts);
  const auto run = stream.run(batches, hook);

  print_served(run, target);
  print_drain_work(c, run, target, c.update_rate > 0 ? &updates : nullptr);
  for (std::size_t i = 0; i < run.slots.size(); ++i) {
    print_slot(i, run.slots[i]);
    if (i >= 3 && run.slots.size() > 5) {
      std::printf("  ... (%zu more batches)\n", run.slots.size() - i - 1);
      break;
    }
  }
  write_run_trace(c, run);
  write_run_exports(c, [&] { write_run_metrics(c, run); });
  if (c.stats_every > 0) {
    const std::vector<core::PhaseWindows> timeline = core::batch_timeline(run);
    std::vector<BatchSample> samples(timeline.size());
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      samples[i] = {timeline[i].done,
                    timeline[i].done - timeline[i].pre_start, batches[i].n};
    }
    replay_window_stats(c.registry.window_options(), c.stats_every, samples);
  }
  return 0;
}

template <class Stream, class Target>
int serve_on(ServeContext& c, Target& target) {
  if (c.want_metrics) target.set_metrics(&c.registry);
  if (c.want_spans) target.set_spans(&c.spans);
  return c.a.flag("online") ? serve_online<Stream>(c, target)
                            : serve_offline<Stream>(c, target);
}

int cmd_serve(const Args& a) {
  // Non-const: --update-rate mutates the index between batches.
  ivf::IvfIndex index = ivf::IvfIndex::load(a.str("index", "index.bin"));
  const data::Dataset ds = data::read_fvecs(a.str("data", "base.fvecs"));
  // Drift controls, validated up front so a typo exits 2 before any work.
  const core::AdaptMode adapt = parse_adapt_flag(a);
  const std::size_t adapt_window = checked_count(a, "adapt-window", 16);
  data::WorkloadSpec wspec;
  wspec.n_queries = checked_count(a, "queries", 512);
  wspec.seed = checked_count(a, "seed", 5, /*min=*/0);
  // --shift rotates the Zipf popularity ranking of the *served* queries
  // only; the placement below is still built from unshifted history, so a
  // nonzero shift serves a deterministically drifted workload — the drift
  // controller's natural trigger.
  wspec.popularity_shift = checked_count(a, "shift", 0, /*min=*/0);
  const auto wl = data::generate_workload(ds, wspec);

  const std::size_t nprobe = checked_count(a, "nprobe", 16);
  data::WorkloadSpec hist = wspec;
  hist.seed = wspec.seed + 1;
  hist.popularity_shift = 0;
  const auto hw_wl = data::generate_workload(ds, hist);
  const auto stats = ivf::collect_stats(
      index, ivf::filter_batch(index, hw_wl.queries, nprobe));

  core::UpAnnsOptions opts = core::UpAnnsOptions::upanns();
  opts.n_dpus = checked_count(a, "dpus", 128);
  opts.nprobe = nprobe;
  opts.k = checked_count(a, "k", 10);
  const core::MultiHostOptions mh = fleet_flags(a, opts, 1);

  ServeContext c(a, ds, wspec, wl.queries, index.n_points());
  c.popts.overlap = !a.flag("no-overlap");
  c.popts.adapt = adapt;
  c.popts.adaptive.window_batches = adapt_window;
  c.force = a.flag("force");
  c.trace_out = a.str("trace-out", "");
  c.metrics_out = a.str("metrics-out", "");
  c.spans_out = a.str("spans-out", "");
  c.prom_out = a.str("prom-out", "");
  c.stats_every = checked_count(a, "stats-every", 0, /*min=*/0);
  guard_outputs({c.trace_out, c.metrics_out, c.spans_out, c.prom_out},
                c.force);

  c.registry.set_window_options(
      {checked_real(a, "window-seconds", 10.0),
       checked_count(a, "window-slots", 20)});
  // The registry is attached only when some output actually consumes it —
  // a plain `--trace-out` run stays sink-free and byte-identical to a run
  // with no telemetry flags at all.
  c.want_metrics =
      !c.metrics_out.empty() || !c.prom_out.empty() || c.stats_every > 0;
  c.want_spans = !c.spans_out.empty();

  c.update_rate = checked_real(a, "update-rate", 0.0, /*allow_zero=*/true);
  if (a.flag("online")) {
    if (c.update_rate > 0) {
      throw UsageError("--update-rate is not supported with --online");
    }
    c.target_qps = checked_real(a, "target-qps", 2000.0);
    c.policy.max_batch = checked_count(a, "batch", 64);
    c.policy.deadline_seconds = checked_real(a, "deadline-ms", 2.0) * 1e-3;
    c.queue_cap = checked_count(a, "queue-cap", 1024, /*min=*/0);
    c.n_clients = checked_count(a, "clients", 4);
  }

  // --hosts N > 1: shard across a simulated multi-host cluster and serve
  // through the fleet stream. `index` is a non-const lvalue, so both picks
  // are updatable — identical to read-only serving until a mutation is
  // actually issued.
  if (mh.n_hosts > 1) {
    core::MultiHostUpAnns cluster(index, stats, mh);
    return serve_on<core::MultiHostBatchPipeline>(c, cluster);
  }
  core::UpAnnsEngine engine(index, stats, opts);
  return serve_on<core::BatchStream>(c, engine);
}

/// Render one metrics snapshot (parsed back from a metrics JSON artifact)
/// as stdout tables.
void print_snapshot(const obs::MetricsSnapshot& s) {
  if (!s.counters.empty()) {
    metrics::Table t({"counter", "value"});
    for (const auto& c : s.counters) {
      t.add_row({c.name, std::to_string(c.value)});
    }
    t.print();
  }
  if (!s.gauges.empty()) {
    metrics::Table t({"gauge", "value"});
    for (const auto& g : s.gauges) {
      t.add_row({g.name, metrics::Table::fmt(g.value, 6)});
    }
    t.print();
  }
  if (!s.histograms.empty()) {
    metrics::Table t({"histogram", "count", "mean", "p50", "p90", "p99"});
    for (const auto& h : s.histograms) {
      const double mean =
          h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
      t.add_row({h.name, std::to_string(h.count), metrics::Table::fmt(mean, 6),
                 metrics::Table::fmt(h.p50, 6), metrics::Table::fmt(h.p90, 6),
                 metrics::Table::fmt(h.p99, 6)});
    }
    t.print();
  }
  if (!s.windows.empty()) {
    metrics::Table t(
        {"window", "width_s", "count", "rate", "p50", "p99", "p999"});
    for (const auto& w : s.windows) {
      t.add_row({w.name, metrics::Table::fmt(w.width_seconds, 1),
                 std::to_string(w.count), metrics::Table::fmt(w.rate, 1),
                 metrics::Table::fmt(w.p50, 6), metrics::Table::fmt(w.p99, 6),
                 metrics::Table::fmt(w.p999, 6)});
    }
    t.print();
  }
}

int cmd_stats(const Args& a) {
  const std::string path = a.str("metrics", "");
  if (path.empty()) throw UsageError("stats: --metrics M.json is required");
  const bool force = a.flag("force");
  const bool watch = a.flag("watch");
  const std::string prom_out = a.str("prom-out", "");
  const std::size_t interval_ms =
      checked_count(a, "interval-ms", 1000, /*min=*/0);
  // --watch with no --iterations tails forever (ctrl-C to stop); a bare
  // `stats` prints once.
  const std::size_t iterations =
      checked_count(a, "iterations", watch ? 0 : 1, /*min=*/0);
  guard_outputs({prom_out}, force);

  std::size_t iter = 0;
  for (;;) {
    const obs::JsonValue doc = obs::json_parse(read_text_file(path));
    // Accept either a full CLI artifact ({"provenance", "<report>",
    // "metrics"}) or a bare snapshot document.
    const obs::JsonValue& snap_json =
        doc.has("metrics") ? doc.at("metrics") : doc;
    const obs::MetricsSnapshot snap = obs::snapshot_from_json(snap_json);

    if (iter > 0) std::printf("\n");
    if (doc.has("provenance")) {
      const auto& p = doc.at("provenance");
      std::printf("%s  (schema %s, commit %s, %s build)\n", path.c_str(),
                  p.at("schema_version").string.c_str(),
                  p.at("git_sha").string.c_str(),
                  p.at("build_type").string.c_str());
    } else {
      std::printf("%s\n", path.c_str());
    }
    print_snapshot(snap);

    if (!prom_out.empty()) {
      // First write honors the overwrite guard; later --watch refreshes of
      // the same file intentionally overwrite our own output.
      obs::write_text_file_guarded(prom_out, obs::prometheus_text(snap),
                                   force || iter > 0);
      if (iter == 0) {
        std::printf("wrote Prometheus text to %s\n", prom_out.c_str());
      }
    }
    ++iter;
    if (iterations > 0 && iter >= iterations) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: upanns_cli <gen|build|tune|search|serve|stats> [--key value ...]\n"
               "  gen    --family sift|deep|spacev --n N --out F.fvecs\n"
               "         [--cluster-order]  (storage follows clusters; makes\n"
               "          serve --shift a real cluster-popularity drift)\n"
               "  build  --data F.fvecs --clusters C --m M --out I.bin\n"
               "         [--build-threads N]\n"
               "         [--trace-out T.json] [--metrics-out M.json]\n"
               "  tune   --index I.bin --data F.fvecs --recall R --k K\n"
               "  search --index I.bin --data F.fvecs --nprobe P --queries Q\n"
               "         --system cpu|gpu|upanns|naive|multihost\n"
               "         [--hosts N --net-gbps G --net-latency-us U]\n"
               "         [--metrics-out M.json] [--prom-out M.prom]\n"
               "  serve  --index I.bin --data F.fvecs --queries Q --batch B\n"
               "         [--hosts N --net-gbps G --net-latency-us U]\n"
               "         [--update-rate R --compact-ratio C]\n"
               "         [--adapt[=off|copies|full] --adapt-window N "
               "--shift S]\n"
               "         [--online --target-qps Q --deadline-ms D\n"
               "          --queue-cap C --clients K]\n"
               "         [--no-overlap] [--trace-out T.json] [--metrics-out M.json]\n"
               "         [--spans-out S.json] [--prom-out M.prom]\n"
               "         [--stats-every N --window-seconds W --window-slots S]\n"
               "  stats  --metrics M.json [--prom-out M.prom]\n"
               "         [--watch --interval-ms MS --iterations K]\n"
               "common: --log-level debug|info|warn|error (or UPANNS_LOG env);\n"
               "        --simd scalar|avx2|avx512 pins kernel dispatch\n"
               "        (or UPANNS_SIMD env); --force overwrites existing\n"
               "        files\n");
  return 1;
}

struct Command {
  std::string_view name;
  int (*run)(const Args&);
  FlagNames flags;
};

/// Every subcommand and the flags it reads, besides kCommonFlags.
const Command kCommands[] = {
    {"gen", cmd_gen, {{"family", "n", "seed", "out"}, {"cluster-order"}}},
    {"build", cmd_build,
     {{"data", "clusters", "m", "seed", "build-threads", "out", "trace-out",
       "metrics-out"}, {}}},
    {"tune", cmd_tune,
     {{"index", "data", "queries", "seed", "recall", "k"}, {}}},
    {"search", cmd_search,
     {{"index", "data", "queries", "seed", "nprobe", "dpus", "tasklets", "k",
       "system", "hosts", "net-gbps", "net-latency-us", "metrics-out",
       "prom-out"}, {}}},
    {"serve", cmd_serve,
     {{"index", "data", "queries", "seed", "shift", "nprobe", "dpus", "k",
       "hosts", "net-gbps", "net-latency-us", "batch", "update-rate",
       "compact-ratio", "adapt-window", "target-qps", "deadline-ms",
       "queue-cap", "clients", "trace-out", "metrics-out", "spans-out",
       "prom-out", "stats-every", "window-seconds", "window-slots"},
      {"no-overlap", "online", "adapt"}}},
    {"stats", cmd_stats,
     {{"metrics", "prom-out", "interval-ms", "iterations"}, {"watch"}}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const Command* cmd = nullptr;
  for (const Command& c : kCommands) {
    if (c.name == argv[1]) cmd = &c;
  }
  if (cmd == nullptr) return usage();
  try {
    const Args args = Args::parse(argc, argv, 2, cmd->flags);
    if (const std::string lvl = args.str("log-level", ""); !lvl.empty()) {
      const auto parsed = common::parse_log_level(lvl);
      if (!parsed) {
        throw UsageError("unknown --log-level " + lvl +
                         " (debug|info|warn|error)");
      }
      common::set_log_level(*parsed);
    }
    // --simd pins the kernel dispatch level for the whole run (build and
    // serve paths alike); the UPANNS_SIMD env var is the non-CLI spelling.
    if (const std::string simd = args.str("simd", ""); !simd.empty()) {
      common::SimdLevel lvl;
      if (!common::parse_simd_level(simd, &lvl)) {
        throw UsageError("unknown --simd " + simd + " (scalar|avx2|avx512)");
      }
      common::set_simd_level(lvl);
    }
    return cmd->run(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
