// Telemetry-plane tests: the rolling window (slot alignment, expiry,
// old-observation clamping, merge, the shared quantile kernel), windowed
// instruments in MetricsRegistry and their snapshot/JSON round trip, the
// registry's time histograms against the report values they mirror,
// Prometheus text exposition, UPANNS_LOG parsing, build provenance, guarded
// telemetry writes, and the per-query span forest: query-cost capture is
// gated on an attached SpanLog, span durations obey the accounting identity
//   sum(query spans) + sum(patch spans) == serial_seconds
// on single-host and multi-host runs (with and without mutations), spans
// never change results, a combined mutation + multi-host run exports a
// bit-exact golden trace across repeated runs, and the span exports equal
// JsonWriter's per-field rendering byte for byte with an allocation count
// that does not grow with the forest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/multihost.hpp"
#include "core/pipeline.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/provenance.hpp"
#include "obs/report_json.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"

namespace upanns::obs {
namespace {

// ---------------------------------------------------------------- window

TEST(Window, RejectsBadOptions) {
  EXPECT_THROW(WindowedHistogram({0.0, 4}, {1.0}), std::invalid_argument);
  EXPECT_THROW(WindowedHistogram({-1.0, 4}, {1.0}), std::invalid_argument);
  EXPECT_THROW(WindowedHistogram({10.0, 0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(WindowedHistogram({10.0, 4}, {}), std::invalid_argument);
  EXPECT_THROW(WindowedHistogram({10.0, 4}, {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(WindowedHistogram({10.0, 4}, {1.0, 1.0}), std::invalid_argument);
}

TEST(Window, SlotsAlignToTimeZeroAndExpire) {
  // 10 s window, 1 s slots: slot i covers [i, i+1), aligned to t = 0.
  WindowedHistogram w({10.0, 10}, {1.0, 10.0});
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.now(), 0.0);
  w.observe(0.5, 1.0);    // slot 0
  w.observe(5.2, 2.0);    // slot 5
  w.observe(9.999, 3.0);  // slot 9 — slots 0..9 all live
  EXPECT_EQ(w.count(), 3u);
  EXPECT_DOUBLE_EQ(w.sum(), 6.0);
  w.advance(10.0);  // live window becomes slots 1..10: slot 0 expires
  EXPECT_EQ(w.count(), 2u);
  EXPECT_DOUBLE_EQ(w.sum(), 5.0);
  w.advance(7.0);  // never rotates backwards
  EXPECT_EQ(w.count(), 2u);
  w.advance(15.0);  // live 6..15: slot 5 expires, slot 9 survives
  EXPECT_EQ(w.count(), 1u);
  EXPECT_DOUBLE_EQ(w.sum(), 3.0);
  w.advance(100.0);  // jump past the whole ring: everything expires
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.sum(), 0.0);
  EXPECT_DOUBLE_EQ(w.rate(), 0.0);
}

TEST(Window, ClampsObservationsOlderThanTheWindow) {
  // A restarted timeline (second pipeline run re-observing from t = 0) must
  // not silently drop counts: too-old observations land in the oldest live
  // slot instead.
  WindowedHistogram w({10.0, 10}, {1.0});
  w.observe(100.0, 1.0);
  w.observe(0.0, 2.0, 5);
  EXPECT_EQ(w.count(), 6u);
  EXPECT_DOUBLE_EQ(w.sum(), 11.0);
  // The clamped counts expire with the oldest slot, not at their own time.
  w.advance(101.0);
  EXPECT_EQ(w.count(), 1u);
}

TEST(Window, RateIsLiveCountOverWidth) {
  WindowedHistogram w({4.0, 4}, {1.0});
  w.observe(0.5, 0.1, 6);
  w.observe(3.5, 0.1, 2);
  EXPECT_DOUBLE_EQ(w.rate(), 2.0);  // 8 observations over a 4 s window
  w.advance(4.5);                   // the first slot (6 obs) expires
  EXPECT_DOUBLE_EQ(w.rate(), 0.5);
}

TEST(Window, QuantilesShareTheCumulativeKernel) {
  // Identical observations (all inside the live window) give the windowed
  // and cumulative histograms identical merged buckets and min/max, so the
  // shared quantile_from_buckets kernel must return identical quantiles.
  const std::vector<double> bounds = Histogram::default_time_bounds();
  Histogram h(bounds);
  WindowedHistogram w({10.0, 10}, bounds);
  common::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double v = std::pow(10.0, -5.0 + 4.0 * rng.uniform());
    h.observe(v);
    w.observe(rng.uniform() * 9.0, v);  // out of order, but never expiring
  }
  EXPECT_EQ(w.count(), h.count());
  EXPECT_EQ(w.bucket_counts(), h.bucket_counts());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(w.quantile(q), h.quantile(q)) << "q = " << q;
  }
  EXPECT_DOUBLE_EQ(quantile_from_buckets(h.bounds(), h.bucket_counts(),
                                         h.min(), h.max(), 0.99),
                   h.quantile(0.99));
}

TEST(Window, MergeFoldsLiveSlots) {
  WindowedHistogram a({10.0, 10}, {1.0});
  WindowedHistogram b({10.0, 10}, {1.0});
  a.observe(1.5, 0.5);
  b.observe(2.5, 2.0, 3);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 6.5);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 2.0);
  WindowedHistogram c({10.0, 10}, {2.0});
  EXPECT_THROW(a.merge_from(c), std::invalid_argument);
}

// ---------------------------------------------------------------- registry

TEST(Registry, WindowedInstrumentsUseTheRegistryDefaultOptions) {
  MetricsRegistry reg;
  reg.set_window_options({4.0, 4});
  WindowedHistogram& w = reg.windowed("query.latency_seconds");
  EXPECT_DOUBLE_EQ(w.options().width_seconds, 4.0);
  EXPECT_EQ(w.options().slots, 4u);
  EXPECT_EQ(&w, &reg.windowed("query.latency_seconds"));  // stable reference

  w.observe(1.0, 0.5, 8);
  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.windows.size(), 1u);
  EXPECT_EQ(s.windows[0].name, "query.latency_seconds");
  EXPECT_DOUBLE_EQ(s.windows[0].width_seconds, 4.0);
  EXPECT_DOUBLE_EQ(s.windows[0].slot_seconds, 1.0);
  EXPECT_EQ(s.windows[0].count, 8u);
  EXPECT_DOUBLE_EQ(s.windows[0].rate, 2.0);
}

TEST(Registry, SnapshotJsonOmitsWindowsWhenNoneExist) {
  // Pre-window consumers parse {counters, gauges, histograms}; a registry
  // with no windowed instruments must keep emitting exactly that shape.
  MetricsRegistry bare;
  bare.counter("c").add(1);
  EXPECT_FALSE(json_parse(snapshot_json(bare.snapshot())).has("windows"));

  MetricsRegistry reg;
  reg.windowed("w").observe(0.1, 0.2);
  EXPECT_TRUE(json_parse(snapshot_json(reg.snapshot())).has("windows"));
}

TEST(Registry, SnapshotRoundTripsThroughJson) {
  MetricsRegistry reg;
  reg.set_window_options({10.0, 20});
  reg.counter("pipeline.queries").add(96);
  reg.gauge("balance").set(1.0 / 3.0);
  Histogram& h = reg.histogram("pipeline.batch.seconds");
  h.observe(3.7e-4);
  h.observe(9.1e-3);
  reg.windowed("query.latency_seconds").observe(0.25, 3.7e-4, 32);

  const MetricsSnapshot a = reg.snapshot();
  const MetricsSnapshot b = snapshot_from_json(json_parse(snapshot_json(a)));

  ASSERT_EQ(b.counters.size(), 1u);
  EXPECT_EQ(b.counters[0].name, "pipeline.queries");
  EXPECT_EQ(b.counters[0].value, 96u);
  ASSERT_EQ(b.gauges.size(), 1u);
  EXPECT_EQ(std::memcmp(&b.gauges[0].value, &a.gauges[0].value,
                        sizeof(double)),
            0);
  ASSERT_EQ(b.histograms.size(), 1u);
  EXPECT_EQ(b.histograms[0].count, 2u);
  EXPECT_EQ(std::memcmp(&b.histograms[0].sum, &a.histograms[0].sum,
                        sizeof(double)),
            0);
  EXPECT_EQ(b.histograms[0].bounds, a.histograms[0].bounds);
  EXPECT_EQ(b.histograms[0].bucket_counts, a.histograms[0].bucket_counts);
  ASSERT_EQ(b.windows.size(), 1u);
  EXPECT_EQ(b.windows[0].name, "query.latency_seconds");
  EXPECT_EQ(b.windows[0].count, 32u);
  EXPECT_DOUBLE_EQ(b.windows[0].width_seconds, 10.0);
  EXPECT_EQ(std::memcmp(&b.windows[0].p99, &a.windows[0].p99, sizeof(double)),
            0);
}

// ---------------------------------------------------------------- prometheus

TEST(Prometheus, NamesAreSanitizedWithThePrefix) {
  EXPECT_EQ(prometheus_name("pipeline.stage.host-merge.seconds"),
            "upanns_pipeline_stage_host_merge_seconds");
  EXPECT_EQ(prometheus_name("ok_name_09"), "upanns_ok_name_09");
}

TEST(Prometheus, TextExpositionRendersEveryInstrumentKind) {
  MetricsRegistry reg;
  reg.counter("pim.launches").add(3);
  reg.gauge("balance").set(0.5);
  Histogram& h = reg.histogram("lat.seconds", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  reg.windowed("query.latency_seconds", WindowOptions{10.0, 5}, {1.0})
      .observe(0.3, 0.5, 4);

  const std::string text = prometheus_text(reg.snapshot());
  const auto has = [&](const std::string& s) {
    EXPECT_NE(text.find(s), std::string::npos) << "missing: " << s;
  };
  has("# TYPE upanns_pim_launches_total counter\nupanns_pim_launches_total 3\n");
  has("# TYPE upanns_balance gauge\nupanns_balance 0.5\n");
  // Buckets are cumulative and +Inf equals the series count.
  has("# TYPE upanns_lat_seconds histogram\n");
  has("upanns_lat_seconds_bucket{le=\"1\"} 1\n");
  has("upanns_lat_seconds_bucket{le=\"2\"} 2\n");
  has("upanns_lat_seconds_bucket{le=\"+Inf\"} 3\n");
  has("upanns_lat_seconds_sum 11\n");
  has("upanns_lat_seconds_count 3\n");
  // Rolling windows export as gauges labeled with their configured width.
  has("upanns_query_latency_seconds_window_p50{window_seconds=\"10\"}");
  has("upanns_query_latency_seconds_window_p99{window_seconds=\"10\"}");
  has("upanns_query_latency_seconds_window_p999{window_seconds=\"10\"}");
  has("upanns_query_latency_seconds_window_rate{window_seconds=\"10\"} 0.4");
  has("upanns_query_latency_seconds_window_count{window_seconds=\"10\"} 4\n");
}

// ---------------------------------------------------------------- log env

TEST(Log, EnvValueParsesKnownLevelsCaseInsensitively) {
  EXPECT_EQ(common::log_level_from_env_value("debug"),
            common::LogLevel::kDebug);
  EXPECT_EQ(common::log_level_from_env_value("INFO"), common::LogLevel::kInfo);
  EXPECT_EQ(common::log_level_from_env_value("Warn"), common::LogLevel::kWarn);
  EXPECT_EQ(common::log_level_from_env_value("warning"),
            common::LogLevel::kWarn);
  EXPECT_EQ(common::log_level_from_env_value("error"),
            common::LogLevel::kError);
}

TEST(Log, UnrecognizedEnvValueWarnsAndDefaultsToInfo) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(common::log_level_from_env_value("chatty"),
            common::LogLevel::kInfo);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("chatty"), std::string::npos) << err;
  EXPECT_NE(err.find("unrecognized UPANNS_LOG"), std::string::npos) << err;
}

// ---------------------------------------------------------------- provenance

TEST(Provenance, StampsSchemaAndToolchainIntoEveryArtifact) {
  const BuildProvenance& p = build_provenance();
  EXPECT_EQ(p.schema_version, "upanns.telemetry.v1");
  EXPECT_FALSE(p.git_sha.empty());
  EXPECT_FALSE(p.compiler.empty());
  EXPECT_FALSE(p.build_type.empty());

  SpanLog log;
  const JsonValue v = json_parse(span_log_json(log));
  EXPECT_EQ(v.at("provenance").at("schema_version").string, p.schema_version);
  EXPECT_EQ(v.at("provenance").at("git_sha").string, p.git_sha);
  EXPECT_EQ(v.at("n_spans").number, 0.0);
  EXPECT_EQ(v.at("spans").array.size(), 0u);
}

// ---------------------------------------------------------------- guarded IO

TEST(Trace, GuardedWriteRefusesToClobberWithoutForce) {
  const std::string path = testing::TempDir() + "upanns_guard_test.json";
  std::remove(path.c_str());
  EXPECT_FALSE(file_exists(path));
  write_text_file_guarded(path, "one", false);
  EXPECT_TRUE(file_exists(path));

  testing::internal::CaptureStderr();
  EXPECT_THROW(write_text_file_guarded(path, "two", false),
               std::runtime_error);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--force"), std::string::npos) << err;

  write_text_file_guarded(path, "three", true);
  std::ifstream in(path);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "three");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- spans

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::sift1b_like(6000, 42));
  ivf::IvfIndex index = build();
  data::QueryWorkload wl;
  ivf::ClusterStats stats;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 24;
    opts.pq_m = 16;
    opts.coarse_iters = 5;
    opts.pq_iters = 4;
    return ivf::IvfIndex::build(base, opts);
  }

  Fixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 48;
    spec.seed = 9;
    wl = data::generate_workload(base, spec);
    stats = ivf::collect_stats(index, ivf::filter_batch(index, wl.queries, 6));
  }

  core::UpAnnsOptions options() const {
    core::UpAnnsOptions o = core::UpAnnsOptions::upanns();
    o.n_dpus = 8;
    o.nprobe = 6;
    o.k = 10;
    return o;
  }

  std::vector<data::Dataset> batches() const {
    return core::split_batches(wl.queries, 16);  // 3 batches of 16
  }

  /// Fresh single-host 3-batch run, optionally with a span log / registry.
  core::BatchPipelineReport single_run(SpanLog* spans,
                                       MetricsRegistry* reg = nullptr) {
    core::UpAnnsEngine engine(index, stats, options());
    engine.set_metrics(reg);
    engine.set_spans(spans);
    core::BatchStream pipeline(engine, {.overlap = true});
    return pipeline.run(batches());
  }

  std::vector<float> perturbed_row(common::Rng& rng) const {
    const float* row = base.row(rng.below(base.n));
    std::vector<float> v(row, row + base.dim);
    for (float& x : v) x += rng.uniform(-0.05f, 0.05f);
    return v;
  }

  /// Mixed read/write single-host run over a private index copy: upserts
  /// before every batch after the first force an incremental MRAM patch per
  /// batch. With `adapt`, three drifted batches follow the calm ones and the
  /// stream adjusts copies, so adapt-patch work joins the mutation patches.
  core::BatchPipelineReport mutating_single_run(
      SpanLog* spans, ivf::IvfIndex& mut, bool adapt = false,
      MetricsRegistry* reg = nullptr) {
    core::UpAnnsEngine engine(mut, stats, options());
    engine.set_metrics(reg);
    engine.set_spans(spans);
    core::BatchPipelineOptions opts{.overlap = true};
    std::vector<data::Dataset> served = batches();
    if (adapt) {
      opts.adapt = core::AdaptMode::kCopies;
      opts.adaptive = {.window_batches = 2,
                       .minor_threshold = 0.01,
                       .copy_change_fraction = 0.01};
      data::WorkloadSpec hot;
      hot.n_queries = 48;
      hot.seed = 11;
      hot.popularity_shift = 12;
      for (data::Dataset& b : core::split_batches(
               data::generate_workload(base, hot).queries, 16)) {
        served.push_back(std::move(b));
      }
    }
    core::BatchStream pipeline(engine, opts);
    common::Rng rng(321);
    const core::BatchStream::MutationHook hook = [&](std::size_t b) {
      if (b == 0) return;
      std::vector<std::uint32_t> ids;
      std::vector<float> flat;
      for (std::size_t i = 0; i < 16; ++i) {
        ids.push_back(static_cast<std::uint32_t>(200'000 + b * 100 + i));
        const std::vector<float> v = perturbed_row(rng);
        flat.insert(flat.end(), v.begin(), v.end());
      }
      engine.upsert(ids, flat);
    };
    return pipeline.run(served, hook);
  }

  /// Mixed read/write multi-host run over a private index copy: upserts +
  /// removes before batches 1 and 2 force fleet-wide MRAM patches. The rng
  /// seed is fixed, so two runs over fresh copies are bit-identical.
  core::MultiHostPipelineReport mutating_multihost_run(
      SpanLog* spans, ivf::IvfIndex& mut, MetricsRegistry* reg = nullptr) {
    core::MultiHostOptions mh;
    mh.n_hosts = 3;
    mh.per_host = options();
    core::MultiHostUpAnns cluster(mut, stats, mh);
    cluster.set_metrics(reg);
    cluster.set_spans(spans);
    core::MultiHostBatchPipeline pipeline(cluster, {.overlap = true});
    common::Rng rng(777);
    const core::MultiHostBatchPipeline::MutationHook hook =
        [&](std::size_t b) {
          if (b == 0) return;
          std::vector<std::uint32_t> ids;
          std::vector<float> flat;
          for (std::size_t i = 0; i < 20; ++i) {
            ids.push_back(static_cast<std::uint32_t>(300'000 + b * 1000 + i));
            const std::vector<float> v = perturbed_row(rng);
            flat.insert(flat.end(), v.begin(), v.end());
          }
          cluster.upsert(ids, flat);
          std::vector<std::uint32_t> dead;
          for (std::size_t i = 0; i < 10; ++i) {
            dead.push_back(static_cast<std::uint32_t>(rng.below(base.n)));
          }
          cluster.remove(dead);
        };
    return pipeline.run(batches(), hook);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

double sum_category(const SpanLog& log, const char* category) {
  double s = 0;
  for (const Span& sp : log.spans()) {
    if (sp.category == category) s += sp.duration_seconds;
  }
  return s;
}

/// Structural invariants every span forest must satisfy: 1-based ids in push
/// order, parents resolve to earlier spans, roots are batch spans, query
/// spans hang off batch roots, query-stage spans off query spans.
void expect_valid_forest(const SpanLog& log) {
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : log.spans()) {
    EXPECT_EQ(by_id.count(s.id), 0u) << "duplicate span id " << s.id;
    by_id[s.id] = &s;
    if (s.parent == 0) {
      EXPECT_EQ(s.category, "batch") << s.name;
      continue;
    }
    ASSERT_EQ(by_id.count(s.parent), 1u)
        << s.name << " has unknown parent " << s.parent;
    const Span& p = *by_id.at(s.parent);
    EXPECT_LT(p.id, s.id);
    if (s.category == "query") {
      EXPECT_EQ(p.category, "batch");
    }
    if (s.category == "query-stage") {
      EXPECT_EQ(p.category, "query");
    }
  }
}

TEST(Spans, QueryCostsAreCapturedOnlyWithASpanLogAttached) {
  auto& f = fixture();
  const auto plain = f.single_run(nullptr);
  for (const auto& slot : plain.slots) {
    EXPECT_FALSE(slot.report.query_costs.has_value());
  }

  SpanLog log;
  const auto run = f.single_run(&log);
  ASSERT_EQ(run.slots.size(), 3u);
  for (std::size_t b = 0; b < run.slots.size(); ++b) {
    ASSERT_TRUE(run.slots[b].report.query_costs.has_value()) << "batch " << b;
    const core::QueryCosts& qc = *run.slots[b].report.query_costs;
    EXPECT_EQ(qc.batch_id, b);
    EXPECT_EQ(qc.first_query_id, b * 16);
    ASSERT_EQ(qc.device_weight.size(), 16u);
    double total = 0;
    for (const double w : qc.device_weight) {
      EXPECT_GT(w, 0.0);
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);  // shares of the batch's device phase
  }
}

TEST(Spans, PipelineForestObeysTheAccountingIdentity) {
  auto& f = fixture();
  SpanLog log;
  const auto run = f.single_run(&log);
  ASSERT_FALSE(log.empty());
  expect_valid_forest(log);

  // One root per batch.
  std::size_t roots = 0;
  for (const Span& s : log.spans()) roots += s.parent == 0 ? 1 : 0;
  EXPECT_EQ(roots, run.slots.size());

  // Every query appears exactly once, with its stable global id.
  std::set<std::int64_t> qids;
  for (const Span& s : log.spans()) {
    if (s.category == "query") qids.insert(s.query);
  }
  EXPECT_EQ(qids.size(), run.n_queries);
  EXPECT_EQ(*qids.begin(), 0);
  EXPECT_EQ(*qids.rbegin(), static_cast<std::int64_t>(run.n_queries) - 1);

  // Per batch, query spans sum to that batch's own search time; across the
  // run, query + patch spans sum to serial_seconds.
  for (std::size_t b = 0; b < run.slots.size(); ++b) {
    double qsum = 0;
    for (const Span& s : log.spans()) {
      if (s.category == "query" &&
          s.batch == static_cast<std::int64_t>(b)) {
        qsum += s.duration_seconds;
      }
    }
    const double expect = run.slots[b].report.times.total();
    EXPECT_NEAR(qsum, expect, 1e-9 * std::max(expect, 1e-30)) << "batch " << b;
  }
  const double total = sum_category(log, "query") + sum_category(log, "patch");
  EXPECT_NEAR(total, run.serial_seconds, 1e-9 * run.serial_seconds);
  EXPECT_DOUBLE_EQ(sum_category(log, "patch"), 0.0);  // read-only run
}

TEST(Spans, AttachingASpanLogNeverChangesResults) {
  auto& f = fixture();
  const auto plain = f.single_run(nullptr);
  SpanLog log;
  const auto spanned = f.single_run(&log);
  ASSERT_EQ(plain.slots.size(), spanned.slots.size());
  EXPECT_EQ(plain.elapsed_seconds, spanned.elapsed_seconds);
  EXPECT_EQ(plain.serial_seconds, spanned.serial_seconds);
  for (std::size_t b = 0; b < plain.slots.size(); ++b) {
    const auto& a = plain.slots[b].report.neighbors;
    const auto& c = spanned.slots[b].report.neighbors;
    ASSERT_EQ(a.size(), c.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
      EXPECT_TRUE(a[q] == c[q]) << "batch " << b << " query " << q;
    }
  }
  // The Perfetto export without spans is byte-identical whether the span
  // pointer is absent, null, or an empty log (zero-cost-when-detached).
  const PipelineTrace trace = pipeline_trace(spanned);
  const std::string bare = trace_json(trace);
  EXPECT_EQ(bare, trace_json(trace, nullptr));
  SpanLog empty;
  EXPECT_EQ(bare, trace_json(trace, &empty));
}

TEST(Spans, TraceJsonEmbedsTheForestAsAsyncEventPairs) {
  auto& f = fixture();
  SpanLog log;
  const auto run = f.single_run(&log);
  const std::string with = trace_json(pipeline_trace(run), &log);
  const JsonValue doc = json_parse(with);
  std::size_t begins = 0, ends = 0;
  for (const JsonValue& ev : doc.at("traceEvents").array) {
    const std::string& ph = ev.at("ph").string;
    begins += ph == "b" ? 1 : 0;
    ends += ph == "e" ? 1 : 0;
  }
  EXPECT_EQ(begins, log.size());
  EXPECT_EQ(ends, log.size());
}

TEST(Spans, MutationRunsAddPatchSpansAndKeepTheIdentity) {
  auto& f = fixture();
  ivf::IvfIndex mut = f.index;
  SpanLog log;
  const auto run = f.mutating_single_run(&log, mut);
  expect_valid_forest(log);

  double patch_expected = 0;
  for (const auto& slot : run.slots) patch_expected += slot.patch_seconds;
  ASSERT_GT(patch_expected, 0.0) << "mutation hook issued no patches";
  EXPECT_NEAR(sum_category(log, "patch"), patch_expected,
              1e-12 * patch_expected);
  const double total = sum_category(log, "query") + sum_category(log, "patch");
  EXPECT_NEAR(total, run.serial_seconds, 1e-9 * run.serial_seconds);
}

TEST(Spans, MultihostForestCoversCoordinatorNetworkAndHostLanes) {
  auto& f = fixture();
  ivf::IvfIndex mut = f.index;  // fresh copy; the hook mutates it
  SpanLog log;
  const auto run = f.mutating_multihost_run(&log, mut);
  expect_valid_forest(log);

  std::size_t coord = 0, net = 0, host = 0, patch = 0, query = 0;
  for (const Span& s : log.spans()) {
    if (s.category == "coord") ++coord;
    if (s.category == "net") ++net;
    if (s.category == "host") {
      ++host;
      EXPECT_GE(s.host, 0) << s.name;
    }
    if (s.category == "patch") ++patch;
    if (s.category == "query") ++query;
  }
  EXPECT_EQ(coord, 2 * run.slots.size());  // cluster-filter + interhost-merge
  EXPECT_EQ(net, 2 * run.slots.size());    // broadcast + gather
  EXPECT_GE(host, 2 * run.slots.size());   // >= 2 lanes per batch, per host
  EXPECT_GT(patch, 0u);
  EXPECT_EQ(query, run.n_queries);

  const double total = sum_category(log, "query") + sum_category(log, "patch");
  EXPECT_NEAR(total, run.serial_seconds, 1e-9 * run.serial_seconds);
}

TEST(Spans, CombinedMutationMultihostExportIsGoldenBitExact) {
  // Satellite 3: one run exercising mutations + multi-host tracing at once
  // must export deterministically — two fresh runs over fresh index copies
  // produce byte-identical span logs and Perfetto traces.
  auto& f = fixture();
  ivf::IvfIndex mut1 = f.index;
  SpanLog log1;
  const auto run1 = f.mutating_multihost_run(&log1, mut1);
  ivf::IvfIndex mut2 = f.index;
  SpanLog log2;
  const auto run2 = f.mutating_multihost_run(&log2, mut2);

  EXPECT_EQ(run1.elapsed_seconds, run2.elapsed_seconds);
  const std::string spans1 = span_log_json(log1);
  EXPECT_EQ(spans1, span_log_json(log2));
  EXPECT_EQ(trace_json(multihost_trace(run1), &log1),
            trace_json(multihost_trace(run2), &log2));

  // And the span log JSON carries the full schema per span.
  const JsonValue doc = json_parse(spans1);
  EXPECT_EQ(doc.at("n_spans").number,
            static_cast<double>(log1.size()));
  const JsonValue& first = doc.at("spans").at(0);
  for (const char* key : {"id", "parent", "name", "cat", "batch", "query",
                          "host", "start_seconds", "duration_seconds"}) {
    EXPECT_TRUE(first.has(key)) << key;
  }
}

/// Every lane-level span (a child of a batch root other than a query span)
/// matches exactly one slice of `trace`: same name, category, batch, start
/// and duration, on the lane its category (and host) names. Every other
/// slice is a dpu-kernel slice.
void expect_slices_are_lane_spans(const SpanLog& log,
                                  const PipelineTrace& trace) {
  const std::map<int, std::string> lane_name(trace.lanes.begin(),
                                             trace.lanes.end());
  const std::map<std::string, std::string> category_lane = {
      {"host", "host"},
      {"device", "device"},
      {"coord", "coordinator"},
      {"net", "network"}};
  std::set<std::uint64_t> roots;
  for (const Span& s : log.spans()) {
    if (s.parent == 0) roots.insert(s.id);
  }
  std::vector<bool> matched(trace.slices.size(), false);
  std::size_t lane_spans = 0;
  for (const Span& s : log.spans()) {
    if (roots.count(s.parent) == 0 || s.category == "query") continue;
    ++lane_spans;
    std::string lane;
    if (s.category == "patch") {
      lane = s.name;
    } else if (s.host >= 0) {
      lane = "host-" + std::to_string(s.host);
    } else if (category_lane.count(s.category) != 0) {
      lane = category_lane.at(s.category);
    } else {
      ADD_FAILURE() << s.name << ": category " << s.category
                    << " names no lane";
      continue;
    }
    std::size_t hits = 0;
    for (std::size_t i = 0; i < trace.slices.size(); ++i) {
      const TraceSlice& t = trace.slices[i];
      if (t.name == s.name && t.category == s.category &&
          static_cast<std::int64_t>(t.batch) == s.batch &&
          t.start_seconds == s.start_seconds &&
          t.duration_seconds == s.duration_seconds &&
          lane_name.at(t.lane) == lane) {
        ++hits;
        matched[i] = true;
      }
    }
    EXPECT_EQ(hits, 1u) << s.name << " of batch " << s.batch << " on "
                        << lane;
  }
  EXPECT_GT(lane_spans, 0u);
  for (std::size_t i = 0; i < trace.slices.size(); ++i) {
    if (!matched[i]) {
      EXPECT_EQ(trace.slices[i].name, "dpu-kernel");
    }
  }
}

TEST(Spans, TraceLaneSlicesAreTheLaneSpans) {
  auto& f = fixture();
  ivf::IvfIndex single_index = f.index;
  SpanLog single_log;
  const auto single =
      f.mutating_single_run(&single_log, single_index, /*adapt=*/true);
  const PipelineTrace single_trace = pipeline_trace(single);
  expect_slices_are_lane_spans(single_log, single_trace);
  // Both patch lanes appear, after all the others, mram-patch first.
  const auto& lanes = single_trace.lanes;
  const int n = static_cast<int>(lanes.size());
  ASSERT_GE(n, 4);
  EXPECT_EQ(lanes[n - 2], (std::pair<int, std::string>{n - 2, "mram-patch"}));
  EXPECT_EQ(lanes[n - 1], (std::pair<int, std::string>{n - 1, "adapt-patch"}));

  ivf::IvfIndex fleet_index = f.index;
  SpanLog fleet_log;
  const auto fleet = f.mutating_multihost_run(&fleet_log, fleet_index);
  const PipelineTrace fleet_trace = multihost_trace(fleet);
  expect_slices_are_lane_spans(fleet_log, fleet_trace);
  EXPECT_EQ(fleet_trace.lanes.back().second, "mram-patch");
}

TEST(Spans, WindowedLatencyTracksTheCumulativeHistogram) {
  // Serving with a registry attached books query.latency_seconds both
  // cumulatively and into the rolling window; with every batch inside the
  // window the two quantile readouts agree within one bucket.
  auto& f = fixture();
  MetricsRegistry reg;
  reg.set_window_options({1000.0, 20});  // simulated run fits in the window
  SpanLog log;
  const auto run = f.single_run(&log, &reg);
  (void)run;
  const MetricsSnapshot s = reg.snapshot();
  const MetricsSnapshot::HistogramValue* cum = nullptr;
  for (const auto& h : s.histograms) {
    if (h.name == "query.latency_seconds") cum = &h;
  }
  const MetricsSnapshot::WindowValue* win = nullptr;
  for (const auto& w : s.windows) {
    if (w.name == "query.latency_seconds") win = &w;
  }
  ASSERT_NE(cum, nullptr);
  ASSERT_NE(win, nullptr);
  EXPECT_EQ(win->count, cum->count);
  EXPECT_DOUBLE_EQ(win->p50, cum->p50);
  EXPECT_DOUBLE_EQ(win->p99, cum->p99);
}

// ---------------------------------------------------------------- export

/// The span log as JsonWriter's per-field calls: the reference that
/// span_log_json's cursor writer must match byte for byte.
std::string reference_span_log_json(const SpanLog& log) {
  JsonWriter w;
  w.begin_object();
  append_provenance(w);
  w.kv("n_spans", static_cast<std::uint64_t>(log.size()));
  w.key("spans").begin_array();
  for (const Span& s : log.spans()) {
    w.begin_object()
        .kv("id", s.id)
        .kv("parent", s.parent)
        .kv("name", s.name)
        .kv("cat", s.category)
        .kv("batch", s.batch)
        .kv("query", s.query)
        .kv("host", s.host)
        .kv("start_seconds", s.start_seconds)
        .kv("duration_seconds", s.duration_seconds)
        .end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

/// trace_json as JsonWriter's per-field calls, span events included.
std::string reference_trace_json(const PipelineTrace& trace,
                                 const SpanLog* spans) {
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  w.begin_object()
      .kv("ph", "M")
      .kv("name", "process_name")
      .kv("pid", 0)
      .kv("tid", 0)
      .key("args")
      .begin_object()
      .kv("name", "upanns")
      .end_object()
      .end_object();
  for (const auto& [tid, name] : trace.lanes) {
    w.begin_object()
        .kv("ph", "M")
        .kv("name", "thread_name")
        .kv("pid", 0)
        .kv("tid", tid)
        .key("args")
        .begin_object()
        .kv("name", name)
        .end_object()
        .end_object();
  }
  for (const TraceSlice& s : trace.slices) {
    w.begin_object()
        .kv("ph", "X")
        .kv("name", s.name)
        .kv("cat", s.category)
        .kv("pid", 0)
        .kv("tid", s.lane)
        .kv("ts", s.start_seconds * 1e6)
        .kv("dur", s.duration_seconds * 1e6)
        .key("args")
        .begin_object()
        .kv("batch", static_cast<std::uint64_t>(s.batch))
        .end_object()
        .end_object();
  }
  if (spans != nullptr) {
    for (const Span& s : spans->spans()) {
      w.begin_object()
          .kv("ph", "b")
          .kv("name", s.name)
          .kv("cat", s.category)
          .kv("id", s.id)
          .kv("pid", 0)
          .kv("tid", 0)
          .kv("ts", s.start_seconds * 1e6)
          .key("args")
          .begin_object()
          .kv("parent", s.parent)
          .kv("batch", s.batch)
          .kv("query", s.query)
          .end_object()
          .end_object();
      w.begin_object()
          .kv("ph", "e")
          .kv("name", s.name)
          .kv("cat", s.category)
          .kv("id", s.id)
          .kv("pid", 0)
          .kv("tid", 0)
          .kv("ts", (s.start_seconds + s.duration_seconds) * 1e6)
          .end_object();
    }
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void expect_exports_match_reference(const SpanLog& log,
                                    const PipelineTrace& trace) {
  EXPECT_EQ(span_log_json(log), reference_span_log_json(log));
  EXPECT_EQ(trace_json(trace, &log), reference_trace_json(trace, &log));
  EXPECT_EQ(trace_json(trace), reference_trace_json(trace, nullptr));
}

/// A small two-lane trace for the synthetic forests below.
PipelineTrace small_trace() {
  PipelineTrace t;
  t.lanes = {{0, "coordinator"}, {1, "net\"work"}};
  t.slices = {{"cluster-filter", "coord", 0, 0.0, 1.5e-4, 0},
              {"broadcast", "net", 1, 1.5e-4, 2.25e-5, 0}};
  return t;
}

/// Two distinct doubles whose digits share one memo slot.
std::pair<double, double> colliding_doubles() {
  const auto slot = [](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return JsonCursor::memo_slot(bits);
  };
  const double a = 0.125;
  for (int i = 1;; ++i) {
    const double b = 1e-3 * i;
    if (b != a && slot(b) == slot(a)) return {a, b};
  }
}

TEST(Spans, ExportsMatchTheJsonWriterReferenceOnEdgeValues) {
  const PipelineTrace trace = small_trace();
  SpanLog empty;
  expect_exports_match_reference(empty, trace);
  expect_exports_match_reference(empty, PipelineTrace{});

  SpanLog one;
  one.push(0, "batch", "batch", 0, 0.25, 1e-3);
  expect_exports_match_reference(one, trace);

  SpanLog edge;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {nan,     kInf,   -kInf,  -0.0,  0.0,
                           5e-324,  1e300,  -1e300, 1e-7,  123456789.125,
                           -2.2250738585072014e-308, 0.1 + 0.2};
  for (const double v : values) {
    edge.push(0, "batch", "batch", 0, v, v);
    edge.push(1, "query", "query", -1, v, -v).query = -1;
  }
  const auto [a, b] = colliding_doubles();
  for (int i = 0; i < 8; ++i) {  // evict each other from the shared slot
    edge.push(0, "stage", "query-stage", i, a, b);
    edge.push(0, "stage", "query-stage", i, b, a);
  }
  constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint64_t>::max();
  constexpr std::int64_t kMinField = std::numeric_limits<std::int64_t>::min();
  Span& wide = edge.push(kMaxId, "wide", "host", kMinField, 1.0, 2.0);
  wide.id = kMaxId;
  wide.query = std::numeric_limits<std::int64_t>::max();
  wide.host = kMinField;
  Span& minus = edge.push(0, "minus", "host", -1, 0.5, 0.5);
  minus.query = -1;
  minus.host = -1;
  edge.push(0, std::string("q\"uote\\slash\nnew\ttab\x01" "ctl"),
            std::string("c\x1f\r\"at", 6), 2, 0.75, 0.125);
  edge.push(0, "", "", 3, 0.0, 0.0);
  expect_exports_match_reference(edge, trace);
  // Still valid JSON, and the non-finite values read back as 0.
  const JsonValue doc = json_parse(span_log_json(edge));
  EXPECT_EQ(doc.at("spans").array.size(), edge.size());
  EXPECT_EQ(doc.at("spans").at(0).at("start_seconds").number, 0.0);
  EXPECT_NO_THROW(json_parse(trace_json(trace, &edge)));
}

TEST(Spans, ExportsOfRunForestsMatchTheJsonWriterReference) {
  auto& f = fixture();
  SpanLog single_log;
  const auto single = f.single_run(&single_log);
  ASSERT_TRUE(single.slots[0].report.query_costs.has_value());
  ASSERT_FALSE(single.slots[0].report.query_costs->device_weight.empty());
  expect_exports_match_reference(single_log, pipeline_trace(single));

  ivf::IvfIndex mut = f.index;
  SpanLog fleet_log;
  const auto fleet = f.mutating_multihost_run(&fleet_log, mut);
  expect_exports_match_reference(fleet_log, multihost_trace(fleet));
}

/// A fleet-shaped forest of `batches` batches of 128 queries: the root,
/// eight lane spans and a query span with five phase spans per query.
SpanLog fleet_forest(std::size_t batches) {
  static const char* const kPhases[] = {"cluster-filter", "broadcast",
                                        "host-search", "gather",
                                        "interhost-merge"};
  SpanLog log;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto bi = static_cast<std::int64_t>(b);
    const double t0 = 0.03 * static_cast<double>(b);
    const std::uint64_t root = log.push(0, "batch", "batch", bi, t0, 0.03).id;
    for (std::size_t k = 0; k < 8; ++k) {
      log.push(root, kPhases[k % 5], "coord", bi, t0 + 1e-4 * k, 1e-4);
    }
    for (std::int64_t q = 0; q < 128; ++q) {
      Span& qs = log.push(root, "query", "query", bi, t0, 0.03 / 128);
      qs.query = bi * 128 + q;
      const std::uint64_t qid = qs.id;
      for (std::size_t k = 0; k < 5; ++k) {
        log.push(qid, kPhases[k], "query-stage", bi, t0 + 1e-3 * k,
                 1e-3 / 128)
            .query = bi * 128 + q;
      }
    }
  }
  return log;
}

// The exports size their buffer once, so a tenfold forest allocates the
// same number of blocks (doubling growth would add one per doubling).
TEST(Spans, ExportAllocationsDoNotGrowWithTheForest) {
  const PipelineTrace trace = small_trace();
  const SpanLog small = fleet_forest(7);  // ~5.4k spans
  const SpanLog large = fleet_forest(65);  // ~50.6k spans
  ASSERT_GT(large.size(), 9 * small.size());
  std::size_t bytes = 0;
  const auto spans_of = [&](const SpanLog& log) {
    return count_allocations([&] { bytes += span_log_json(log).size(); });
  };
  const auto trace_of = [&](const SpanLog& log) {
    return count_allocations([&] { bytes += trace_json(trace, &log).size(); });
  };
  spans_of(small);  // warm-up: the provenance is rendered once
  EXPECT_EQ(spans_of(small), spans_of(large));
  EXPECT_EQ(trace_of(small), trace_of(large));
  EXPECT_GT(bytes, 0u);
}

// The registry's time histograms are the exported per-stage view of the
// simulated clock; each must sum the report values it mirrors, under its
// own name.
TEST(Registry, TimeHistogramsSumTheReportsTheyMirror) {
  auto& f = fixture();
  MetricsRegistry reg;
  const auto run = f.single_run(nullptr, &reg);
  const std::vector<core::PhaseWindows> timeline = core::batch_timeline(run);
  std::map<std::string, double> stages;
  double batches = 0, latency = 0;
  for (std::size_t i = 0; i < run.slots.size(); ++i) {
    const core::SearchReport& rep = run.slots[i].report;
    for (const core::StageStep& step : rep.trace) {
      stages[step.name] += step.seconds;
    }
    batches += rep.times.total();
    latency += (timeline[i].done - timeline[i].pre_start) *
               static_cast<double>(rep.neighbors.size());
  }
  ASSERT_EQ(stages.size(), 6u);
  for (const auto& [name, seconds] : stages) {
    EXPECT_DOUBLE_EQ(
        reg.histogram("pipeline.stage." + name + ".seconds").sum(), seconds)
        << name;
  }
  EXPECT_DOUBLE_EQ(reg.histogram("pipeline.batch.seconds").sum(), batches);
  EXPECT_DOUBLE_EQ(reg.histogram("query.latency_seconds").sum(), latency);

  ivf::IvfIndex mut = f.index;
  MetricsRegistry writes;
  const auto wrun = f.mutating_single_run(nullptr, mut, false, &writes);
  double patch = 0;
  for (const auto& slot : wrun.slots) patch += slot.patch_seconds;
  ASSERT_GT(patch, 0.0);
  EXPECT_DOUBLE_EQ(writes.histogram("mutate.patch.seconds").sum(), patch);

  ivf::IvfIndex fleet_index = f.index;
  MetricsRegistry fleet;
  const auto frun = f.mutating_multihost_run(nullptr, fleet_index, &fleet);
  double fleet_seconds = 0;
  for (const auto& slot : frun.slots) fleet_seconds += slot.report.seconds;
  ASSERT_GT(fleet_seconds, 0.0);
  EXPECT_DOUBLE_EQ(fleet.histogram("multihost.batch.seconds").sum(),
                   fleet_seconds);
}

}  // namespace
}  // namespace upanns::obs
