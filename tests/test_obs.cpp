// Observability tests: JSON writer/parser round trips, histogram quantiles,
// cross-thread counter merging, the Perfetto trace of a 3-batch overlapped
// pipeline run (valid JSON, one slice per stage per batch, device-lane
// durations reconstruct the slot split, final device end == elapsed_seconds
// bit-for-bit), report JSON round trips at full double precision, and the
// parity guarantee: attaching a registry never changes a report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/multihost.hpp"
#include "core/pipeline.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "metrics/report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report_json.hpp"
#include "obs/trace.hpp"

namespace upanns::obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, WriterProducesCompactDocument) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "upanns");
  w.kv("n", std::uint64_t{3});
  w.kv("on", true);
  w.key("xs").begin_array().value(1).value(2).end_array();
  w.key("none").null();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"upanns\",\"n\":3,\"on\":true,\"xs\":[1,2],"
            "\"none\":null}");
}

TEST(Json, EscapesControlCharactersAndQuotes) {
  const std::string s = "a\"b\\c\nd\te";
  const JsonValue v = json_parse("\"" + json_escape(s) + "\"");
  EXPECT_EQ(v.kind, JsonValue::Kind::kString);
  EXPECT_EQ(v.string, s);
}

TEST(Json, NumbersRoundTripBitExact) {
  for (const double x : {0.1 + 0.2, 1.0 / 3.0, 6.25e-7, 1e-300, 12345.6789,
                         123456789.0, -0.0, 2.2250738585072014e-308}) {
    const JsonValue v = json_parse(json_number(x));
    EXPECT_EQ(v.kind, JsonValue::Kind::kNumber);
    EXPECT_EQ(std::memcmp(&v.number, &x, sizeof x), 0) << json_number(x);
  }
}

// The writer formats with std::to_chars; exported files must stay the
// bytes %.17g printed, signed zeros, subnormals, the %g exponent switch
// points and integers included.
TEST(Json, NumbersMatchPrintfByteForByte) {
  const auto printf_g17 = [](double x) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return std::string(buf);
  };
  std::vector<double> xs = {0.0,
                            -0.0,
                            1.0,
                            -1.0,
                            0.5,
                            1e-4,
                            9.9999999999999991e-5,
                            1e-5,
                            1e16,
                            1e17,
                            99999999999999984.0,
                            123456789012345678.0,
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::lowest(),
                            std::numeric_limits<double>::epsilon()};
  for (int e = -320; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    xs.push_back(p);
    xs.push_back(std::nextafter(p, 0.0));
    xs.push_back(std::nextafter(p, 2 * p + 1));
  }
  common::Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double x;
    std::memcpy(&x, &bits, sizeof(x));
    if (std::isfinite(x)) xs.push_back(x);
    xs.push_back(static_cast<double>(rng.below(1u << 30)) * 1e-9);
  }
  for (const double x : xs) {
    ASSERT_EQ(json_number(x), printf_g17(x));
  }
  JsonWriter w;
  w.begin_array()
      .value(std::uint64_t{18446744073709551615u})
      .value(std::int64_t{-9223372036854775807 - 1})
      .value(0)
      .end_array();
  EXPECT_EQ(w.str(), "[18446744073709551615,-9223372036854775808,0]");
}

TEST(Json, EscapesEveryControlCharacter) {
  std::string s;
  for (int c = 0; c < 0x20; ++c) s += static_cast<char>(c);
  s += "plain\"\\\x7f\xc3\xa9";
  std::string want;
  for (int c = 0; c < 0x20; ++c) {
    if (c == '\n') {
      want += "\\n";
    } else if (c == '\r') {
      want += "\\r";
    } else if (c == '\t') {
      want += "\\t";
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      want += buf;
    }
  }
  want += "plain\\\"\\\\\x7f\xc3\xa9";
  EXPECT_EQ(json_escape(s), want);
  JsonWriter w;
  w.begin_object().kv(s, s).end_object();
  EXPECT_EQ(w.str(), "{\"" + want + "\":\"" + want + "\"}");
  EXPECT_EQ(json_parse(w.str()).at(s).string, s);
}

TEST(Json, RawSplicesPrerenderedValues) {
  JsonWriter inner;
  inner.begin_object().kv("a", 1).end_object();
  JsonWriter w;
  w.begin_object().key("x").raw(inner.str()).kv("y", 2).end_object();
  const JsonValue v = json_parse(w.str());
  EXPECT_EQ(v.at("x").at("a").number, 1.0);
  EXPECT_EQ(v.at("y").number, 2.0);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(json_parse("{"), std::runtime_error);
  EXPECT_THROW(json_parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json_parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(json_parse("42 garbage"), std::runtime_error);
  EXPECT_THROW(json_parse(""), std::runtime_error);
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue v =
      json_parse(R"({"a": [1, {"b": "c"}, null], "d": {"e": false}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").array.size(), 3u);
  EXPECT_EQ(v.at("a").at(1).at("b").string, "c");
  EXPECT_EQ(v.at("a").at(2).kind, JsonValue::Kind::kNull);
  EXPECT_FALSE(v.at("d").at("e").boolean);
  EXPECT_THROW(v.at("missing"), std::out_of_range);
  EXPECT_THROW(v.at("a").at(7), std::out_of_range);
}

// ---------------------------------------------------------------- metrics

TEST(Histogram, QuantilesInterpolateWithinBuckets) {
  Histogram h({1.0, 2.0, 5.0, 10.0});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i) * 0.1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 0.1);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_NEAR(h.mean(), 5.05, 1e-12);
  // Quantiles land inside the right bucket and never leave [min, max].
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.5);
  EXPECT_NEAR(h.quantile(0.9), 9.0, 0.5);
  double prev = h.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = h.quantile(q);
    EXPECT_GE(cur, prev);
    EXPECT_GE(cur, h.min());
    EXPECT_LE(cur, h.max());
    prev = cur;
  }
}

TEST(Histogram, BucketAssignmentAndOverflow) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);  // bucket 0 (<= 1)
  h.observe(1.0);  // bucket 0 (bounds are inclusive upper edges)
  h.observe(1.5);  // bucket 1
  h.observe(9.0);  // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, MergeFoldsCountsSumsAndExtremes) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.observe(0.5);
  b.observe(1.5);
  b.observe(3.0);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
  Histogram c({7.0});
  EXPECT_THROW(a.merge_from(c), std::invalid_argument);
}

TEST(Registry, CountersMergeAcrossThreadPoolThreads) {
  // One shared registry updated concurrently...
  MetricsRegistry shared;
  constexpr std::size_t kN = 10'000;
  common::ThreadPool::global().parallel_for(
      0, kN, [&](std::size_t) { shared.counter("events").add(1); }, 1);
  EXPECT_EQ(shared.counter("events").value(), kN);

  // ...and per-thread registries folded together afterwards.
  constexpr std::size_t kShards = 7;
  std::vector<MetricsRegistry> shards(kShards);
  common::ThreadPool::global().parallel_for(
      0, kShards,
      [&](std::size_t s) {
        shards[s].counter("events").add(s + 1);
        shards[s].histogram("lat", {1.0, 2.0}).observe(0.5);
      },
      1);
  MetricsRegistry merged;
  for (const auto& s : shards) merged.merge_from(s);
  EXPECT_EQ(merged.counter("events").value(), kShards * (kShards + 1) / 2);
  EXPECT_EQ(merged.histogram("lat", {1.0, 2.0}).count(), kShards);
}

TEST(Registry, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.counter("z").add(1);
  reg.counter("a").add(2);
  reg.gauge("m").set(0.5);
  reg.histogram("h").observe(1e-3);
  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "a");
  EXPECT_EQ(s.counters[1].name, "z");
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].count, 1u);
  EXPECT_EQ(s.histograms[0].bounds.size(),
            Histogram::default_time_bounds().size());
}

TEST(Sink, DetachedSinkIsInertAndCheap) {
  MetricsSink sink;  // no registry
  EXPECT_FALSE(sink.enabled());
  sink.count("never");
  sink.set("never", 1.0);
  sink.observe("never", 1.0);  // must not crash or allocate a registry
  EXPECT_EQ(sink.registry(), nullptr);
}

TEST(Registry, SnapshotJsonRoundTrips) {
  MetricsRegistry reg;
  reg.counter("pim.launches").add(42);
  reg.gauge("balance").set(1.0 / 3.0);
  reg.histogram("lat").observe(3.7e-4);
  const MetricsSnapshot snap = reg.snapshot();
  const JsonValue v = json_parse(snapshot_json(snap));
  EXPECT_EQ(v.at("counters").at(0).at("name").string, "pim.launches");
  EXPECT_EQ(v.at("counters").at(0).at("value").number, 42.0);
  const double g = v.at("gauges").at(0).at("value").number;
  const double expect_g = 1.0 / 3.0;
  EXPECT_EQ(std::memcmp(&g, &expect_g, sizeof g), 0);
  EXPECT_EQ(v.at("histograms").at(0).at("count").number, 1.0);
  EXPECT_EQ(v.at("histograms").at(0).at("bucket_counts").array.size(),
            snap.histograms[0].bucket_counts.size());
}

// ---------------------------------------------------------------- figures

TEST(FigureSink, JsonCarriesRowsAndDetail) {
  metrics::FigureSink sink("figX", {"dataset", "value"});
  sink.add_row({"sift", "1.25"}, "{\"balance_ratio\":1.25}");
  sink.add_row({"deep", "0.5"});
  const JsonValue v = json_parse(sink.json());
  EXPECT_EQ(v.at("figure").string, "figX");
  EXPECT_EQ(v.at("columns").array.size(), 2u);
  ASSERT_EQ(v.at("rows").array.size(), 2u);
  EXPECT_EQ(v.at("rows").at(0).at("dataset").string, "sift");
  EXPECT_DOUBLE_EQ(v.at("rows").at(0).at("detail").at("balance_ratio").number,
                   1.25);
  EXPECT_FALSE(v.at("rows").at(1).has("detail"));
}

// ---------------------------------------------------------------- pipeline

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::sift1b_like(9000, 51));
  ivf::IvfIndex index = build();
  data::QueryWorkload wl;
  ivf::ClusterStats stats;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 48;
    opts.pq_m = 16;
    opts.coarse_iters = 6;
    opts.pq_iters = 5;
    return ivf::IvfIndex::build(base, opts);
  }

  Fixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 48;
    spec.seed = 4;
    wl = data::generate_workload(base, spec);
    data::WorkloadSpec hist = spec;
    hist.seed = 5;
    hist.n_queries = 128;
    const auto hw = data::generate_workload(base, hist);
    stats = ivf::collect_stats(index, ivf::filter_batch(index, hw.queries, 8));
  }

  core::UpAnnsOptions options() const {
    core::UpAnnsOptions o = core::UpAnnsOptions::upanns();
    o.n_dpus = 12;
    o.nprobe = 8;
    o.k = 10;
    return o;
  }

  /// A fresh 3-batch overlapped run (16 queries per batch).
  core::BatchPipelineReport three_batches(MetricsRegistry* reg = nullptr,
                                          bool overlap = true) {
    core::UpAnnsEngine engine(index, stats, options());
    engine.set_metrics(reg);
    core::BatchStream pipeline(engine, {.overlap = overlap});
    return pipeline.run(core::split_batches(wl.queries, 16));
  }

  /// A fresh 3-batch multi-host run over a 3-host cluster.
  core::MultiHostPipelineReport multihost_batches(bool overlap = true) {
    core::MultiHostOptions opts;
    opts.n_hosts = 3;
    opts.per_host = options();
    core::MultiHostUpAnns cluster(index, stats, opts);
    core::MultiHostBatchPipeline pipeline(cluster, {.overlap = overlap});
    return pipeline.run(core::split_batches(wl.queries, 16));
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

constexpr const char* kHostStages[] = {"cluster-filter", "alg2-schedule"};
constexpr const char* kDeviceStages[] = {"uniform-push", "kernel-launch",
                                         "gather", "host-merge"};

TEST(Trace, TimelineReproducesOverlappedElapsedBitExact) {
  // Acceptance criterion: the trace's accounting of a 3-batch overlapped run
  // reproduces elapsed = h_0 + sum max(d_i, h_{i+1}) + d_last exactly.
  auto& f = fixture();
  const auto run = f.three_batches();
  ASSERT_EQ(run.slots.size(), 3u);
  ASSERT_TRUE(run.overlapped);

  const auto windows = core::batch_timeline(run);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows.back().device_end, run.elapsed_seconds);

  // Batch i+1's host prefix starts exactly when batch i's device phase does
  // (that is the overlap), and every device phase starts no earlier than its
  // own host prefix ends.
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_GE(windows[i].device_start, windows[i].pre_end);
    if (i + 1 < windows.size()) {
      EXPECT_DOUBLE_EQ(windows[i + 1].pre_start, windows[i].device_start);
    }
  }
  EXPECT_DOUBLE_EQ(windows[0].pre_start, 0.0);
}

TEST(Trace, SerialTimelineLaysBatchesBackToBack) {
  auto& f = fixture();
  const auto run = f.three_batches(nullptr, /*overlap=*/false);
  const auto windows = core::batch_timeline(run);
  ASSERT_EQ(windows.size(), 3u);
  for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
    EXPECT_DOUBLE_EQ(windows[i + 1].pre_start, windows[i].device_end);
  }
  EXPECT_NEAR(windows.back().device_end, run.elapsed_seconds,
              1e-12 * run.elapsed_seconds);
}

TEST(Trace, OneSlicePerStagePerBatchAndDeviceDurationsMatchSlots) {
  auto& f = fixture();
  const auto run = f.three_batches();
  const PipelineTrace trace = pipeline_trace(run);

  // name -> per-batch slice count, and per-batch device-lane duration sums.
  std::map<std::string, std::vector<int>> stage_slices;
  std::vector<double> device_sum(run.slots.size(), 0.0);
  std::vector<double> dpu_sum(run.slots.size(), 0.0);
  for (const TraceSlice& s : trace.slices) {
    if (s.category == "dpu") {
      dpu_sum[s.batch] += s.duration_seconds;
      continue;
    }
    auto& counts = stage_slices[s.name];
    counts.resize(run.slots.size(), 0);
    counts[s.batch] += 1;
    if (s.category == "device") device_sum[s.batch] += s.duration_seconds;
  }

  ASSERT_EQ(stage_slices.size(), 6u);  // six stages, nothing else
  for (const char* name : kHostStages) {
    ASSERT_TRUE(stage_slices.count(name)) << name;
    for (int c : stage_slices[name]) EXPECT_EQ(c, 1) << name;
  }
  for (const char* name : kDeviceStages) {
    ASSERT_TRUE(stage_slices.count(name)) << name;
    for (int c : stage_slices[name]) EXPECT_EQ(c, 1) << name;
  }

  for (std::size_t b = 0; b < run.slots.size(); ++b) {
    // Device-lane slice durations reconstruct the slot's device share (same
    // numbers summed in a different order, so last-bit tolerance).
    EXPECT_NEAR(device_sum[b], run.slots[b].device_seconds,
                1e-12 * run.slots[b].report.times.total());
    // Per-DPU busy slices sum to the PimExtras busy total for that batch.
    ASSERT_TRUE(run.slots[b].report.pim.has_value());
    double busy_total = 0;
    for (double s : run.slots[b].report.pim->dpu_busy_seconds) busy_total += s;
    EXPECT_NEAR(dpu_sum[b], busy_total, 1e-12 * (busy_total + 1e-30));
  }
}

TEST(Trace, PerfettoJsonIsValidAndCompletelyLabelled) {
  auto& f = fixture();
  const auto run = f.three_batches();
  const PipelineTrace trace = pipeline_trace(run);
  const JsonValue doc = json_parse(trace_json(trace));

  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  std::size_t n_slices = 0, n_meta = 0;
  std::map<double, std::string> lane_names;
  for (const JsonValue& e : events.array) {
    const std::string ph = e.at("ph").string;
    if (ph == "M") {
      ++n_meta;
      if (e.at("name").string == "thread_name") {
        lane_names[e.at("tid").number] = e.at("args").at("name").string;
      }
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++n_slices;
    EXPECT_GE(e.at("ts").number, 0.0);
    EXPECT_GT(e.at("dur").number, 0.0);
    EXPECT_TRUE(e.at("args").has("batch"));
    // Every slice sits on a named lane.
    EXPECT_TRUE(lane_names.count(e.at("tid").number) > 0);
  }
  EXPECT_EQ(n_slices, trace.slices.size());
  EXPECT_EQ(n_meta, trace.lanes.size() + 1);  // + process_name
  EXPECT_EQ(lane_names[0.0], "host");
  EXPECT_EQ(lane_names[1.0], "device");
  // 6 stages x 3 batches on the host/device lanes, plus >= 1 DPU slice.
  EXPECT_GT(trace.slices.size(), 18u);
}

TEST(Trace, BuildTraceLaysFiveSubstagesBackToBackOnOneLane) {
  ivf::BuildStats bs;
  bs.kmeans_seconds = 0.5;
  bs.assign_seconds = 0.25;
  bs.residual_seconds = 0.125;
  bs.pq_train_seconds = 1.0;
  bs.encode_seconds = 0.375;
  const PipelineTrace trace = build_trace(bs);
  ASSERT_EQ(trace.lanes.size(), 1u);
  EXPECT_EQ(trace.lanes[0], (std::pair<int, std::string>{0, "build"}));
  const std::vector<std::pair<std::string, double>> want = {
      {"coarse-kmeans", 0.5}, {"coarse-assign", 0.25}, {"residual", 0.125},
      {"pq-train", 1.0},      {"encode", 0.375}};
  ASSERT_EQ(trace.slices.size(), want.size());
  double cursor = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const TraceSlice& s = trace.slices[i];
    EXPECT_EQ(s.name, want[i].first);
    EXPECT_EQ(s.category, "build");
    EXPECT_EQ(s.lane, 0);
    EXPECT_EQ(s.start_seconds, cursor);
    EXPECT_EQ(s.duration_seconds, want[i].second);
    cursor += want[i].second;
  }

  const JsonValue doc = json_parse(trace_json(trace));
  std::vector<std::string> names;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").string == "M") {
      if (e.at("name").string == "thread_name") {
        EXPECT_EQ(e.at("args").at("name").string, "build");
      }
      continue;
    }
    EXPECT_EQ(e.at("tid").number, 0.0);
    names.push_back(e.at("name").string);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"coarse-kmeans", "coarse-assign",
                                             "residual", "pq-train",
                                             "encode"}));
}

TEST(Trace, MultiHostTraceCoversEveryPhaseOnNamedLanes) {
  // The multi-host exporter lays coordinator work on lane 0, the network on
  // lane 1, and each active host on lane 2+h; slice durations reconstruct
  // the per-batch phase split, and the last coordinator slice ends at
  // elapsed_seconds bit-for-bit (both come from core::batch_timeline).
  auto& f = fixture();
  const auto run = f.multihost_batches();
  ASSERT_EQ(run.slots.size(), 3u);
  const PipelineTrace trace = multihost_trace(run);

  std::map<int, std::string> lanes(trace.lanes.begin(), trace.lanes.end());
  EXPECT_EQ(lanes.at(0), "coordinator");
  EXPECT_EQ(lanes.at(1), "network");
  EXPECT_EQ(lanes.at(2), "host-0");
  ASSERT_EQ(lanes.size(), 5u);  // coordinator + network + 3 hosts

  double last_end = 0;
  std::vector<double> coord(run.slots.size(), 0.0);
  std::vector<double> net(run.slots.size(), 0.0);
  for (const TraceSlice& s : trace.slices) {
    EXPECT_TRUE(lanes.count(s.lane)) << s.name;
    if (s.lane == 0) coord[s.batch] += s.duration_seconds;
    if (s.lane == 1) net[s.batch] += s.duration_seconds;
    last_end = std::max(last_end, s.start_seconds + s.duration_seconds);
  }
  for (std::size_t b = 0; b < run.slots.size(); ++b) {
    const auto& r = run.slots[b].report;
    EXPECT_DOUBLE_EQ(coord[b], r.coord_filter_seconds + r.coord_merge_seconds);
    EXPECT_DOUBLE_EQ(net[b], r.broadcast_seconds + r.gather_seconds);
  }
  // Slice ends re-associate (start + gather) + merge, so compare to a few
  // ulps; the timeline itself is the bit-exact source of elapsed_seconds.
  EXPECT_DOUBLE_EQ(last_end, run.elapsed_seconds);
  EXPECT_EQ(core::batch_timeline(run).back().post_end,
            run.elapsed_seconds);

  const JsonValue doc = json_parse(trace_json(trace));
  EXPECT_EQ(doc.at("traceEvents").array.size(),
            trace.slices.size() + trace.lanes.size() + 1);
}

TEST(ReportJson, MultiHostPipelineReportRoundTripsBitExact) {
  auto& f = fixture();
  const auto run = f.multihost_batches();
  const JsonValue v = json_parse(multi_host_pipeline_json(run));
  auto bits_eq = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  EXPECT_TRUE(v.at("overlapped").boolean);
  EXPECT_TRUE(bits_eq(v.at("elapsed_seconds").number, run.elapsed_seconds));
  EXPECT_TRUE(bits_eq(v.at("serial_seconds").number, run.serial_seconds));
  ASSERT_EQ(v.at("slots").array.size(), run.slots.size());
  for (std::size_t i = 0; i < run.slots.size(); ++i) {
    const JsonValue& slot = v.at("slots").at(i);
    EXPECT_TRUE(
        bits_eq(slot.at("pre_seconds").number, run.slots[i].pre_seconds));
    EXPECT_TRUE(
        bits_eq(slot.at("device_seconds").number, run.slots[i].device_seconds));
    EXPECT_TRUE(
        bits_eq(slot.at("post_seconds").number, run.slots[i].post_seconds));
    const JsonValue& r = slot.at("report");
    const auto& mh = run.slots[i].report;
    EXPECT_TRUE(bits_eq(r.at("seconds").number, mh.seconds));
    EXPECT_TRUE(bits_eq(r.at("broadcast_seconds").number,
                        mh.broadcast_seconds));
    EXPECT_TRUE(
        bits_eq(r.at("coord_merge_seconds").number, mh.coord_merge_seconds));
    ASSERT_EQ(r.at("host_slots").array.size(), mh.host_slots.size());
    for (std::size_t h = 0; h < mh.host_slots.size(); ++h) {
      const JsonValue& hs = r.at("host_slots").at(h);
      EXPECT_EQ(hs.at("active").boolean, mh.host_slots[h].active);
      EXPECT_TRUE(bits_eq(hs.at("device_seconds").number,
                          mh.host_slots[h].device_seconds));
    }
  }
}

TEST(ReportJson, SearchReportRoundTripsBitExact) {
  auto& f = fixture();
  core::UpAnnsEngine engine(f.index, f.stats, f.options());
  const core::SearchReport r = engine.search(f.wl.queries);
  const JsonValue v = json_parse(search_report_json(r));

  auto bits_eq = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  const JsonValue& t = v.at("times");
  EXPECT_TRUE(bits_eq(t.at("cluster_filter").number, r.times.cluster_filter));
  EXPECT_TRUE(bits_eq(t.at("lut_build").number, r.times.lut_build));
  EXPECT_TRUE(bits_eq(t.at("distance_calc").number, r.times.distance_calc));
  EXPECT_TRUE(bits_eq(t.at("topk").number, r.times.topk));
  EXPECT_TRUE(bits_eq(t.at("transfer").number, r.times.transfer));
  EXPECT_TRUE(bits_eq(t.at("total").number, r.times.total()));

  ASSERT_EQ(v.at("trace").array.size(), r.trace.size());
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const JsonValue& s = v.at("trace").at(i);
    EXPECT_EQ(s.at("name").string, r.trace[i].name);
    EXPECT_TRUE(bits_eq(s.at("seconds").number, r.trace[i].seconds));
  }

  ASSERT_TRUE(r.pim.has_value());
  const JsonValue& px = v.at("pim");
  EXPECT_TRUE(bits_eq(px.at("balance_ratio").number, r.pim->balance_ratio));
  EXPECT_TRUE(
      bits_eq(px.at("schedule_balance").number, r.pim->schedule_balance));
  ASSERT_EQ(px.at("dpu_busy_seconds").array.size(),
            r.pim->dpu_busy_seconds.size());
  ASSERT_EQ(px.at("dpu_stage_seconds").array.size(),
            r.pim->dpu_stage_seconds.size());
  for (std::size_t d = 0; d < r.pim->dpu_stage_seconds.size(); ++d) {
    const JsonValue& sd = px.at("dpu_stage_seconds").at(d);
    EXPECT_TRUE(bits_eq(sd.at("lut").number, r.pim->dpu_stage_seconds[d].lut));
    EXPECT_TRUE(
        bits_eq(sd.at("dist").number, r.pim->dpu_stage_seconds[d].dist));
    EXPECT_TRUE(
        bits_eq(sd.at("topk").number, r.pim->dpu_stage_seconds[d].topk));
  }
}

TEST(ReportJson, BatchPipelineReportRoundTripsBitExact) {
  auto& f = fixture();
  const auto run = f.three_batches();
  const JsonValue v = json_parse(batch_pipeline_json(run));
  auto bits_eq = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  EXPECT_TRUE(v.at("overlapped").boolean);
  EXPECT_EQ(v.at("n_queries").number, 48.0);
  EXPECT_TRUE(bits_eq(v.at("elapsed_seconds").number, run.elapsed_seconds));
  EXPECT_TRUE(bits_eq(v.at("serial_seconds").number, run.serial_seconds));
  ASSERT_EQ(v.at("slots").array.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const JsonValue& slot = v.at("slots").at(i);
    EXPECT_TRUE(
        bits_eq(slot.at("host_seconds").number, run.slots[i].pre_seconds));
    EXPECT_TRUE(bits_eq(slot.at("device_seconds").number,
                        run.slots[i].device_seconds));
    EXPECT_TRUE(bits_eq(slot.at("report").at("times").at("total").number,
                        run.slots[i].report.times.total()));
  }
}

TEST(Parity, AttachingARegistryChangesNothing) {
  // Acceptance criterion: with and without a registry, reports (neighbors,
  // every stage time, per-slot split, elapsed) are bit-identical.
  auto& f = fixture();
  const auto plain = f.three_batches(nullptr);
  MetricsRegistry reg;
  const auto instrumented = f.three_batches(&reg);

  EXPECT_DOUBLE_EQ(plain.elapsed_seconds, instrumented.elapsed_seconds);
  EXPECT_DOUBLE_EQ(plain.serial_seconds, instrumented.serial_seconds);
  ASSERT_EQ(plain.slots.size(), instrumented.slots.size());
  for (std::size_t i = 0; i < plain.slots.size(); ++i) {
    const auto& a = plain.slots[i];
    const auto& b = instrumented.slots[i];
    EXPECT_DOUBLE_EQ(a.pre_seconds, b.pre_seconds);
    EXPECT_DOUBLE_EQ(a.device_seconds, b.device_seconds);
    EXPECT_EQ(a.report.neighbors, b.report.neighbors);
    EXPECT_DOUBLE_EQ(a.report.times.total(), b.report.times.total());
    ASSERT_EQ(a.report.trace.size(), b.report.trace.size());
    for (std::size_t s = 0; s < a.report.trace.size(); ++s) {
      EXPECT_DOUBLE_EQ(a.report.trace[s].seconds, b.report.trace[s].seconds);
    }
  }

  // And the registry actually saw the run.
  EXPECT_EQ(reg.counter("pipeline.batches").value(), 3u);
  EXPECT_EQ(reg.counter("pipeline.queries").value(), 48u);
  EXPECT_GE(reg.counter("pim.launches").value(), 3u);
  EXPECT_EQ(reg.histogram("pipeline.stage.kernel-launch.seconds").count(), 3u);
  EXPECT_EQ(reg.counter("batch_pipeline.runs").value(), 1u);
  EXPECT_GT(reg.counter("transfer.push.bytes").value(), 0u);
  EXPECT_GT(reg.counter("transfer.gather.bytes").value(), 0u);
  EXPECT_GT(reg.counter("schedule.assignments").value(), 0u);
}

}  // namespace
}  // namespace upanns::obs
