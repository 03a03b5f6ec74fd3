// Host wall-clock throughput of the serving loop (NOT simulated seconds).
//
// Every other bench reports the cost model's simulated time; this one times
// how fast the *simulator itself* serves a fixed workload on the host CPU —
// the number the zero-allocation hot path (scratch arenas, borrowed MRAM
// views, launch-object reuse) is meant to improve. Four serve variants run
// over the same pre-built index: single-host and 3-host, each with batch
// overlap on and off (overlap changes time accounting only, so its host
// cost should be identical — a useful sanity axis).
//
// Output: BENCH_host.json (override with --out) with top-level
// `wall_seconds` / `queries_per_second` covering the whole serve phase and
// a per-stage breakdown under `stages`, each stage carrying its own
// wall_seconds + queries_per_second. `--quick` shrinks the workload for CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "core/multihost.hpp"
#include "core/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/provenance.hpp"

using namespace upanns;
using namespace upanns::bench;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct StageResult {
  double wall_seconds = 0;
  std::size_t queries = 0;

  double qps() const {
    return wall_seconds > 0 ? static_cast<double>(queries) / wall_seconds : 0;
  }
};

void write_stage(obs::JsonWriter& w, const char* name, const StageResult& r) {
  w.key(name).begin_object();
  w.kv("wall_seconds", r.wall_seconds);
  w.kv("queries_per_second", r.qps());
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_host.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  Config cfg;
  cfg.family = data::DatasetFamily::kSiftLike;
  cfg.n = quick ? 40'000 : 120'000;
  cfg.scaled_ivf = quick ? 128 : 256;
  cfg.paper_ivf = 4096;
  cfg.n_dpus = quick ? 32 : 64;
  cfg.n_queries = quick ? 256 : 768;
  cfg.nprobe = quick ? 16 : 32;
  const std::size_t batch = quick ? 64 : 128;
  const int reps = quick ? 1 : 3;

  metrics::banner("HostThroughput",
                  std::string("Host wall-clock of the serving loop (") +
                      (quick ? "quick" : "full") + " workload)");

  const double t_build0 = now_seconds();
  Context& ctx = context_for(cfg);
  StageResult build;
  build.wall_seconds = now_seconds() - t_build0;
  build.queries = 0;

  const auto batches = core::split_batches(ctx.workload.queries, batch);
  const std::size_t queries_per_rep = ctx.workload.queries.n;
  const core::UpAnnsOptions opts = upanns_options(cfg);

  // --- Single host: one engine, one BatchStream per accounting mode.
  // The engine's kernel pool persists across repetitions (and modes), so
  // reps >= 2 time the warm (allocation-free) path; the first overlapped rep
  // includes kernel-pool construction.
  const double t_load0 = now_seconds();
  auto backend = make_backend(core::BackendKind::kUpAnns, cfg, &opts);
  auto& engine = static_cast<core::UpAnnsBackend&>(*backend).engine();
  const double engine_load_seconds = now_seconds() - t_load0;

  StageResult single_overlap, single_serial;
  core::BatchPipelineReport last_single;
  {
    core::BatchStream pl(engine, {.overlap = true});
    const double t0 = now_seconds();
    for (int r = 0; r < reps; ++r) last_single = pl.run(batches);
    single_overlap.wall_seconds = now_seconds() - t0;
    single_overlap.queries = queries_per_rep * reps;
  }
  {
    core::BatchStream pl(engine, {.overlap = false});
    const double t0 = now_seconds();
    for (int r = 0; r < reps; ++r) pl.run(batches);
    single_serial.wall_seconds = now_seconds() - t0;
    single_serial.queries = queries_per_rep * reps;
  }

  // --- Multi host: 3-way cluster shard under one coordinator.
  core::MultiHostOptions mh_opts;
  mh_opts.n_hosts = 3;
  mh_opts.per_host = opts;
  core::MultiHostUpAnns multi(*ctx.index, ctx.stats, mh_opts);

  StageResult multi_overlap, multi_serial;
  {
    core::MultiHostBatchPipeline pl(multi, {.overlap = true});
    const double t0 = now_seconds();
    for (int r = 0; r < reps; ++r) pl.run(batches);
    multi_overlap.wall_seconds = now_seconds() - t0;
    multi_overlap.queries = queries_per_rep * reps;
  }
  {
    core::MultiHostBatchPipeline pl(multi, {.overlap = false});
    const double t0 = now_seconds();
    for (int r = 0; r < reps; ++r) pl.run(batches);
    multi_serial.wall_seconds = now_seconds() - t0;
    multi_serial.queries = queries_per_rep * reps;
  }

  StageResult serve;  // the whole serve phase (everything but the build)
  serve.wall_seconds = single_overlap.wall_seconds +
                       single_serial.wall_seconds +
                       multi_overlap.wall_seconds + multi_serial.wall_seconds;
  serve.queries = single_overlap.queries + single_serial.queries +
                  multi_overlap.queries + multi_serial.queries;

  metrics::Table table({"stage", "wall_s", "host_qps"});
  const auto row = [&](const char* name, const StageResult& r) {
    table.add_row({name, metrics::Table::fmt(r.wall_seconds, 3),
                   metrics::Table::fmt(r.qps(), 1)});
  };
  row("build(index+workload)", build);
  const auto sub = [&](const char* name, double seconds) {
    table.add_row({name, metrics::Table::fmt(seconds, 3), "-"});
  };
  sub("  build/data_gen", ctx.data_gen_seconds);
  sub("  build/coarse_kmeans", ctx.build_stats.kmeans_seconds);
  sub("  build/coarse_assign", ctx.build_stats.assign_seconds);
  sub("  build/residual", ctx.build_stats.residual_seconds);
  sub("  build/pq_train", ctx.build_stats.pq_train_seconds);
  sub("  build/encode", ctx.build_stats.encode_seconds);
  sub("  build/workload", ctx.workload_seconds);
  sub("  build/stats", ctx.stats_seconds);
  sub("  build/engine_load", engine_load_seconds);
  row("single_host_overlap", single_overlap);
  row("single_host_serial", single_serial);
  row("multi_host_overlap", multi_overlap);
  row("multi_host_serial", multi_serial);
  row("serve_total", serve);
  table.print();
  std::printf("\nSimulated QPS of the last single-host run: %.1f "
              "(unchanged by host-side speedups)\n",
              last_single.qps);

  obs::JsonWriter w;
  w.begin_object();
  obs::append_provenance(w);
  w.kv("schema", "upanns.bench_host.v2");
  w.kv("quick", quick);
  w.key("config").begin_object();
  w.kv("n", static_cast<std::uint64_t>(cfg.n));
  w.kv("n_dpus", static_cast<std::uint64_t>(cfg.n_dpus));
  w.kv("n_queries", static_cast<std::uint64_t>(cfg.n_queries));
  w.kv("nprobe", static_cast<std::uint64_t>(cfg.nprobe));
  w.kv("batch", static_cast<std::uint64_t>(batch));
  w.kv("reps", static_cast<std::int64_t>(reps));
  w.end_object();
  w.kv("wall_seconds", serve.wall_seconds);
  w.kv("queries_per_second", serve.qps());
  w.kv("simulated_qps", last_single.qps);
  w.key("stages").begin_object();
  w.key("build").begin_object();
  w.kv("wall_seconds", build.wall_seconds);
  w.kv("queries_per_second", build.qps());
  // Where the build wall went (schema v2): index training dominates; the
  // workload/stats substages cover query generation and frequency history.
  w.key("substages").begin_object();
  w.kv("data_gen_seconds", ctx.data_gen_seconds);
  w.kv("coarse_kmeans_seconds", ctx.build_stats.kmeans_seconds);
  w.kv("coarse_assign_seconds", ctx.build_stats.assign_seconds);
  w.kv("residual_seconds", ctx.build_stats.residual_seconds);
  w.kv("pq_train_seconds", ctx.build_stats.pq_train_seconds);
  w.kv("encode_seconds", ctx.build_stats.encode_seconds);
  w.kv("workload_seconds", ctx.workload_seconds);
  w.kv("stats_seconds", ctx.stats_seconds);
  w.kv("engine_load_seconds", engine_load_seconds);
  w.end_object();
  w.end_object();
  write_stage(w, "single_host_overlap", single_overlap);
  write_stage(w, "single_host_serial", single_serial);
  write_stage(w, "multi_host_overlap", multi_overlap);
  write_stage(w, "multi_host_serial", multi_serial);
  w.end_object();
  w.end_object();

  std::ofstream f(out_path);
  f << w.str() << "\n";
  if (!f) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
