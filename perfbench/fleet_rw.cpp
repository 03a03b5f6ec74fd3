// fleet_rw: writes next to reads on a 3-host cluster over an updatable
// index, through MultiHostBatchPipeline::run(batches, hook).
//
// Each batch's hook upserts new vectors and removes old ids, then compacts,
// at the write mix of the repository's own update stream (`upanns_cli serve
// --update-rate 0.05`, default `--compact-ratio 0.3`). Cluster popularity (Zipf over trained clusters)
// rotates halfway through with adaptive copy adjustment on, and a metrics
// registry and span log are attached, exported at the end of every round.
// It is the only workload that exercises mutation, patching, adaptation,
// the coordinator and obs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/rng.hpp"
#include "core/multihost.hpp"
#include "data/ground_truth.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kK = 10;
constexpr std::size_t kHosts = 3;
constexpr double kZipf = 1.1;
/// Writes per query, half upserts and half removes, as `--update-rate`.
constexpr double kWriteRate = 0.05;
/// Compaction after every batch rewrites only lists with more than this
/// share of tombstones, as `--compact-ratio`'s default.
constexpr double kCompactRatio = 0.3;
constexpr std::size_t kMinBatches = 100;

struct Sizes {
  std::size_t n, clusters, dpus_per_host, nprobe, batch, phase_batches;
  std::size_t upserts;  ///< per batch, and as many removes
  explicit Sizes(bool tiny)
      : n(pick(tiny, 100'000, 6'000)),
        clusters(pick(tiny, 512, 32)),
        dpus_per_host(pick(tiny, 40, 4)),
        nprobe(pick(tiny, 16, 4)),
        batch(pick(tiny, 128, 32)),
        phase_batches(pick(tiny, 32, 3)),
        upserts(static_cast<std::size_t>(
                    kWriteRate * static_cast<double>(batch) + 0.5) /
                2) {}
  /// Phase A, phase B, then the held-out recall batch.
  std::size_t round_batches() const { return 2 * phase_batches + 1; }
};

/// Queries jittered around the centroids of Zipf-ranked trained clusters,
/// the ranking rotated by `shift`. Drifting at cluster granularity is what
/// re-shapes per-DPU load (region popularity is decorrelated from clusters
/// by the synthetic generator's shuffle).
data::Dataset zipf_cluster_queries(const ivf::IvfIndex& index, std::size_t n,
                                   std::size_t shift, std::uint64_t seed) {
  common::Rng rng(seed);
  common::ZipfSampler zipf(index.n_clusters(), kZipf);
  data::Dataset q;
  q.dim = index.dim();
  q.n = n;
  q.values.resize(n * q.dim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = (zipf.sample(rng) + shift) % index.n_clusters();
    const float* p = index.centroid(c);
    double mag = 0;
    for (std::size_t d = 0; d < q.dim; ++d) mag += std::abs(p[d]);
    const double sigma =
        0.05 * std::max(mag / static_cast<double>(q.dim), 1e-3);
    for (std::size_t d = 0; d < q.dim; ++d) {
      q.row(i)[d] = p[d] + static_cast<float>(rng.gaussian(0.0, sigma));
    }
  }
  return q;
}

struct Fleet {
  Sizes z;
  BuiltIndex built;  ///< pristine index; `extra` is the insert pool
  ivf::IvfIndex live;  ///< the mutated copy the cluster serves
  ivf::ClusterStats stats;
  std::vector<data::Dataset> batches;
  std::vector<std::uint32_t> victims;  ///< removal order over base ids
  core::MultiHostOptions opts;
  std::unique_ptr<core::MultiHostUpAnns> cluster;

  explicit Fleet(bool tiny) : z(tiny) {}
};

std::unique_ptr<Fleet> make_fleet(const RunOptions& o, SetupTimes& t) {
  auto f = std::make_unique<Fleet>(o.tiny);
  const Sizes& z = f->z;
  IndexSpec spec;
  spec.n = z.n;
  spec.clusters = z.clusters;
  spec.extra_rows = z.upserts * z.round_batches();
  f->built = build_index(spec, t);
  const ivf::IvfIndex& index = f->built.index;

  const auto t_q = Clock::now();
  const std::size_t shift = z.clusters / 3;
  const std::size_t phase_n = z.phase_batches * z.batch;
  f->batches = core::split_batches(
      zipf_cluster_queries(index, phase_n, 0, o.seed + 201), z.batch);
  for (auto& b : core::split_batches(
           zipf_cluster_queries(index, phase_n, shift, o.seed + 202),
           z.batch)) {
    f->batches.push_back(std::move(b));
  }
  f->batches.push_back(
      zipf_cluster_queries(index, z.batch, shift, o.seed + 203));
  const data::Dataset history =
      zipf_cluster_queries(index, pick(o.tiny, 2048, 256), 0, o.seed + 204);
  f->victims.resize(z.n);
  std::iota(f->victims.begin(), f->victims.end(), 0u);
  common::Rng rng(o.seed + 205);
  for (std::size_t i = z.n; i > 1; --i) {
    std::swap(f->victims[i - 1], f->victims[rng.below(i)]);
  }
  f->victims.resize(z.upserts * z.round_batches());
  t.gen += seconds_since(t_q);

  f->stats = history_stats(index, history, z.nprobe, t);

  const auto t_e = Clock::now();
  f->opts.n_hosts = kHosts;
  f->opts.per_host = core::UpAnnsOptions::upanns();
  f->opts.per_host.n_dpus = z.dpus_per_host;
  f->opts.per_host.nprobe = z.nprobe;
  f->opts.per_host.k = kK;
  f->live = index;
  f->cluster =
      std::make_unique<core::MultiHostUpAnns>(f->live, f->stats, f->opts);
  t.engine += seconds_since(t_e);
  return f;
}

/// Host and simulated numbers of one round (a fresh cluster over the
/// pristine index, every batch with its writes, then the obs export).
struct Round {
  double wall = 0;
  std::vector<double> batch_ms;
  double upsert_s = 0, remove_s = 0, compact_s = 0;
  double export_s = 0;
  std::size_t export_bytes = 0;
  Digest digest;
  std::vector<std::vector<common::Neighbor>> heldout;
  std::map<std::string, double> sim;  ///< simulated per-layer values
  double sim_qps = 0;
};

double counter(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0;
}

double histogram_sum(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return h.sum;
  }
  return 0;
}

/// Replace the cluster with a fresh one over the pristine index.
void reset_cluster(Fleet& f) {
  f.cluster.reset();
  f.live = f.built.index;
  f.cluster = std::make_unique<core::MultiHostUpAnns>(f.live, f.stats, f.opts);
}

/// `fine` adds timers around each write call; the batch boundaries and the
/// export are timed either way.
Round run_round(Fleet& f, bool fine) {
  const Sizes& z = f.z;
  obs::MetricsRegistry registry;
  obs::SpanLog spans;
  f.cluster->set_metrics(&registry);
  f.cluster->set_spans(&spans);
  core::MultiHostPipelineOptions popts;
  popts.overlap = true;
  popts.adapt = core::AdaptMode::kCopies;
  popts.adaptive.window_batches = 4;
  core::MultiHostBatchPipeline pl(*f.cluster, popts);

  Round out;
  std::vector<Clock::time_point> hook_in, hook_out;
  // The stages set these gauges per host and batch; read between batches
  // they hold the last host's value for the batch just served.
  obs::Gauge& balance = registry.gauge("pim.balance_ratio");
  obs::Gauge& sched_balance = registry.gauge("pim.schedule_balance");
  std::vector<double> balance_after, sched_balance_after;
  const auto read_balance = [&] {
    balance_after.push_back(balance.value());
    sched_balance_after.push_back(sched_balance.value());
  };
  std::vector<std::uint32_t> ids(z.upserts);
  const auto timed = [&](double& acc, const auto& fn) {
    const auto t0 = fine ? Clock::now() : Clock::time_point{};
    fn();
    if (fine) acc += seconds_since(t0);
  };
  const auto hook = [&](std::size_t i) {
    hook_in.push_back(Clock::now());
    if (i > 0) read_balance();
    const std::size_t first = i * z.upserts;
    std::iota(ids.begin(), ids.end(), static_cast<std::uint32_t>(z.n + first));
    timed(out.upsert_s, [&] {
      f.cluster->upsert(ids,
                        std::span<const float>(f.built.extra.row(first),
                                               z.upserts * f.built.extra.dim));
    });
    timed(out.remove_s, [&] {
      f.cluster->remove(std::span<const std::uint32_t>(
          f.victims.data() + first, z.upserts));
    });
    timed(out.compact_s, [&] { f.cluster->compact(kCompactRatio); });
    hook_out.push_back(Clock::now());
  };

  const auto t0 = Clock::now();
  const core::MultiHostPipelineReport rep = pl.run(f.batches, hook);
  const auto t_end = Clock::now();
  read_balance();
  // The operator's export: Perfetto trace with the span forest, span JSON
  // and Prometheus text, all in memory.
  const auto t_exp = Clock::now();
  out.export_bytes =
      obs::trace_json(obs::multihost_trace(rep), &spans).size() +
      obs::span_log_json(spans).size();
  const obs::MetricsSnapshot snap = registry.snapshot();
  out.export_bytes += obs::prometheus_text(snap).size();
  out.export_s = seconds_since(t_exp);
  out.wall = std::chrono::duration<double>(t_end - t0).count() + out.export_s;
  f.cluster->set_metrics(nullptr);
  f.cluster->set_spans(nullptr);

  for (std::size_t i = 0; i < hook_out.size(); ++i) {
    const auto end = i + 1 < hook_in.size() ? hook_in[i + 1] : t_end;
    out.batch_ms.push_back(
        std::chrono::duration<double, std::milli>(end - hook_out[i]).count());
  }
  for (const core::MultiHostBatchSlot& slot : rep.slots) {
    out.digest.add(slot.report.neighbors);
  }
  out.heldout = rep.slots.back().report.neighbors;
  out.sim_qps = rep.qps;

  // Simulated layers, per batch unless noted.
  const double nb = static_cast<double>(rep.slots.size());
  const double nq = static_cast<double>(rep.n_queries);
  double patch_b = 0, patch_s = 0, adapt_b = 0, adapt_s = 0, actions = 0;
  double coord_f = 0, net = 0, coord_m = 0, slowest = 0;
  double lut = 0, dist = 0, topk = 0;
  double post_adapt = 0, drifted_balance = 0, drifted_sched = 0;
  for (std::size_t i = 0; i < rep.slots.size(); ++i) {
    const core::MultiHostBatchSlot& slot = rep.slots[i];
    if (slot.adapt_action != core::AdaptAction::kNone) {
      post_adapt += balance_after[i];
    }
    if (i >= z.phase_batches) {
      drifted_balance += balance_after[i];
      drifted_sched += sched_balance_after[i];
    }
    patch_b += static_cast<double>(slot.patch_bytes);
    patch_s += slot.patch_seconds;
    adapt_b += static_cast<double>(slot.adapt_bytes);
    adapt_s += slot.adapt_seconds;
    actions += slot.adapt_action != core::AdaptAction::kNone ? 1 : 0;
    coord_f += slot.report.coord_filter_seconds;
    net += slot.report.network_seconds;
    coord_m += slot.report.coord_merge_seconds;
    slowest += slot.report.slowest_host_seconds;
    for (const auto& ht : slot.report.host_times) {
      lut += ht.lut_build;
      dist += ht.distance_calc;
      topk += ht.topk;
    }
  }
  double image = 0;
  for (std::size_t h = 0; h < f.cluster->n_hosts(); ++h) {
    if (f.cluster->host_active(h)) {
      image += static_cast<double>(f.cluster->host_engine(h).load_image_bytes());
    }
  }
  static const char* const kStageNames[6] = {
      "cluster-filter", "alg2-schedule", "uniform-push",
      "kernel-launch",  "gather",        "host-merge"};
  for (int i = 0; i < 6; ++i) {
    out.sim[std::string("sim.") + kStageKeys[i] + "_ms"] =
        histogram_sum(snap, std::string("pipeline.stage.") + kStageNames[i] +
                                ".seconds") /
        nb * 1e3;
  }
  out.sim["sim.lut_ms"] = lut / nb * 1e3;
  out.sim["sim.distance_ms"] = dist / nb * 1e3;
  out.sim["sim.topk_ms"] = topk / nb * 1e3;
  const double drifted = nb - static_cast<double>(z.phase_batches);
  out.sim["pim.balance_ratio"] = drifted_balance / drifted;
  out.sim["core.schedule_balance"] = drifted_sched / drifted;
  out.sim["kernel.scanned_per_query"] =
      counter(snap, "kernel.scanned_records") / nq;
  const double pruned = counter(snap, "kernel.merge_pruned");
  const double merges = pruned + counter(snap, "kernel.merge_insertions");
  out.sim["kernel.merge_pruned_share"] = merges > 0 ? pruned / merges : 0;
  out.sim["pim.push_bytes"] = counter(snap, "transfer.push.bytes") / nb;
  out.sim["pim.gather_bytes"] = counter(snap, "transfer.gather.bytes") / nb;
  out.sim["core.patch_bytes"] = patch_b / nb;
  out.sim["core.patch_image_share"] = image > 0 ? patch_b / nb / image : 0;
  out.sim["sim.patch_ms"] = patch_s / nb * 1e3;
  out.sim["adapt.actions"] = actions;
  out.sim["adapt.bytes"] = adapt_b;
  out.sim["sim.adapt_ms"] = adapt_s / nb * 1e3;
  out.sim["adapt.balance_post"] = actions > 0 ? post_adapt / actions : 0;
  out.sim["mh.coord_filter_ms"] = coord_f / nb * 1e3;
  out.sim["mh.network_ms"] = net / nb * 1e3;
  out.sim["mh.coord_merge_ms"] = coord_m / nb * 1e3;
  out.sim["mh.slowest_host_ms"] = slowest / nb * 1e3;
  return out;
}

/// Exact top-k over the live set after a round's last write, with ids
/// mapped back from live-set rows.
std::vector<std::vector<common::Neighbor>> exact_after_writes(const Fleet& f) {
  const Sizes& z = f.z;
  const std::size_t n_upserts = z.upserts * z.round_batches();
  std::vector<std::uint8_t> removed(z.n, 0);
  for (std::uint32_t v : f.victims) removed[v] = 1;
  data::Dataset live;
  live.dim = f.built.base.dim;
  std::vector<std::uint32_t> id_of;
  for (std::size_t i = 0; i < z.n; ++i) {
    if (removed[i]) continue;
    live.values.insert(live.values.end(), f.built.base.row(i),
                       f.built.base.row(i) + live.dim);
    id_of.push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t j = 0; j < n_upserts; ++j) {
    live.values.insert(live.values.end(), f.built.extra.row(j),
                       f.built.extra.row(j) + live.dim);
    id_of.push_back(static_cast<std::uint32_t>(z.n + j));
  }
  live.n = id_of.size();
  auto exact = data::exact_topk(live, f.batches.back(), kK);
  for (auto& list : exact) {
    for (common::Neighbor& nb : list) nb.id = id_of[nb.id];
  }
  return exact;
}

struct Phase {
  double wall = 0;
  std::size_t queries = 0, rounds = 0;
  /// Queries per host second of each round: host_qps is their median, so a
  /// stall of the shared host moves one round, not the result.
  std::vector<double> round_qps;
  std::vector<double> batch_ms, reset_s;
  double upsert_s = 0, remove_s = 0, compact_s = 0;
  std::vector<double> export_ms;
  std::size_t export_bytes = 0;
  Round first;
};

/// Rounds until `seconds` of timed work and kMinBatches batches have
/// passed, each on a fresh cluster (the reset is untimed); every round must
/// repeat round 0 exactly.
Phase run_phase(Fleet& f, double seconds, bool fine, Result& r) {
  Phase p;
  while (p.wall < seconds || p.batch_ms.size() < kMinBatches) {
    const auto t_reset = Clock::now();
    reset_cluster(f);
    p.reset_s.push_back(seconds_since(t_reset));
    Round rd = run_round(f, fine);
    const std::size_t round_queries = f.z.batch * f.z.round_batches();
    p.wall += rd.wall;
    p.queries += round_queries;
    p.round_qps.push_back(static_cast<double>(round_queries) / rd.wall);
    p.batch_ms.insert(p.batch_ms.end(), rd.batch_ms.begin(), rd.batch_ms.end());
    p.upsert_s += rd.upsert_s;
    p.remove_s += rd.remove_s;
    p.compact_s += rd.compact_s;
    p.export_ms.push_back(rd.export_s * 1e3);
    p.export_bytes = rd.export_bytes;
    if (p.rounds == 0) {
      p.first = std::move(rd);
    } else {
      r.check(rd.digest == p.first.digest && rd.sim_qps == p.first.sim_qps &&
                  rd.sim == p.first.sim,
              "round " + std::to_string(p.rounds) +
                  " differs from round 0 (neighbors or simulated numbers)");
    }
    ++p.rounds;
  }
  return p;
}

}  // namespace

void run_fleet_rw(const RunOptions& o, Result& r) {
  auto f = repeated_setup<Fleet>(setup_reps(o), r, [&](SetupTimes& t) {
    return make_fleet(o, t);
  });

  // Untimed warm-up round on the cluster the set-up built.
  run_round(*f, false);
  const Phase p = run_phase(*f, o.seconds, false, r);
  r.attempted += p.queries;
  const double host_qps = median(p.round_qps);
  r.e2e("host_qps", host_qps);
  r.e2e("batch_p50_ms", common::percentile(p.batch_ms, 0.5));
  r.e2e("batch_p90_ms", common::percentile(p.batch_ms, 0.9));
  // Closed loop: a query's latency is its batch's wall time.
  r.e2e("req_p50_ms", common::percentile(p.batch_ms, 0.5));
  r.e2e("sim_qps", p.first.sim_qps);
  r.sign("sim_qps", p.first.sim_qps);
  for (const auto& [name, v] : p.first.sim) {
    r.layer(name, v);
    r.sign(name, v);
  }

  const auto exact = exact_after_writes(*f);
  const double recall = data::recall_at_k(exact, p.first.heldout, kK);
  r.e2e("recall_at_10", recall);
  r.sign("recall_at_10", recall);
  r.check(recall >= recall_floor(o, 0.3), "recall_at_10 below floor");
  r.signature["neighbors"] = p.first.digest.hex();
  std::printf("fleet_rw: %zu rounds, %zu batches, %.1f host qps, reset "
              "%.3f s/round, neighbors digest %s, recall@10 %.4f\n",
              p.rounds, p.batch_ms.size(), host_qps, median(p.reset_s),
              p.first.digest.hex().c_str(), recall);

  if (!o.trace) return;

  const Phase t = run_phase(*f, o.seconds, true, r);
  r.attempted += t.queries;
  r.check(t.first.digest == p.first.digest,
          "traced neighbors differ from the untraced run");
  const double nb = static_cast<double>(t.batch_ms.size());
  r.layer("core.upsert_ms", t.upsert_s / nb * 1e3);
  r.layer("core.remove_ms", t.remove_s / nb * 1e3);
  r.layer("core.compact_ms", t.compact_s / nb * 1e3);
  r.layer("obs.export_ms", median(t.export_ms));
  r.layer("obs.export_bytes", static_cast<double>(t.export_bytes));
  r.layer("trace.qps_ratio", median(t.round_qps) / host_qps);
}

}  // namespace perfbench
