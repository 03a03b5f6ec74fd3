// online_zipf: serving through serve::Server over a core::BatchStream.
//
// A closed-loop phase keeps one full batch outstanding and measures the
// server's capacity. Then one seeded Poisson submitter (the main thread)
// sends single queries at a fixed 700 req/s, well below that capacity; the
// server forms batches under a 2 ms deadline. Those batches hold a few
// queries, so per-batch fixed costs (push, gather and merge loop over every
// DPU) and the serve queue dominate.
#include <cmath>
#include <cstdio>
#include <future>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "data/ground_truth.hpp"
#include "serve/executors.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kK = 10;
/// Full batches the closed-loop phase runs (batch_p90_ms needs at least
/// ten samples beyond it).
constexpr std::size_t kMinBatches = 100;
constexpr std::size_t kMaxBatch = 64;
constexpr double kDeadlineSeconds = 2e-3;
constexpr std::size_t kQueueCapacity = 1024;
/// Percentile window: at 700 req/s a 2 s window holds ~1400 requests, so
/// its p99 has ~14 samples beyond it.
constexpr double kWindowSeconds = 2.0;

/// The open-loop schedule: when each request is due and which pool query
/// it sends. Fixed by the seed and the run length.
struct Schedule {
  std::vector<double> due;        ///< seconds after the phase start
  std::vector<std::size_t> query;
};

Schedule make_schedule(std::uint64_t seed, double rate, double seconds,
                       std::size_t pool) {
  common::Rng rng(seed);
  Schedule s;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    s.due.push_back(t);
    s.query.push_back(static_cast<std::size_t>(rng.below(pool)));
  }
  return s;
}

/// Latency samples tagged with the window they fall in, so a percentile
/// can be taken per window and the median over windows reported: a stall
/// of the shared host then moves one window, not the result.
struct Windowed {
  std::vector<std::vector<double>> windows;

  explicit Windowed(double seconds)
      : windows(static_cast<std::size_t>(
            std::max(1.0, std::ceil(seconds / kWindowSeconds)))) {}
  /// Samples past the last window (batches dispatched after the schedule
  /// ended) count toward it.
  void add(double at_seconds, double value) {
    const auto w = std::min(
        windows.size() - 1,
        static_cast<std::size_t>(std::max(0.0, at_seconds) / kWindowSeconds));
    windows[w].push_back(value);
  }
  /// Median over windows of each window's percentile p (p in [0, 1]).
  double median_of(double p) const {
    std::vector<double> per;
    for (const auto& w : windows) {
      if (!w.empty()) per.push_back(common::percentile(w, p));
    }
    return median(per);
  }
};

struct OpenLoop {
  explicit OpenLoop(double seconds) : latency_ms(seconds), exec_ms(seconds) {}
  Windowed latency_ms;                ///< due -> complete, completed requests
  std::vector<double> late_ms;        ///< due -> enqueued, every request
  std::vector<double> queue_wait_ms;  ///< enqueued -> batch dispatch
  Windowed exec_ms;                   ///< per batch, dispatch -> complete
  std::size_t batches = 0;
  double batch_size_mean = 0;
  double deadline_close_share = 0;
  std::uint64_t completed = 0, rejected = 0, failed = 0;
  double recall = 0;
  Digest digest;
};

serve::ServeOptions serve_options(std::size_t dim) {
  serve::ServeOptions so;
  so.dim = dim;
  so.policy.max_batch = kMaxBatch;
  so.policy.deadline_seconds = kDeadlineSeconds;
  so.queue_capacity = kQueueCapacity;
  return so;
}

/// Closed loop through the server: one client submits a full batch of
/// requests and waits for all of them before the next, so batches close
/// full and the server runs at capacity.
struct ClosedLoop {
  double wall = 0;
  std::uint64_t completed = 0, rejected = 0, failed = 0;
  std::vector<double> exec_ms;  ///< per batch, dispatch -> complete
};

ClosedLoop closed_loop(const serve::BatchExecutor& exec,
                       const data::Dataset& pool, std::size_t batches) {
  serve::Server server(exec, serve_options(pool.dim));
  ClosedLoop out;
  std::vector<std::future<serve::RequestResult>> futures;
  const auto t0 = Clock::now();
  for (std::size_t b = 0; b < batches; ++b) {
    futures.clear();
    for (std::size_t j = 0; j < kMaxBatch; ++j) {
      const float* q = pool.row((b * kMaxBatch + j) % pool.n);
      auto f = server.try_submit(std::span<const float>(q, pool.dim));
      if (f) {
        futures.push_back(std::move(*f));
      } else {
        ++out.rejected;
      }
    }
    for (auto& f : futures) {
      try {
        f.get();
        ++out.completed;
      } catch (const std::exception&) {
        ++out.failed;
      }
    }
  }
  out.wall = seconds_since(t0);
  server.drain();
  for (const serve::BatchRecord& b : server.batch_log()) {
    out.exec_ms.push_back((b.complete_seconds - b.dispatch_seconds) * 1e3);
  }
  return out;
}

OpenLoop open_loop(const serve::BatchExecutor& exec, const data::Dataset& pool,
                   const Schedule& sched, double seconds,
                   const std::vector<std::vector<common::Neighbor>>& exact) {
  serve::Server server(exec, serve_options(pool.dim));

  // Map the schedule onto the server clock, starting slightly ahead. `base`
  // and the server clock are read together, so both share one origin.
  constexpr double kLead = 5e-3;
  const auto base = Clock::now();
  const double start = server.now_seconds() + kLead;
  std::vector<std::optional<std::future<serve::RequestResult>>> futures;
  futures.reserve(sched.due.size());
  for (std::size_t i = 0; i < sched.due.size(); ++i) {
    std::this_thread::sleep_until(
        base + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(kLead + sched.due[i])));
    futures.push_back(server.try_submit(
        std::span<const float>(pool.row(sched.query[i]), pool.dim)));
  }
  server.drain();

  OpenLoop out(seconds);
  const serve::ServeStats st = server.stats();
  out.completed = st.completed;
  out.rejected = st.rejected;
  out.failed = st.failed;
  double recall_sum = 0;
  std::size_t n_done = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (!futures[i]) continue;
    try {
      const serve::RequestResult rr = futures[i]->get();
      out.digest.add(rr.neighbors);
      std::vector<std::vector<common::Neighbor>> got{rr.neighbors};
      std::vector<std::vector<common::Neighbor>> want{exact[sched.query[i]]};
      recall_sum += data::recall_at_k(want, got, kK);
      out.latency_ms.add(sched.due[i],
                         (rr.complete_seconds - start - sched.due[i]) * 1e3);
      ++n_done;
    } catch (const std::exception&) {
      // Counted through ServeStats::failed.
    }
  }
  out.recall = n_done == 0 ? 0 : recall_sum / static_cast<double>(n_done);
  for (const serve::RequestRecord& rec : server.request_log()) {
    out.late_ms.push_back((rec.enqueue_seconds - start - sched.due[rec.id]) *
                          1e3);
    out.queue_wait_ms.push_back(rec.queue_wait() * 1e3);
  }
  double sizes = 0;
  for (const serve::BatchRecord& b : server.batch_log()) {
    out.exec_ms.add(b.dispatch_seconds - start,
                    (b.complete_seconds - b.dispatch_seconds) * 1e3);
    sizes += static_cast<double>(b.size);
  }
  out.batches = st.batches;
  if (st.batches > 0) {
    out.batch_size_mean = sizes / static_cast<double>(st.batches);
    out.deadline_close_share = static_cast<double>(st.deadline_closes) /
                               static_cast<double>(st.batches);
  }
  return out;
}

}  // namespace

void run_online_zipf(const RunOptions& o, Result& r) {
  const std::size_t nprobe = pick(o.tiny, 32, 8);
  const std::size_t pool_n = pick(o.tiny, 1024, 128);
  const double rate = o.tiny ? 300.0 : 700.0;
  auto s = repeated_setup<SingleHost>(
      setup_reps(o), r, [&](SetupTimes& t) {
        return make_single_host(o, nprobe, pool_n, 0, t);
      });
  const auto exact = data::exact_topk(s->built.base, s->queries, kK);

  // Warm-up and simulated capacity: the pool as full 64-query batches. Its
  // batch formation is fixed, unlike the open loop's, so sim_qps repeats.
  core::BatchStream stream(*s->engine,
                           {.overlap = true, .book_query_latency = false});
  const auto full = core::split_batches(s->queries, kMaxBatch);
  for (const data::Dataset& b : full) stream.run_batch(b);
  const double sim_qps = stream.finish().qps;
  r.e2e("sim_qps", sim_qps);
  r.sign("sim_qps", sim_qps);

  // Capacity through the server: host_qps and the batch times.
  const ClosedLoop cap = closed_loop(serve::stream_executor(stream),
                                     s->queries, kMinBatches);
  stream.finish();
  r.attempted += cap.completed + cap.rejected + cap.failed;
  r.failed += cap.rejected + cap.failed;
  const double host_qps = static_cast<double>(cap.completed) / cap.wall;
  r.e2e("host_qps", host_qps);
  r.e2e("batch_p50_ms", common::percentile(cap.exec_ms, 0.5));
  r.e2e("batch_p90_ms", common::percentile(cap.exec_ms, 0.9));
  std::printf("online_zipf: %.1f sim qps; closed-loop capacity %.1f host qps "
              "over %zu batches; offered %.0f req/s open loop\n",
              sim_qps, host_qps, cap.exec_ms.size(), rate);

  const Schedule sched =
      make_schedule(o.seed + 104, rate, o.seconds, s->queries.n);
  const OpenLoop u =
      open_loop(serve::stream_executor(stream), s->queries, sched,
                o.seconds, exact);
  const core::BatchPipelineReport served = stream.finish();

  const std::uint64_t sent = sched.due.size();
  r.attempted += sent;
  r.failed += u.rejected + u.failed;
  r.check(u.completed == sent, "every request completed");
  r.check(u.recall >= recall_floor(o, 0.55), "recall_at_10 below floor");
  r.e2e("req_p50_ms", u.latency_ms.median_of(0.5));
  r.e2e("recall_at_10", u.recall);
  r.sign("recall_at_10", u.recall);
  r.signature["neighbors"] = u.digest.hex();
  std::printf("online_zipf: %llu requests, %zu batches, neighbors digest %s, "
              "recall@10 %.4f\n",
              static_cast<unsigned long long>(sent), u.batches,
              u.digest.hex().c_str(), u.recall);

  r.layer("serve.queue_wait_p50_ms",
          common::percentile(u.queue_wait_ms, 0.5));
  r.layer("serve.exec_p50_ms", u.exec_ms.median_of(0.5));
  r.layer("serve.batch_size_mean", u.batch_size_mean);
  r.layer("serve.deadline_close_share", u.deadline_close_share);
  r.layer("gen.late_p99_ms", common::percentile(u.late_ms, 0.99));
  r.layer("serve.req_p99_ms", u.latency_ms.median_of(0.99));
  // Batch formation depends on timing, so these simulated layers do not
  // repeat exactly and stay out of the signature.
  SimLayers sim;
  for (const core::BatchSlot& slot : served.slots) sim.add(slot.report);
  sim.emit(r, /*sign=*/false);

  if (!o.trace) return;

  // Traced phase: the same schedule, executed by the six public stage
  // objects, each timed. Neighbors must equal the untraced phase's.
  StagedPipeline pipeline(*s->engine);
  const serve::BatchExecutor staged = [&](const data::Dataset& b) {
    core::SearchReport rep = pipeline.run(b);
    serve::ExecResult er;
    er.neighbors = std::move(rep.neighbors);
    er.sim_seconds = rep.times.total();
    return er;
  };
  for (const data::Dataset& b : full) staged(b);  // warm the kernel pool
  const ClosedLoop tcap = closed_loop(staged, s->queries, kMinBatches);
  r.attempted += tcap.completed + tcap.rejected + tcap.failed;
  r.failed += tcap.rejected + tcap.failed;
  r.layer("trace.qps_ratio",
          static_cast<double>(tcap.completed) / tcap.wall / host_qps);
  // The stage timings below cover the open loop's small batches only.
  pipeline.reset();

  const OpenLoop t = open_loop(staged, s->queries, sched, o.seconds, exact);
  r.attempted += sent;
  r.failed += t.rejected + t.failed;
  r.check(t.digest == u.digest, "traced neighbors differ from the untraced run");
  pipeline.emit(r);
}

}  // namespace perfbench
