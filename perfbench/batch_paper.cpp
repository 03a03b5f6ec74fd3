// batch_paper: closed-loop, read-only, single host at the paper's shape.
//
// Most host time goes to kernel simulation (pim.launch_ms) and most
// simulated time to the kernel (LUT build at this list length). Serve,
// mutation, adaptation, multi-host and obs are bypassed, so a change to
// those layers must leave this workload unchanged.
#include <cstdio>

#include "core/pipeline.hpp"
#include "data/ground_truth.hpp"
#include "data/query_workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kK = 10;
/// batch_p90_ms needs at least ten samples beyond it.
constexpr std::size_t kMinBatches = 100;

/// One measured phase over BatchStream: rounds of the same batch list until
/// `seconds` of timed work and kMinBatches batches have passed. Every round
/// must repeat round 0's neighbors and simulated numbers exactly.
struct StreamPhase {
  double wall = 0;
  std::size_t queries = 0;
  std::size_t rounds = 0;
  /// Queries per host second of each round: host_qps is their median, so a
  /// stall of the shared host moves one round, not the result.
  std::vector<double> round_qps;
  std::vector<double> batch_ms;
  std::vector<double> finish_ms;
  Digest digest;
  double sim_qps = 0;
  SimLayers sim;
};

StreamPhase stream_phase(core::BatchStream& stream,
                         const std::vector<data::Dataset>& batches,
                         double seconds, Result& r) {
  StreamPhase p;
  while (p.wall < seconds || p.batch_ms.size() < kMinBatches) {
    Digest d;
    SimLayers sim;
    double round_wall = 0;
    std::size_t round_queries = 0;
    for (const data::Dataset& b : batches) {
      const auto t0 = Clock::now();
      const core::BatchSlot& slot = stream.run_batch(b);
      const double dt = seconds_since(t0);
      round_wall += dt;
      round_queries += b.n;
      p.batch_ms.push_back(dt * 1e3);
      d.add(slot.report.neighbors);
      sim.add(slot.report);
    }
    const auto t0 = Clock::now();
    const core::BatchPipelineReport rep = stream.finish();
    const double dt = seconds_since(t0);
    round_wall += dt;
    p.finish_ms.push_back(dt * 1e3);
    p.wall += round_wall;
    p.queries += round_queries;
    p.round_qps.push_back(static_cast<double>(round_queries) / round_wall);
    if (p.rounds == 0) {
      p.digest = d;
      p.sim_qps = rep.qps;
      p.sim = sim;
    } else {
      r.check(d == p.digest && rep.qps == p.sim_qps && sim == p.sim,
              "round " + std::to_string(p.rounds) +
                  " differs from round 0 (neighbors or simulated numbers)");
    }
    ++p.rounds;
  }
  return p;
}

}  // namespace

int setup_reps(const RunOptions& o) { return o.tiny ? 1 : 3; }

std::unique_ptr<SingleHost> make_single_host(const RunOptions& o,
                                             std::size_t nprobe,
                                             std::size_t n_queries,
                                             std::size_t n_heldout,
                                             SetupTimes& t) {
  auto s = std::make_unique<SingleHost>();
  IndexSpec spec;
  spec.n = pick(o.tiny, 100'000, 6'000);
  spec.clusters = pick(o.tiny, 512, 32);
  s->built = build_index(spec, t);

  const auto t_q = Clock::now();
  data::WorkloadSpec w;
  w.n_queries = n_queries;
  w.seed = o.seed + 101;
  s->queries = data::generate_workload(s->built.base, w).queries;
  w.n_queries = n_heldout;
  w.seed = o.seed + 102;
  if (n_heldout > 0) {
    s->heldout = data::generate_workload(s->built.base, w).queries;
  }
  w.n_queries = pick(o.tiny, 2048, 256);
  w.seed = o.seed + 103;
  const data::Dataset history =
      data::generate_workload(s->built.base, w).queries;
  t.gen += seconds_since(t_q);

  s->stats = history_stats(s->built.index, history, nprobe, t);

  const auto t_e = Clock::now();
  core::UpAnnsOptions eo = core::UpAnnsOptions::upanns();
  eo.n_dpus = pick(o.tiny, 112, 8);
  eo.nprobe = nprobe;
  eo.k = kK;
  s->engine = std::make_unique<core::UpAnnsEngine>(s->built.index, s->stats, eo);
  t.engine += seconds_since(t_e);
  return s;
}

void run_batch_paper(const RunOptions& o, Result& r) {
  const std::size_t batch = pick(o.tiny, 128, 32);
  const std::size_t round_batches = pick(o.tiny, 16, 3);
  const std::size_t nprobe = pick(o.tiny, 64, 8);
  auto s = repeated_setup<SingleHost>(
      setup_reps(o), r, [&](SetupTimes& t) {
        return make_single_host(o, nprobe, batch * round_batches, batch, t);
      });
  const auto batches = core::split_batches(s->queries, batch);
  const auto exact = data::exact_topk(s->built.base, s->heldout, kK);

  core::BatchStream stream(*s->engine,
                           {.overlap = true, .book_query_latency = false});
  // Untimed warm-up: the pipeline builds each DPU's kernel on first use.
  for (std::size_t i = 0; i < 2 && i < batches.size(); ++i) {
    stream.run_batch(batches[i]);
  }
  stream.finish();

  const StreamPhase p = stream_phase(stream, batches, o.seconds, r);
  r.attempted += p.queries;
  const double host_qps = median(p.round_qps);
  r.e2e("host_qps", host_qps);
  r.e2e("batch_p50_ms", common::percentile(p.batch_ms, 0.5));
  r.e2e("batch_p90_ms", common::percentile(p.batch_ms, 0.9));
  // Closed loop: every query of a batch is sent at its start, so each one's
  // latency is its batch's wall time (all batches hold the same count).
  r.e2e("req_p50_ms", common::percentile(p.batch_ms, 0.5));
  r.e2e("sim_qps", p.sim_qps);
  r.sign("sim_qps", p.sim_qps);
  p.sim.emit(r, /*sign=*/true);
  r.layer("core.finish_ms", median(p.finish_ms));
  std::printf("batch_paper: %zu rounds, %zu batches, %.1f host qps\n",
              p.rounds, p.batch_ms.size(), host_qps);

  const core::BatchSlot& held = stream.run_batch(s->heldout);
  const double recall = data::recall_at_k(exact, held.report.neighbors, kK);
  stream.finish();
  r.e2e("recall_at_10", recall);
  r.sign("recall_at_10", recall);
  r.check(recall >= recall_floor(o, 0.55), "recall_at_10 below floor");
  r.signature["neighbors"] = p.digest.hex();
  std::printf("batch_paper: neighbors digest %s, recall@10 %.4f\n",
              p.digest.hex().c_str(), recall);

  if (!o.trace) return;

  // Traced phase: the six public stage objects, each timed, on a pipeline
  // of their own. Neighbors must equal the untraced phase's.
  StagedPipeline staged(*s->engine);
  for (std::size_t i = 0; i < 2 && i < batches.size(); ++i) {
    staged.run(batches[i]);
  }
  staged.reset();
  double wall = 0;
  std::size_t queries = 0, n_batches = 0;
  std::vector<double> round_qps;
  while (wall < o.seconds || n_batches < kMinBatches) {
    Digest d;
    double round_wall = 0;
    std::size_t round_queries = 0;
    for (const data::Dataset& b : batches) {
      const auto t0 = Clock::now();
      const core::SearchReport rep = staged.run(b);
      round_wall += seconds_since(t0);
      d.add(rep.neighbors);
      round_queries += b.n;
      ++n_batches;
    }
    r.check(d == p.digest, "traced round " + std::to_string(round_qps.size()) +
                               " neighbors differ from the untraced run");
    wall += round_wall;
    queries += round_queries;
    round_qps.push_back(static_cast<double>(round_queries) / round_wall);
  }
  r.attempted += queries;
  staged.emit(r);
  r.layer("trace.qps_ratio", median(round_qps) / host_qps);
}

}  // namespace perfbench
