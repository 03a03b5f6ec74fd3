// Serve-layer tests: batch-close policy, admission queue, the real-threaded
// Server (drain completeness, backpressure, executor failure isolation) and
// the deterministic discrete-event loadgen (partial deadline batches,
// max-batch closes, rejection under a bounded queue, monotone latency under
// rising load). The final group pins the headline invariant: neighbors
// served online are bit-identical to the same queries run as pre-formed
// batches.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/multihost.hpp"
#include "core/pipeline.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "serve/executors.hpp"
#include "serve/loadgen.hpp"

namespace upanns::serve {
namespace {

// ---------------------------------------------------------------- policy --

TEST(BatchPolicy, CloseDecision) {
  BatchPolicy p;
  p.max_batch = 4;
  p.deadline_seconds = 1.0;
  // Empty queue never closes, draining or not.
  EXPECT_EQ(batch_close_decision(p, 0, 0, 100, false), BatchClose::kOpen);
  EXPECT_EQ(batch_close_decision(p, 0, 0, 100, true), BatchClose::kOpen);
  // Under max and before the deadline: stay open unless draining.
  EXPECT_EQ(batch_close_decision(p, 2, 0, 0.5, false), BatchClose::kOpen);
  EXPECT_EQ(batch_close_decision(p, 2, 0, 0.5, true), BatchClose::kDrain);
  // Deadline reached.
  EXPECT_EQ(batch_close_decision(p, 2, 0, 1.0, false), BatchClose::kDeadline);
  // Full wins over deadline (both conditions hold).
  EXPECT_EQ(batch_close_decision(p, 4, 0, 2.0, false), BatchClose::kFull);
  EXPECT_EQ(batch_close_decision(p, 4, 0, 0.1, false), BatchClose::kFull);
  EXPECT_EQ(batch_deadline(p, 3.0), 4.0);
}

// ----------------------------------------------------------------- queue --

Request make_request(std::uint64_t id, double t = 0) {
  Request r;
  r.id = id;
  r.query = {1.f, 2.f};
  r.enqueue_seconds = t;
  return r;
}

TEST(RequestQueue, BoundedCapacityRejects) {
  RequestQueue q(2);
  EXPECT_TRUE(q.try_push(make_request(0)));
  EXPECT_TRUE(q.try_push(make_request(1)));
  EXPECT_FALSE(q.try_push(make_request(2)));  // full -> backpressure
  EXPECT_EQ(q.size(), 2u);
  auto popped = q.pop_batch(10);
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped[0].id, 0u);  // FIFO
  EXPECT_EQ(popped[1].id, 1u);
  EXPECT_TRUE(q.try_push(make_request(3)));  // space again
}

TEST(RequestQueue, CloseStopsAdmissionKeepsBacklog) {
  RequestQueue q(0);
  EXPECT_TRUE(q.try_push(make_request(0)));
  q.close();
  EXPECT_FALSE(q.try_push(make_request(1)));
  EXPECT_TRUE(q.wait_nonempty());  // backlog still poppable
  EXPECT_EQ(q.pop_batch(10).size(), 1u);
  EXPECT_FALSE(q.wait_nonempty());  // closed and empty: batcher exits
}

TEST(RequestQueue, WaitCloseableReturnsOnTargetOrDeadline) {
  RequestQueue q(0);
  ASSERT_TRUE(q.try_push(make_request(0, 0.0)));
  EXPECT_DOUBLE_EQ(q.front_enqueue_seconds(), 0.0);
  // Deadline already passed: returns immediately despite target not met.
  q.wait_closeable(8, std::chrono::steady_clock::now());
  // Target met: returns without waiting for the (far) deadline.
  ASSERT_TRUE(q.try_push(make_request(1)));
  q.wait_closeable(2, std::chrono::steady_clock::now() +
                          std::chrono::hours(1));
  EXPECT_EQ(q.size(), 2u);
}

// ------------------------------------------------------------------- DES --

/// Query pool for loadgen tests (contents irrelevant to the fake executor).
data::Dataset pool(std::size_t n = 16, std::size_t dim = 4) {
  data::Dataset d;
  d.n = n;
  d.dim = dim;
  d.values.assign(n * dim, 1.f);
  return d;
}

/// Fake executor with service time linear in batch size; also records the
/// size of every batch it ran.
struct FakeExec {
  double fixed = 1e-3, per_query = 1e-4;
  std::vector<std::size_t> sizes;
  BatchExecutor fn() {
    return [this](const data::Dataset& b) {
      sizes.push_back(b.n);
      ExecResult r;
      r.neighbors.resize(b.n);
      r.sim_seconds = fixed + per_query * static_cast<double>(b.n);
      return r;
    };
  }
};

TEST(Loadgen, LowLoadClosesPartialBatchesAtDeadline) {
  FakeExec exec;
  LoadgenOptions o;
  o.offered_qps = 100;  // interarrival 10 ms >> 2 ms deadline
  o.n_requests = 50;
  o.poisson = false;
  o.policy.max_batch = 8;
  o.policy.deadline_seconds = 2e-3;
  const LoadgenResult r = simulate_load(pool(), exec.fn(), o);
  EXPECT_EQ(r.n_completed, 50u);
  EXPECT_EQ(r.n_rejected, 0u);
  EXPECT_EQ(r.n_batches, 50u);  // every batch is a lone request
  EXPECT_EQ(r.deadline_closes, 50u);
  EXPECT_EQ(r.full_closes, 0u);
  for (std::size_t s : exec.sizes) EXPECT_EQ(s, 1u);
  // Each request waits its full deadline, then ~1.1 ms of service.
  EXPECT_NEAR(r.p50, o.policy.deadline_seconds + 1.1e-3, 1e-4);
}

TEST(Loadgen, HighLoadClosesFullBatches) {
  FakeExec exec;
  LoadgenOptions o;
  o.offered_qps = 100000;  // arrivals far faster than service
  o.n_requests = 256;
  o.poisson = false;
  o.policy.max_batch = 8;
  o.policy.deadline_seconds = 10.0;  // deadline effectively disabled
  const LoadgenResult r = simulate_load(pool(), exec.fn(), o);
  EXPECT_EQ(r.n_completed, 256u);
  EXPECT_EQ(r.n_batches, 32u);
  EXPECT_EQ(r.full_closes, 32u);
  EXPECT_EQ(r.deadline_closes, 0u);
  EXPECT_DOUBLE_EQ(r.mean_batch_fill, 1.0);
}

TEST(Loadgen, BoundedQueueRejectsOverload) {
  FakeExec exec;
  exec.fixed = 1.0;  // 1 s per batch: the executor can never keep up
  LoadgenOptions o;
  o.offered_qps = 1000;
  o.n_requests = 200;
  o.policy.max_batch = 8;
  o.policy.deadline_seconds = 1e-3;
  o.queue_capacity = 16;
  const LoadgenResult r = simulate_load(pool(), exec.fn(), o);
  EXPECT_GT(r.n_rejected, 0u);
  EXPECT_EQ(r.n_completed + r.n_rejected, 200u);
  EXPECT_LE(r.mean_batch_fill, 1.0);
}

TEST(Loadgen, LatencyMonotoneInOfferedLoad) {
  // The acceptance-criterion curve: same seed, rising offered QPS -> p50 and
  // p99 never decrease, and the knee shows up once load crosses capacity
  // (capacity = max_batch / service(max_batch) = 8 / 5e-3 = 1600 qps).
  // Service time grows with batch size (per_query = 5e-4, like the real
  // pipeline) so fuller batches cannot undercut the deadline wait they save.
  double prev_p50 = 0, prev_p99 = 0;
  for (const double qps : {200.0, 400.0, 800.0, 1600.0, 3200.0}) {
    FakeExec exec;
    exec.per_query = 5e-4;
    LoadgenOptions o;
    o.offered_qps = qps;
    o.n_requests = 2000;
    o.policy.max_batch = 8;
    o.policy.deadline_seconds = 2e-3;
    o.seed = 7;
    const LoadgenResult r = simulate_load(pool(), exec.fn(), o);
    EXPECT_GE(r.p50 + 1e-12, prev_p50) << "at " << qps << " qps";
    EXPECT_GE(r.p99 + 1e-12, prev_p99) << "at " << qps << " qps";
    prev_p50 = r.p50;
    prev_p99 = r.p99;
  }
  EXPECT_GT(prev_p99, 10e-3);  // far past capacity the queue runs away
}

TEST(Loadgen, DeterministicAcrossRuns) {
  FakeExec e1, e2;
  LoadgenOptions o;
  o.offered_qps = 3000;
  o.n_requests = 500;
  o.policy.max_batch = 8;
  o.policy.deadline_seconds = 2e-3;
  const LoadgenResult a = simulate_load(pool(), e1.fn(), o);
  const LoadgenResult b = simulate_load(pool(), e2.fn(), o);
  EXPECT_EQ(a.n_batches, b.n_batches);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_EQ(e1.sizes, e2.sizes);
}

TEST(Loadgen, RejectsBadOptions) {
  FakeExec exec;
  LoadgenOptions o;
  o.offered_qps = 0;
  EXPECT_THROW(simulate_load(pool(), exec.fn(), o), std::invalid_argument);
  o.offered_qps = 100;
  o.policy.max_batch = 0;
  EXPECT_THROW(simulate_load(pool(), exec.fn(), o), std::invalid_argument);
}

// ---------------------------------------------------------------- server --

ServeOptions small_server_options() {
  ServeOptions s;
  s.dim = 4;
  s.policy.max_batch = 8;
  s.policy.deadline_seconds = 1e-3;
  return s;
}

TEST(Server, DrainCompletesEveryAcceptedRequest) {
  FakeExec exec;
  ServeOptions sopts = small_server_options();
  std::vector<std::future<RequestResult>> futures;
  {
    Server server(exec.fn(), sopts);
    const std::vector<float> q(4, 1.f);
    for (int i = 0; i < 100; ++i) {
      auto f = server.try_submit(q);
      ASSERT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
    server.drain();
    const ServeStats st = server.stats();
    EXPECT_EQ(st.accepted, 100u);
    EXPECT_EQ(st.completed, 100u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(server.request_log().size(), 100u);
    // After drain new submissions are refused.
    EXPECT_FALSE(server.try_submit(q).has_value());
  }  // destructor: second drain must be a no-op
  std::size_t total = 0;
  for (auto& f : futures) {
    const RequestResult r = f.get();  // ready, no exception
    EXPECT_GE(r.complete_seconds, r.batch_seconds);
    EXPECT_GE(r.batch_seconds, r.enqueue_seconds);
    total += 1;
    EXPECT_GE(r.batch_size, 1u);
  }
  EXPECT_EQ(total, 100u);
}

TEST(Server, MaxBatchClosesEarlyDespiteHugeDeadline) {
  FakeExec exec;
  ServeOptions sopts = small_server_options();
  sopts.policy.max_batch = 4;
  sopts.policy.deadline_seconds = 3600.0;  // never fires in test time
  Server server(exec.fn(), sopts);
  const std::vector<float> q(4, 1.f);
  std::vector<std::future<RequestResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(*server.try_submit(q));
  // The batch must complete long before the deadline.
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    EXPECT_EQ(f.get().batch_size, 4u);
  }
  const ServeStats st = server.stats();
  EXPECT_GE(st.full_closes, 1u);
}

TEST(Server, ThrowingExecutorFailsBatchNotServer) {
  std::atomic<int> calls{0};
  BatchExecutor exec = [&](const data::Dataset& b) -> ExecResult {
    if (calls.fetch_add(1) == 0) throw std::runtime_error("kernel fault");
    ExecResult r;
    r.neighbors.resize(b.n);
    r.sim_seconds = 1e-4;
    return r;
  };
  ServeOptions sopts = small_server_options();
  sopts.policy.max_batch = 1;  // one request per batch, deterministic split
  Server server(std::move(exec), sopts);
  const std::vector<float> q(4, 1.f);
  auto f1 = *server.try_submit(q);
  EXPECT_THROW(f1.get(), std::runtime_error);  // first batch carries error
  auto f2 = *server.try_submit(q);             // server kept serving
  EXPECT_NO_THROW(f2.get());
  server.drain();
  const ServeStats st = server.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(Server, BoundedQueueRejectsWhileExecutorBlocked) {
  // Gate the executor so the queue fills deterministically, then verify
  // try_submit signals backpressure instead of blocking or dropping.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  BatchExecutor exec = [&](const data::Dataset& b) {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return release; });
    ExecResult r;
    r.neighbors.resize(b.n);
    r.sim_seconds = 1e-4;
    return r;
  };
  ServeOptions sopts = small_server_options();
  sopts.policy.max_batch = 2;
  sopts.policy.deadline_seconds = 1e-6;  // dispatch essentially immediately
  sopts.queue_capacity = 4;
  Server server(std::move(exec), sopts);
  const std::vector<float> q(4, 1.f);
  // First couple get dispatched into the blocked executor; keep submitting
  // until the queue itself reports full.
  std::size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 200 && rejected == 0; ++i) {
    if (server.try_submit(q).has_value()) {
      ++accepted;
    } else {
      ++rejected;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LE(accepted, sopts.queue_capacity + 2 * sopts.policy.max_batch);
  {
    std::lock_guard lk(mu);
    release = true;
  }
  cv.notify_all();
  server.drain();
  const ServeStats st = server.stats();
  EXPECT_EQ(st.completed, accepted);
  EXPECT_EQ(st.rejected, rejected);
}

// -------------------------------------------------- engine bit-identity --

struct EngineFixture {
  data::Dataset base = data::generate_synthetic(data::sift1b_like(6000, 31));
  ivf::IvfIndex index = build();
  data::QueryWorkload wl;
  ivf::ClusterStats stats;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 32;
    opts.pq_m = 16;
    opts.coarse_iters = 5;
    opts.pq_iters = 4;
    return ivf::IvfIndex::build(base, opts);
  }

  EngineFixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 48;
    spec.seed = 11;
    wl = data::generate_workload(base, spec);
    data::WorkloadSpec hist = spec;
    hist.seed = 12;
    hist.n_queries = 96;
    const auto hw = data::generate_workload(base, hist);
    stats = ivf::collect_stats(index, ivf::filter_batch(index, hw.queries, 8));
  }

  core::UpAnnsOptions options() const {
    core::UpAnnsOptions o = core::UpAnnsOptions::upanns();
    o.n_dpus = 8;
    o.nprobe = 8;
    o.k = 10;
    return o;
  }
};

EngineFixture& engine_fixture() {
  static EngineFixture f;
  return f;
}

/// Serve `queries` one by one through a Server over `Stream` on `target`
/// (a deadline batcher picks batch boundaries unlike `ref`'s pre-formed
/// batches of 16) and expect every neighbor list bit-identical to `ref`'s.
template <class Stream, class Target>
void expect_online_matches_preformed(Target& ref, Target& target,
                                     const data::Dataset& queries) {
  // Reference: the whole workload as pre-formed batches of 16.
  Stream ref_pipeline(ref, {});
  const auto ref_run = ref_pipeline.run(core::split_batches(queries, 16));
  std::vector<std::vector<common::Neighbor>> expected;
  for (const auto& slot : ref_run.slots) {
    expected.insert(expected.end(), slot.report.neighbors.begin(),
                    slot.report.neighbors.end());
  }
  ASSERT_EQ(expected.size(), queries.n);

  // Online: same queries submitted one by one through the server; the
  // deadline batcher decides the (different) batch boundaries.
  Stream stream(target, {.book_query_latency = false});
  ServeOptions sopts;
  sopts.dim = queries.dim;
  sopts.policy.max_batch = 7;  // deliberately != 16 and != divisor of 48
  sopts.policy.deadline_seconds = 1e-3;
  Server server(stream_executor(stream), sopts);
  std::vector<std::future<RequestResult>> futures;
  for (std::size_t i = 0; i < queries.n; ++i) {
    auto fut = server.try_submit({queries.row(i), queries.dim});
    ASSERT_TRUE(fut.has_value());
    futures.push_back(std::move(*fut));
  }
  server.drain();

  std::size_t multi_request_batches = 0;
  for (const auto& b : server.batch_log()) {
    multi_request_batches += b.size > 1;
  }
  EXPECT_GT(multi_request_batches, 0u);  // batching actually happened

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const RequestResult r = futures[i].get();
    ASSERT_EQ(r.id, i);  // submission order = workload order
    ASSERT_EQ(r.neighbors.size(), expected[i].size()) << "query " << i;
    for (std::size_t k = 0; k < expected[i].size(); ++k) {
      EXPECT_EQ(r.neighbors[k].id, expected[i][k].id)
          << "query " << i << " rank " << k;
      EXPECT_EQ(r.neighbors[k].dist, expected[i][k].dist)
          << "query " << i << " rank " << k;
    }
  }
  stream.finish();
}

/// Online serving over one host (BatchStream) and over a fleet
/// (MultiHostBatchPipeline) — the parameter is the host count.
class ServeEngineHosts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ServeEngineHosts, OnlineNeighborsBitIdenticalToPreformedBatches) {
  auto& f = engine_fixture();
  if (GetParam() == 1) {
    core::UpAnnsEngine ref(f.index, f.stats, f.options());
    core::UpAnnsEngine engine(f.index, f.stats, f.options());
    expect_online_matches_preformed<core::BatchStream>(ref, engine,
                                                       f.wl.queries);
    return;
  }
  core::MultiHostOptions mh;
  mh.n_hosts = GetParam();
  mh.per_host = f.options();
  core::MultiHostUpAnns ref(f.index, f.stats, mh);
  core::MultiHostUpAnns cluster(f.index, f.stats, mh);
  expect_online_matches_preformed<core::MultiHostBatchPipeline>(ref, cluster,
                                                                f.wl.queries);
}

INSTANTIATE_TEST_SUITE_P(Hosts, ServeEngineHosts, ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "hosts" + std::to_string(i.param);
                         });

TEST(ServeEngine, LoadgenMatchesBatchPipelineNeighborsViaExecutor) {
  // The DES path reuses the same executor; one full-pool run must execute
  // every query and leave the stream consistent.
  auto& f = engine_fixture();
  core::UpAnnsEngine engine(f.index, f.stats, f.options());
  core::BatchStream stream(engine, {.book_query_latency = false});
  LoadgenOptions o;
  o.offered_qps = 5000;
  o.n_requests = f.wl.queries.n;
  o.policy.max_batch = 16;
  o.policy.deadline_seconds = 2e-3;
  const LoadgenResult r =
      simulate_load(f.wl.queries, stream_executor(stream), o);
  EXPECT_EQ(r.n_completed, f.wl.queries.n);
  EXPECT_EQ(r.n_rejected, 0u);
  EXPECT_GT(r.p50, 0);
  EXPECT_GE(r.p99, r.p50);
  const auto report = stream.finish();
  EXPECT_EQ(report.n_queries, f.wl.queries.n);
}

}  // namespace
}  // namespace upanns::serve
