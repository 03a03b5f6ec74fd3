#include "core/multihost.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/backend.hpp"
#include "core/pipeline.hpp"
#include "data/query_workload.hpp"
#include "obs/report_json.hpp"

namespace upanns::core {
namespace {

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::sift1b_like(8000, 91));
  ivf::IvfIndex index = build();
  data::QueryWorkload wl;
  ivf::ClusterStats stats;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 32;
    opts.pq_m = 16;
    opts.coarse_iters = 6;
    opts.pq_iters = 4;
    return ivf::IvfIndex::build(base, opts);
  }

  Fixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 16;
    spec.seed = 6;
    wl = data::generate_workload(base, spec);
    stats = ivf::collect_stats(index,
                               ivf::filter_batch(index, wl.queries, 8));
  }

  MultiHostOptions opts(std::size_t hosts) const {
    MultiHostOptions o;
    o.n_hosts = hosts;
    o.per_host = UpAnnsOptions::upanns();
    o.per_host.n_dpus = 8;
    o.per_host.nprobe = 8;
    o.per_host.k = 10;
    return o;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(MultiHost, RejectsZeroHosts) {
  auto& f = fixture();
  EXPECT_THROW(MultiHostUpAnns(f.index, f.stats, f.opts(0)),
               std::invalid_argument);
}

TEST(MultiHost, EveryClusterOwnedByExactlyOneHost) {
  auto& f = fixture();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(3));
  std::vector<std::size_t> counts(3, 0);
  for (std::size_t c = 0; c < f.index.n_clusters(); ++c) {
    ASSERT_LT(mh.host_of(c), 3u);
    ++counts[mh.host_of(c)];
  }
  // Balanced-ish sharding: no host empty.
  for (auto cnt : counts) EXPECT_GT(cnt, 0u);
}

TEST(MultiHost, MatchesSingleEngineResults) {
  // Union of per-host scans covers exactly the probed clusters, and the
  // quantized distance pipeline is per-(query, cluster): a 3-host system
  // must retrieve the same neighbors as one engine over the whole index.
  auto& f = fixture();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(3));
  const auto multi = mh.search(f.wl.queries);

  UpAnnsOptions single = f.opts(1).per_host;
  single.n_dpus = 24;
  UpAnnsEngine engine(f.index, f.stats, single);
  const auto mono = engine.search(f.wl.queries);

  ASSERT_EQ(multi.neighbors.size(), mono.neighbors.size());
  for (std::size_t q = 0; q < multi.neighbors.size(); ++q) {
    ASSERT_EQ(multi.neighbors[q].size(), mono.neighbors[q].size());
    for (std::size_t i = 0; i < multi.neighbors[q].size(); ++i) {
      EXPECT_NEAR(multi.neighbors[q][i].dist, mono.neighbors[q][i].dist,
                  1e-3f * (1.f + mono.neighbors[q][i].dist))
          << "query " << q << " rank " << i;
    }
  }
}

TEST(MultiHost, SingleHostEquivalentToEngine) {
  auto& f = fixture();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(1));
  const auto multi = mh.search(f.wl.queries);
  UpAnnsEngine engine(f.index, f.stats, f.opts(1).per_host);
  const auto mono = engine.search(f.wl.queries);
  for (std::size_t q = 0; q < multi.neighbors.size(); ++q) {
    EXPECT_EQ(multi.neighbors[q], mono.neighbors[q]);
  }
}

TEST(MultiHost, MoreHostsReduceSlowestHostTime) {
  auto& f = fixture();
  MultiHostUpAnns one(f.index, f.stats, f.opts(1));
  MultiHostUpAnns four(f.index, f.stats, f.opts(4));
  const double t1 = one.search(f.wl.queries).slowest_host_seconds;
  const double t4 = four.search(f.wl.queries).slowest_host_seconds;
  // Each host scans ~1/4 of the clusters on its own PIM hardware.
  EXPECT_LT(t4, t1 * 0.6);
}

TEST(MultiHost, NetworkCostsAccounted) {
  auto& f = fixture();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(2));
  const auto r = mh.search(f.wl.queries);
  EXPECT_GT(r.network_seconds, 0.0);
  EXPECT_GE(r.seconds, r.slowest_host_seconds);
  EXPECT_DOUBLE_EQ(r.network_seconds,
                   r.broadcast_seconds + r.gather_seconds);
  EXPECT_EQ(r.host_times.size(), 2u);
  EXPECT_EQ(r.host_slots.size(), 2u);
  EXPECT_GT(r.qps, 0.0);
}

TEST(MultiHost, SecondsDecomposeIntoCoordHostAndNetwork) {
  // The coordinator-side cluster filter runs once, not once per host:
  // seconds == coord_filter + slowest host remainder + network + merge.
  auto& f = fixture();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(3));
  const auto r = mh.search(f.wl.queries);
  EXPECT_GT(r.coord_filter_seconds, 0.0);
  EXPECT_GT(r.coord_merge_seconds, 0.0);
  EXPECT_NEAR(r.seconds,
              r.coord_filter_seconds + r.slowest_host_seconds +
                  r.network_seconds + r.coord_merge_seconds,
              1e-15 * r.seconds);
  // The per-host remainder excludes the shared filter: every host's full
  // engine time exceeds its slot's host+device split by exactly one filter.
  for (std::size_t h = 0; h < r.host_slots.size(); ++h) {
    const auto& s = r.host_slots[h];
    ASSERT_TRUE(s.active);
    EXPECT_NEAR(r.host_times[h].total(),
                r.coord_filter_seconds + s.host_seconds + s.device_seconds,
                1e-15 * r.host_times[h].total());
    EXPECT_LE(s.host_seconds + s.device_seconds,
              r.slowest_host_seconds + 1e-18);
  }
}

TEST(MultiHost, BroadcastCostScalesWithFanOut) {
  // The coordinator NIC must send the batch to each host: 4-host broadcast
  // wire time strictly exceeds 1-host (regression for the single-payload
  // accounting bug).
  auto& f = fixture();
  MultiHostUpAnns one(f.index, f.stats, f.opts(1));
  MultiHostUpAnns four(f.index, f.stats, f.opts(4));
  const auto r1 = one.search(f.wl.queries);
  const auto r4 = four.search(f.wl.queries);
  EXPECT_GT(r4.broadcast_seconds, r1.broadcast_seconds);
  EXPECT_GT(r4.gather_seconds, r1.gather_seconds);
  // Wire time (minus the fixed per-message latency) scales exactly 4x.
  const MultiHostOptions o = f.opts(1);
  const double wire1 = r1.broadcast_seconds - o.network_latency;
  const double wire4 = r4.broadcast_seconds - o.network_latency;
  EXPECT_NEAR(wire4, 4.0 * wire1, 1e-15);
}

TEST(MultiHost, HostOfValidatesClusterIndex) {
  auto& f = fixture();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(2));
  EXPECT_NO_THROW(mh.host_of(f.index.n_clusters() - 1));
  EXPECT_THROW(mh.host_of(f.index.n_clusters()), std::out_of_range);
  EXPECT_THROW(mh.host_of(static_cast<std::size_t>(-1)), std::out_of_range);
}

TEST(MultiHost, MoreHostsThanClustersLeavesEmptyHostsIdle) {
  // 64 hosts over a 32-cluster index: empty-shard hosts must not build
  // engines or crash, and the search must still match the mono engine.
  auto& f = fixture();
  const std::size_t hosts = 2 * f.index.n_clusters();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(hosts));
  EXPECT_EQ(mh.n_hosts(), hosts);
  EXPECT_LE(mh.n_active_hosts(), f.index.n_clusters());
  EXPECT_GT(mh.n_active_hosts(), 0u);

  std::size_t inactive = 0;
  for (std::size_t h = 0; h < mh.n_hosts(); ++h) {
    if (!mh.host_active(h)) {
      ++inactive;
      EXPECT_THROW(mh.host_engine(h), std::logic_error);
    }
  }
  EXPECT_EQ(inactive, hosts - mh.n_active_hosts());
  EXPECT_GT(inactive, 0u);

  const auto multi = mh.search(f.wl.queries);
  ASSERT_EQ(multi.host_slots.size(), hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    if (mh.host_active(h)) continue;
    EXPECT_FALSE(multi.host_slots[h].active);
    EXPECT_EQ(multi.host_slots[h].host_seconds, 0.0);
    EXPECT_EQ(multi.host_slots[h].device_seconds, 0.0);
    EXPECT_EQ(multi.host_times[h].total(), 0.0);
  }

  UpAnnsOptions single = f.opts(1).per_host;
  UpAnnsEngine engine(f.index, f.stats, single);
  const auto mono = engine.search(f.wl.queries);
  ASSERT_EQ(multi.neighbors.size(), mono.neighbors.size());
  for (std::size_t q = 0; q < multi.neighbors.size(); ++q) {
    ASSERT_EQ(multi.neighbors[q].size(), mono.neighbors[q].size());
    for (std::size_t i = 0; i < multi.neighbors[q].size(); ++i) {
      EXPECT_NEAR(multi.neighbors[q][i].dist, mono.neighbors[q][i].dist,
                  1e-3f * (1.f + mono.neighbors[q][i].dist))
          << "query " << q << " rank " << i;
    }
  }
}

std::vector<data::Dataset> fixture_batches(std::size_t batch_size) {
  return split_batches(fixture().wl.queries, batch_size);
}

TEST(MultiHostPipeline, NoOverlapEqualsSynchronousSums) {
  auto& f = fixture();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(3));
  const auto batches = fixture_batches(4);
  ASSERT_GE(batches.size(), 4u);

  double sync_sum = 0;
  for (const auto& b : batches) sync_sum += mh.search(b).seconds;

  MultiHostBatchPipeline pipeline(mh, {.overlap = false});
  const auto run = pipeline.run(batches);
  EXPECT_FALSE(run.overlapped);
  EXPECT_DOUBLE_EQ(run.elapsed_seconds, sync_sum);
  EXPECT_DOUBLE_EQ(run.serial_seconds, sync_sum);
  EXPECT_EQ(run.n_queries, f.wl.queries.n);
}

TEST(MultiHostPipeline, SlotPhasesReconstructBatchSeconds) {
  auto& f = fixture();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(3));
  MultiHostBatchPipeline pipeline(mh, {.overlap = true});
  const auto run = pipeline.run(fixture_batches(4));
  for (const auto& slot : run.slots) {
    EXPECT_GT(slot.pre_seconds, 0.0);
    EXPECT_GT(slot.device_seconds, 0.0);
    EXPECT_GT(slot.post_seconds, 0.0);
    EXPECT_NEAR(slot.pre_seconds + slot.device_seconds + slot.post_seconds,
                slot.report.seconds, 1e-15 * slot.report.seconds);
  }
}

TEST(MultiHostPipeline, OverlapNoSlowerWithIdenticalResults) {
  // Acceptance criterion: overlapped elapsed <= synchronous seconds, and
  // per-query neighbors bit-identical in both modes.
  auto& f = fixture();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(3));
  const auto batches = fixture_batches(4);
  ASSERT_GE(batches.size(), 4u);

  MultiHostBatchPipeline sync(mh, {.overlap = false});
  const auto off = sync.run(batches);
  MultiHostBatchPipeline overlapped(mh, {.overlap = true});
  const auto on = overlapped.run(batches);

  EXPECT_LE(on.elapsed_seconds, off.elapsed_seconds);
  EXPECT_LT(on.elapsed_seconds, off.elapsed_seconds);  // >= 4 batches: strict
  EXPECT_GT(on.qps, off.qps);
  EXPECT_DOUBLE_EQ(on.serial_seconds, off.serial_seconds);

  ASSERT_EQ(on.slots.size(), off.slots.size());
  for (std::size_t i = 0; i < on.slots.size(); ++i) {
    const auto& a = on.slots[i].report.neighbors;
    const auto& b = off.slots[i].report.neighbors;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
      EXPECT_EQ(a[q], b[q]) << "batch " << i << " query " << q;
    }
  }
}

TEST(MultiHostPipeline, TimelineReproducesElapsedBitForBit) {
  auto& f = fixture();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(2));
  MultiHostBatchPipeline pipeline(mh, {.overlap = true});
  const auto run = pipeline.run(fixture_batches(4));
  const auto windows = batch_timeline(run);
  ASSERT_EQ(windows.size(), run.slots.size());
  EXPECT_EQ(windows.back().post_end, run.elapsed_seconds);
  // Coordinator and device phases never run backwards in time.
  for (const auto& w : windows) {
    EXPECT_LE(w.pre_start, w.pre_end);
    EXPECT_LE(w.pre_end, w.device_start);
    EXPECT_LE(w.device_start, w.device_end);
    EXPECT_LE(w.device_end, w.post_start);
    EXPECT_LE(w.post_start, w.post_end);
  }
}

TEST(MultiHostPipeline, EmptyBatchListIsANoOp) {
  auto& f = fixture();
  MultiHostUpAnns mh(f.index, f.stats, f.opts(2));
  MultiHostBatchPipeline pipeline(mh, {.overlap = true});
  const auto run = pipeline.run({});
  EXPECT_TRUE(run.slots.empty());
  EXPECT_EQ(run.n_queries, 0u);
  EXPECT_DOUBLE_EQ(run.elapsed_seconds, 0.0);
  EXPECT_DOUBLE_EQ(run.qps, 0.0);
}

std::vector<data::Dataset> multihost_drift_batches(Fixture& f) {
  data::WorkloadSpec calm;
  calm.n_queries = 24;
  calm.seed = 6;
  data::WorkloadSpec hot = calm;
  hot.seed = 9;
  hot.popularity_shift = 16;
  auto batches = split_batches(data::generate_workload(f.base, calm).queries, 8);
  for (auto& b :
       split_batches(data::generate_workload(f.base, hot).queries, 8)) {
    batches.push_back(std::move(b));
  }
  return batches;
}

TEST(MultiHostPipeline, QuietAdaptIsByteIdentical) {
  // Per-host controllers that never fire must leave the fleet report —
  // timings, neighbors, the serialized JSON — byte-identical to adapt-off.
  auto& f = fixture();
  const auto batches = multihost_drift_batches(f);

  MultiHostUpAnns off_mh(f.index, f.stats, f.opts(2));
  MultiHostBatchPipeline off(off_mh, {.overlap = true});
  const auto off_run = off.run(batches);

  MultiHostUpAnns quiet_mh(f.index, f.stats, f.opts(2));
  MultiHostBatchPipeline quiet(quiet_mh,
                               {.overlap = true,
                                .adapt = AdaptMode::kCopies,
                                .adaptive = {.minor_threshold = 2.0,
                                             .major_threshold = 2.0,
                                             .copy_change_fraction = 2.0}});
  const auto quiet_run = quiet.run(batches);

  EXPECT_EQ(obs::multi_host_pipeline_json(off_run),
            obs::multi_host_pipeline_json(quiet_run));
  for (const auto& slot : quiet_run.slots) {
    EXPECT_EQ(slot.adapt_action, AdaptAction::kNone);
    EXPECT_DOUBLE_EQ(slot.adapt_seconds, 0.0);
  }
}

/// Fleet adaptation in both online modes. kFull relocates inside the fleet,
/// where each host engine must drop its own pooled kernels (their per-DPU
/// layouts are rebuilt); the sanitizer legs catch a stale one.
class MultiHostPipelineAdapt : public ::testing::TestWithParam<AdaptMode> {};

TEST_P(MultiHostPipelineAdapt, AdaptFiresAndPreservesNeighbors) {
  const AdaptMode mode = GetParam();
  auto& f = fixture();
  const auto batches = multihost_drift_batches(f);

  MultiHostUpAnns off_mh(f.index, f.stats, f.opts(2));
  MultiHostBatchPipeline off(off_mh, {.overlap = true});
  const auto off_run = off.run(batches);

  MultiHostUpAnns on_mh(f.index, f.stats, f.opts(2));
  // kFull gets a major threshold the drift crosses, so it relocates.
  MultiHostBatchPipeline on(
      on_mh, {.overlap = true,
              .adapt = mode,
              .adaptive = {.window_batches = 2,
                           .minor_threshold = 0.01,
                           .major_threshold =
                               mode == AdaptMode::kFull ? 0.02 : 0.35,
                           .copy_change_fraction = 0.01}});
  const auto on_run = on.run(batches);

  std::size_t fired = 0, relocated = 0;
  for (const auto& slot : on_run.slots) {
    if (slot.adapt_action != AdaptAction::kNone) ++fired;
    if (slot.adapt_action == AdaptAction::kRelocate) ++relocated;
  }
  EXPECT_GE(fired, 1u);
  if (mode == AdaptMode::kFull) {
    EXPECT_GE(relocated, 1u);
  }

  // Replica churn on any host must never change what the fleet retrieves.
  ASSERT_EQ(on_run.slots.size(), off_run.slots.size());
  double serial = 0;
  for (std::size_t i = 0; i < on_run.slots.size(); ++i) {
    const auto& a = on_run.slots[i].report.neighbors;
    const auto& b = off_run.slots[i].report.neighbors;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
      EXPECT_EQ(a[q], b[q]) << "batch " << i << " query " << q;
    }
    const auto& slot = on_run.slots[i];
    // Adapt work rides in the device phase, like the mutation patch.
    EXPECT_NEAR(slot.device_seconds,
                slot.report.slowest_host_seconds + slot.patch_seconds +
                    slot.adapt_seconds,
                1e-12);
    serial += slot.report.seconds + slot.patch_seconds + slot.adapt_seconds;
  }
  EXPECT_NEAR(on_run.serial_seconds, serial, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Modes, MultiHostPipelineAdapt,
                         ::testing::Values(AdaptMode::kCopies,
                                           AdaptMode::kFull),
                         [](const ::testing::TestParamInfo<AdaptMode>& i) {
                           return std::string(adapt_mode_name(i.param));
                         });

TEST(MultiHostBackend, ServesThroughCommonInterface) {
  auto& f = fixture();
  MultiHostOptions o = f.opts(3);
  auto backend = make_multihost_backend(f.index, f.stats, o);
  EXPECT_STREQ(backend->name(), "UpANNS-MH");
  const auto r = backend->search(f.wl.queries);
  ASSERT_EQ(r.neighbors.size(), f.wl.queries.n);

  MultiHostUpAnns mh(f.index, f.stats, o);
  const auto direct = mh.search(f.wl.queries);
  // The wrapped report reproduces the multi-host seconds through the
  // unified StageTimes shape, and the trace sums to the same total.
  EXPECT_NEAR(r.times.total(), direct.seconds, 1e-12 * direct.seconds);
  double trace_sum = 0;
  for (const auto& step : r.trace) trace_sum += step.seconds;
  EXPECT_NEAR(trace_sum, direct.seconds, 1e-12 * direct.seconds);
  for (std::size_t q = 0; q < r.neighbors.size(); ++q) {
    EXPECT_EQ(r.neighbors[q], direct.neighbors[q]);
  }

  // And through the factory's default two-host configuration.
  auto two = make_backend(BackendKind::kMultiHost, f.index, f.stats,
                          o.per_host);
  EXPECT_STREQ(two->name(), "UpANNS-MH");
  EXPECT_EQ(two->search(f.wl.queries).neighbors.size(), f.wl.queries.n);
}

}  // namespace
}  // namespace upanns::core
