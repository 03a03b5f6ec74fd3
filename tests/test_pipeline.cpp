// Pipeline tests: stage decomposition determinism (the refactored online
// path reproduces the serial totals exactly) and batch double-buffering
// accounting (overlap shortens simulated time without changing results).
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/stats.hpp"
#include "core/engine.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "obs/report_json.hpp"

namespace upanns::core {
namespace {

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
    spec.n_queries = 64;
    spec.seed = 4;
    wl = data::generate_workload(base, spec);
    data::WorkloadSpec hist = spec;
    hist.seed = 5;
    hist.n_queries = 128;
    const auto hw = data::generate_workload(base, hist);
    stats = ivf::collect_stats(index, ivf::filter_batch(index, hw.queries, 8));
  }

  UpAnnsOptions options() const {
    UpAnnsOptions o = UpAnnsOptions::upanns();
    o.n_dpus = 12;
    o.nprobe = 8;
    o.k = 10;
    return o;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(SplitBatches, CoversAllQueriesInOrder) {
  auto& f = fixture();
  const auto batches = split_batches(f.wl.queries, 24);
  ASSERT_EQ(batches.size(), 3u);  // 24 + 24 + 16
  EXPECT_EQ(batches[0].n, 24u);
  EXPECT_EQ(batches[2].n, 16u);
  std::size_t q = 0;
  for (const auto& b : batches) {
    EXPECT_EQ(b.dim, f.wl.queries.dim);
    for (std::size_t i = 0; i < b.n; ++i, ++q) {
      for (std::size_t d = 0; d < b.dim; ++d) {
        ASSERT_EQ(b.row(i)[d], f.wl.queries.row(q)[d]);
      }
    }
  }
  EXPECT_EQ(q, f.wl.queries.n);
  EXPECT_THROW(split_batches(f.wl.queries, 0), std::invalid_argument);
}

TEST(SplitBatches, BatchLargerThanInputYieldsOneFullBatch) {
  auto& f = fixture();
  const auto batches = split_batches(f.wl.queries, f.wl.queries.n + 100);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].n, f.wl.queries.n);
  EXPECT_EQ(batches[0].dim, f.wl.queries.dim);
  EXPECT_EQ(batches[0].values, f.wl.queries.values);
}

TEST(SplitBatches, SingleQueryBatches) {
  auto& f = fixture();
  const auto batches = split_batches(f.wl.queries, 1);
  ASSERT_EQ(batches.size(), f.wl.queries.n);
  for (std::size_t q = 0; q < batches.size(); ++q) {
    ASSERT_EQ(batches[q].n, 1u);
    for (std::size_t d = 0; d < batches[q].dim; ++d) {
      ASSERT_EQ(batches[q].row(0)[d], f.wl.queries.row(q)[d]);
    }
  }
}

TEST(SplitBatches, ExactMultipleLeavesNoShortBatch) {
  auto& f = fixture();
  ASSERT_EQ(f.wl.queries.n % 16, 0u);
  const auto batches = split_batches(f.wl.queries, 16);
  ASSERT_EQ(batches.size(), f.wl.queries.n / 16);
  for (const auto& b : batches) EXPECT_EQ(b.n, 16u);
}

TEST(SplitBatches, EmptyInputYieldsNoBatches) {
  data::Dataset empty;
  empty.dim = 8;
  EXPECT_TRUE(split_batches(empty, 4).empty());
}

TEST(Pipeline, EmptyBatchListIsANoOp) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());
  for (const bool overlap : {false, true}) {
    BatchStream pipeline(engine, {.overlap = overlap});
    const auto run = pipeline.run({});
    EXPECT_TRUE(run.slots.empty());
    EXPECT_EQ(run.n_queries, 0u);
    EXPECT_DOUBLE_EQ(run.serial_seconds, 0.0);
    EXPECT_DOUBLE_EQ(run.elapsed_seconds, 0.0);
    EXPECT_DOUBLE_EQ(run.qps, 0.0);
  }
}

TEST(Pipeline, NoOverlapEqualsSerialStageSums) {
  // The --no-overlap mode must reproduce exactly what running each batch
  // through UpAnnsEngine::search serially reports.
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());
  const auto batches = split_batches(f.wl.queries, 16);
  ASSERT_GE(batches.size(), 4u);

  double serial_sum = 0;
  for (const auto& b : batches) {
    serial_sum += engine.search(b).times.total();
  }

  BatchStream pipeline(engine, {.overlap = false});
  const auto run = pipeline.run(batches);
  EXPECT_FALSE(run.overlapped);
  EXPECT_DOUBLE_EQ(run.elapsed_seconds, serial_sum);
  EXPECT_DOUBLE_EQ(run.serial_seconds, serial_sum);
  EXPECT_EQ(run.n_queries, f.wl.queries.n);
}

TEST(Pipeline, SlotSplitReconstructsBatchTotal) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());
  const auto batches = split_batches(f.wl.queries, 16);
  BatchStream pipeline(engine, {.overlap = true});
  const auto run = pipeline.run(batches);
  ASSERT_EQ(run.slots.size(), batches.size());
  for (const auto& slot : run.slots) {
    EXPECT_GT(slot.pre_seconds, 0.0);
    EXPECT_GT(slot.device_seconds, 0.0);
    EXPECT_DOUBLE_EQ(slot.pre_seconds + slot.device_seconds,
                     slot.report.times.total());
  }
}

TEST(Pipeline, OverlapStrictlyFasterWithIdenticalResults) {
  // Acceptance criterion: >= 4 batches, overlap strictly lowers end-to-end
  // simulated time, per-query neighbors bit-identical in both modes.
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());
  const auto batches = split_batches(f.wl.queries, 16);
  ASSERT_GE(batches.size(), 4u);

  BatchStream serial(engine, {.overlap = false});
  const auto off = serial.run(batches);
  BatchStream overlapped(engine, {.overlap = true});
  const auto on = overlapped.run(batches);

  EXPECT_LT(on.elapsed_seconds, off.elapsed_seconds);
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

TEST(Pipeline, OverlapElapsedMatchesTwoPhaseFormula) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());
  const auto batches = split_batches(f.wl.queries, 16);
  BatchStream pipeline(engine, {.overlap = true});
  const auto run = pipeline.run(batches);

  double expect = run.slots.front().pre_seconds;
  for (std::size_t i = 0; i + 1 < run.slots.size(); ++i) {
    expect += std::max(run.slots[i].device_seconds,
                       run.slots[i + 1].pre_seconds);
  }
  expect += run.slots.back().device_seconds;
  EXPECT_DOUBLE_EQ(run.elapsed_seconds, expect);
  // The device stages dominate here, so nearly all host time hides.
  EXPECT_LT(run.elapsed_seconds, run.serial_seconds);
}

TEST(Pipeline, BalanceRatioCountsIdleResidentDpus) {
  // Regression: balance_ratio used to drop zero-busy DPUs from the mean, so
  // a batch that hammered a handful of DPUs while the rest of the fleet sat
  // idle read as "balanced". A single-query batch visits one replica of each
  // of its nprobe clusters — at most 8 of the 12 DPUs here — and the
  // idle-but-resident DPUs must drag the mean down.
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());

  data::Dataset batch;
  batch.dim = f.wl.queries.dim;
  batch.n = 1;
  batch.values.assign(f.wl.queries.row(0), f.wl.queries.row(0) + batch.dim);

  const auto r = engine.search(batch);
  ASSERT_TRUE(r.pim.has_value());
  const auto& busy = r.pim->dpu_busy_seconds;
  ASSERT_EQ(busy.size(), engine.placement().dpu_clusters.size());

  std::vector<double> resident;  // busy-or-holding (what the fix measures)
  std::vector<double> positive;  // busy only (the old, broken population)
  for (std::size_t d = 0; d < busy.size(); ++d) {
    if (busy[d] > 0) positive.push_back(busy[d]);
    if (busy[d] > 0 || !engine.placement().dpu_clusters[d].empty()) {
      resident.push_back(busy[d]);
    }
  }
  // The scenario only bites if some cluster-holding DPU really was idle.
  ASSERT_GT(resident.size(), positive.size());
  EXPECT_DOUBLE_EQ(r.pim->balance_ratio, common::max_over_mean(resident));
  EXPECT_GT(r.pim->balance_ratio, common::max_over_mean(positive));
}

std::vector<data::Dataset> drifted_batches(Fixture& f) {
  // Phase A matches the placement history's popularity profile; phase B
  // rotates the Zipf ranking by half the cluster count, the incremental
  // drift of paper Sec 4.1.2.
  data::WorkloadSpec calm;
  calm.n_queries = 48;
  calm.seed = 4;
  data::WorkloadSpec hot = calm;
  hot.seed = 11;
  hot.popularity_shift = 24;
  auto batches = split_batches(data::generate_workload(f.base, calm).queries, 16);
  for (auto& b :
       split_batches(data::generate_workload(f.base, hot).queries, 16)) {
    batches.push_back(std::move(b));
  }
  return batches;
}

TEST(Pipeline, QuietAdaptControllerIsByteIdentical) {
  // A controller that never fires must leave the whole report — neighbors,
  // every simulated timing, the serialized JSON — byte-identical to a run
  // with the feature off entirely.
  auto& f = fixture();
  const auto batches = drifted_batches(f);

  UpAnnsEngine off_engine(f.index, f.stats, f.options());
  BatchStream off(off_engine, {.overlap = true});
  const auto off_run = off.run(batches);

  UpAnnsEngine quiet_engine(f.index, f.stats, f.options());
  BatchStream quiet(quiet_engine,
                      {.overlap = true,
                       .adapt = AdaptMode::kCopies,
                       // TV distance is <= 1, so thresholds of 2 can never
                       // trip; neither can a >100% replica-churn fraction.
                       .adaptive = {.minor_threshold = 2.0,
                                    .major_threshold = 2.0,
                                    .copy_change_fraction = 2.0}});
  const auto quiet_run = quiet.run(batches);

  EXPECT_EQ(obs::batch_pipeline_json(off_run),
            obs::batch_pipeline_json(quiet_run));
  for (const auto& slot : quiet_run.slots) {
    EXPECT_EQ(slot.adapt_action, AdaptAction::kNone);
    EXPECT_DOUBLE_EQ(slot.adapt_seconds, 0.0);
    EXPECT_EQ(slot.adapt_bytes, 0u);
  }
}

TEST(Pipeline, AdaptCopiesPreservesNeighborsAndAccounting) {
  auto& f = fixture();
  const auto batches = drifted_batches(f);

  UpAnnsEngine off_engine(f.index, f.stats, f.options());
  BatchStream off(off_engine, {.overlap = true});
  const auto off_run = off.run(batches);

  UpAnnsEngine on_engine(f.index, f.stats, f.options());
  BatchStream on(on_engine,
                   {.overlap = true,
                    .adapt = AdaptMode::kCopies,
                    .adaptive = {.window_batches = 2,
                                 .minor_threshold = 0.01,
                                 .copy_change_fraction = 0.01}});
  const auto on_run = on.run(batches);

  // The controller must actually act on this workload, and copy-adjust
  // patches must stay a fraction of a full MRAM image.
  std::size_t fired = 0;
  std::uint64_t adapt_bytes = 0;
  for (const auto& slot : on_run.slots) {
    if (slot.adapt_action == AdaptAction::kNone) continue;
    ++fired;
    EXPECT_EQ(slot.adapt_action, AdaptAction::kAdjustCopies);
    EXPECT_GT(slot.adapt_drift, 0.0);
    adapt_bytes += slot.adapt_bytes;
  }
  EXPECT_GE(fired, 1u);
  EXPECT_LT(adapt_bytes, on_engine.load_image_bytes());

  // Replication changes placement, never results: neighbors bit-identical.
  ASSERT_EQ(on_run.slots.size(), off_run.slots.size());
  for (std::size_t i = 0; i < on_run.slots.size(); ++i) {
    const auto& a = on_run.slots[i].report.neighbors;
    const auto& b = off_run.slots[i].report.neighbors;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
      EXPECT_EQ(a[q], b[q]) << "batch " << i << " query " << q;
    }
  }

  // Adaptation work is folded into the slot's device phase and the serial
  // total, exactly like a mutation patch.
  double serial = 0;
  for (const auto& slot : on_run.slots) {
    EXPECT_NEAR(slot.pre_seconds + slot.device_seconds,
                slot.report.times.total() + slot.patch_seconds +
                    slot.adapt_seconds,
                1e-12);
    serial += slot.report.times.total() + slot.patch_seconds +
              slot.adapt_seconds;
  }
  EXPECT_NEAR(on_run.serial_seconds, serial, 1e-12);
}

TEST(Pipeline, AdaptFullRelocatesOnMajorDriftWithIdenticalNeighbors) {
  auto& f = fixture();
  const auto batches = drifted_batches(f);

  UpAnnsEngine off_engine(f.index, f.stats, f.options());
  BatchStream off(off_engine, {.overlap = true});
  const auto off_run = off.run(batches);

  UpAnnsEngine on_engine(f.index, f.stats, f.options());
  BatchStream on(on_engine,
                   {.overlap = true,
                    .adapt = AdaptMode::kFull,
                    .adaptive = {.window_batches = 2,
                                 .minor_threshold = 0.005,
                                 .major_threshold = 0.01,
                                 .copy_change_fraction = 2.0}});
  const auto on_run = on.run(batches);

  std::size_t relocations = 0;
  for (const auto& slot : on_run.slots) {
    if (slot.adapt_action == AdaptAction::kRelocate) {
      ++relocations;
      EXPECT_GT(slot.adapt_seconds, 0.0);
      EXPECT_GT(slot.adapt_bytes, 0u);
    }
  }
  EXPECT_GE(relocations, 1u);

  // A full relocation rebuilds every per-DPU layout; the searchable cluster
  // set is unchanged, so neighbors stay bit-identical to the static run.
  ASSERT_EQ(on_run.slots.size(), off_run.slots.size());
  for (std::size_t i = 0; i < on_run.slots.size(); ++i) {
    const auto& a = on_run.slots[i].report.neighbors;
    const auto& b = off_run.slots[i].report.neighbors;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
      EXPECT_EQ(a[q], b[q]) << "batch " << i << " query " << q;
    }
  }
}

TEST(Pipeline, QueryPipelineMatchesEngineSearch) {
  // QueryPipeline::run is UpAnnsEngine::search; a fresh pipeline over the
  // same engine state must reproduce the report exactly.
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());
  const auto via_engine = engine.search(f.wl.queries);
  QueryPipeline pipeline(engine);
  const auto direct = pipeline.run(f.wl.queries, nullptr);
  EXPECT_EQ(via_engine.neighbors, direct.neighbors);
  EXPECT_DOUBLE_EQ(via_engine.times.total(), direct.times.total());
  ASSERT_EQ(via_engine.trace.size(), direct.trace.size());
  for (std::size_t i = 0; i < direct.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(via_engine.trace[i].seconds, direct.trace[i].seconds);
  }
}

}  // namespace
}  // namespace upanns::core
