// Hot-path behavior tests for the zero-allocation serving refactor:
//
//  * once warm, repeating a batch through a reused QueryPipeline grows no
//    scratch arena (hot_path_allocations() stays flat) and reproduces the
//    seed path's SearchReport bit for bit;
//  * BatchStream's pooled kernels are transparent — each slot's report
//    equals a fresh-engine search of the same batch;
//  * the chunk-index DMA accounting in phase_distance charges exactly one
//    slice DMA per tasklet (the seed double-charged a tasklet-0 staging
//    pass on top); pinned against a hand-built MRAM image.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/dpu_kernel.hpp"
#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "pim/cost_model.hpp"
#include "pim/dpu.hpp"

namespace upanns::core {
namespace {

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::sift1b_like(7000, 77));
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

  Fixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 48;
    spec.seed = 11;
    wl = data::generate_workload(base, spec);
    stats = ivf::collect_stats(index, ivf::filter_batch(index, wl.queries, 6));
  }

  UpAnnsOptions options() const {
    UpAnnsOptions o = UpAnnsOptions::upanns();
    o.n_dpus = 10;
    o.nprobe = 6;
    o.k = 10;
    return o;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void expect_same_report(const SearchReport& a, const SearchReport& b) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
  for (std::size_t q = 0; q < a.neighbors.size(); ++q) {
    ASSERT_EQ(a.neighbors[q].size(), b.neighbors[q].size()) << "query " << q;
    for (std::size_t i = 0; i < a.neighbors[q].size(); ++i) {
      EXPECT_EQ(a.neighbors[q][i].id, b.neighbors[q][i].id);
      // Bitwise, not approximate: the refactor must not change a single
      // rounding step.
      EXPECT_EQ(std::memcmp(&a.neighbors[q][i].dist, &b.neighbors[q][i].dist,
                            sizeof(float)),
                0);
    }
  }
  EXPECT_EQ(a.times.cluster_filter, b.times.cluster_filter);
  EXPECT_EQ(a.times.lut_build, b.times.lut_build);
  EXPECT_EQ(a.times.distance_calc, b.times.distance_calc);
  EXPECT_EQ(a.times.topk, b.times.topk);
  EXPECT_EQ(a.times.transfer, b.times.transfer);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_STREQ(a.trace[i].name, b.trace[i].name);
    EXPECT_EQ(a.trace[i].seconds, b.trace[i].seconds);
  }
  ASSERT_TRUE(a.pim.has_value());
  ASSERT_TRUE(b.pim.has_value());
  EXPECT_EQ(a.pim->total_instructions, b.pim->total_instructions);
  EXPECT_EQ(a.pim->total_dma_cycles, b.pim->total_dma_cycles);
  EXPECT_EQ(a.pim->merge_insertions, b.pim->merge_insertions);
  EXPECT_EQ(a.pim->merge_pruned, b.pim->merge_pruned);
  EXPECT_EQ(a.pim->scanned_records, b.pim->scanned_records);
}

TEST(HotPath, SecondIdenticalBatchAllocatesNothingAndMatchesSeedPath) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());

  QueryPipeline pipeline(engine);
  const SearchReport first = pipeline.run(f.wl.queries, nullptr);

  // Warm now: same batch again must not grow any arena — no new kernels,
  // no scratch growth, no heap rebuilds, no launch-object churn.
  const std::uint64_t before = hot_path_allocations();
  const SearchReport second = pipeline.run(f.wl.queries, nullptr);
  const std::uint64_t after = hot_path_allocations();
  EXPECT_EQ(before, after);

  // Reuse is transparent: warm run == cold run == fresh-engine run.
  expect_same_report(first, second);
  expect_same_report(second, engine.search(f.wl.queries));
}

TEST(HotPath, BatchPipelineSlotsMatchFreshEngineSearch) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());
  const auto batches = split_batches(f.wl.queries, 16);

  BatchStream pipeline(engine);
  const BatchPipelineReport report = pipeline.run(batches);
  ASSERT_EQ(report.slots.size(), batches.size());

  // Pooled kernels (rebound per batch) must reproduce what a freshly
  // constructed pipeline computes for every batch.
  UpAnnsEngine fresh(f.index, f.stats, f.options());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    expect_same_report(report.slots[b].report, fresh.search(batches[b]));
  }
}

TEST(HotPath, PatchThenServeCyclesStayAllocationFree) {
  // Streaming updates must not re-warm the serving path: after a warm-up
  // cycle, repeated (mutate, patch, serve) rounds grow no scratch arena —
  // the patch rewrites MRAM in place (or within slack) and the pooled
  // kernels just rebind.
  auto& f = fixture();
  ivf::IvfIndex mut = f.index;
  UpAnnsEngine engine(mut, f.stats, f.options());
  QueryPipeline pipeline(engine);

  common::Rng rng(29);
  std::uint32_t next_id = 1'000'000;
  std::vector<std::uint32_t> inserted;
  const auto cycle = [&] {
    std::vector<std::uint32_t> ids;
    std::vector<float> flat;
    for (int i = 0; i < 4; ++i) {
      const float* row = f.base.row(rng.below(f.base.n));
      ids.push_back(next_id++);
      for (std::size_t d = 0; d < f.base.dim; ++d) {
        flat.push_back(row[d] + rng.uniform(-0.05f, 0.05f));
      }
    }
    engine.upsert(ids, flat);
    inserted.insert(inserted.end(), ids.begin(), ids.end());
    if (inserted.size() > 8) {  // keep net growth bounded
      std::vector<std::uint32_t> dead(inserted.begin(), inserted.begin() + 4);
      inserted.erase(inserted.begin(), inserted.begin() + 4);
      engine.remove(dead);
    }
    const auto ps = engine.patch_dpus();
    EXPECT_GT(ps.bytes_written, 0u);
    return pipeline.run(f.wl.queries, nullptr);
  };

  cycle();
  cycle();  // warm: kernel pool built, scratch at steady-state capacity

  const std::uint64_t before = hot_path_allocations();
  cycle();
  cycle();
  const std::uint64_t after = hot_path_allocations();
  EXPECT_EQ(before, after);
}

// ---------------------------------------------------------------------------
// Chunk-index DMA accounting, pinned against a hand-built MRAM image.

std::uint64_t dma(std::size_t bytes) {
  return static_cast<std::uint64_t>(pim::DpuCostModel::mram_dma_cycles(bytes));
}

struct MiniKernel {
  static constexpr std::size_t kDim = 8;
  static constexpr std::size_t kM = 4;
  static constexpr std::size_t kDsub = 2;
  static constexpr std::size_t kK = 5;
  static constexpr std::size_t kRecords = 40;  // 3 chunks: 16 + 16 + 8

  pim::Dpu dpu{0};
  DpuStaticLayout layout;
  DpuLaunchInput input;
  std::vector<float> prescaled;

  MiniKernel() {
    layout.dim = kDim;
    layout.m = kM;
    layout.dsub = kDsub;
    layout.codebook_off = dpu.mram_alloc(kM * 256 * kDsub, "codebook");
    layout.cb_scale_off = dpu.mram_alloc(kM * sizeof(float), "scales");
    const std::vector<float> scales(kM, 1.f);
    dpu.host_write(layout.cb_scale_off, scales.data(), kM * sizeof(float));
    // The all-zero codebook MRAM image, dequantized like the engine does.
    prescaled = prescale_codebook(std::vector<std::int8_t>(kM * 256 * kDsub),
                                  scales, kDsub);
    layout.cb_prescaled = prescaled;

    DpuClusterData cl;
    cl.n_records = kRecords;
    cl.ids_off = dpu.mram_alloc(kRecords * sizeof(std::uint32_t), "ids");
    for (std::uint32_t i = 0; i < kRecords; ++i) {
      dpu.host_write(cl.ids_off + i * sizeof(std::uint32_t), &i, sizeof(i));
    }
    // Direct-token records: u16 length prefix + kM tokens each.
    std::vector<std::uint16_t> stream;
    std::vector<std::uint32_t> chunk_index;
    for (std::size_t r = 0; r < kRecords; ++r) {
      if (r % kChunkRecords == 0) {
        chunk_index.push_back(static_cast<std::uint32_t>(stream.size()));
      }
      stream.push_back(kM);
      for (std::size_t pos = 0; pos < kM; ++pos) {
        stream.push_back(static_cast<std::uint16_t>(pos * 256 + (r % 256)));
      }
    }
    cl.stream_len = stream.size();
    cl.stream_off =
        dpu.mram_alloc(stream.size() * sizeof(std::uint16_t), "stream");
    dpu.host_write(cl.stream_off, stream.data(),
                   stream.size() * sizeof(std::uint16_t));
    cl.n_chunks = static_cast<std::uint32_t>(chunk_index.size());
    cl.chunk_index_off = dpu.mram_alloc(
        chunk_index.size() * sizeof(std::uint32_t), "chunk-index");
    dpu.host_write(cl.chunk_index_off, chunk_index.data(),
                   chunk_index.size() * sizeof(std::uint32_t));
    cl.centroid_off = dpu.mram_alloc(kDim * sizeof(float), "centroid");
    layout.clusters.push_back(cl);

    input.k = kK;
    input.queries_off = dpu.mram_alloc(kDim * sizeof(float), "query");
    input.results_off = dpu.mram_alloc(kK * 8, "results");
    input.query_rows = {0};
    input.items.push_back({0, 0});
  }

  /// The exact DMA bill of one run at `t` tasklets, mirrored analytically.
  std::uint64_t expected_dma_cycles(unsigned t) const {
    const DpuClusterData& cl = layout.clusters[0];
    std::uint64_t total = 0;
    // S0 LUT build: tasklet 0 views query + centroid; every tasklet views
    // the scale table; each subspace's codebook segment is viewed by its
    // owning tasklet.
    total += 2 * dma(kDim * sizeof(float));
    total += t * dma(kM * sizeof(float));
    total += kM * dma(256 * kDsub);
    // S4 distance: one chunk-index slice DMA per tasklet — ceil(n_chunks/t)
    // entries, capped at the table. This is the accounting under test: the
    // seed additionally charged a 4-instruction tasklet-0 staging pass.
    const std::size_t own = (cl.n_chunks + t - 1) / t;
    total += t * dma(std::min<std::size_t>(own * sizeof(std::uint32_t),
                                           cl.n_chunks * sizeof(std::uint32_t)));
    // Per chunk: one ids DMA + the token-stream span (all spans < 2048 B
    // here, so each is a single transfer).
    for (std::uint32_t ci = 0; ci < cl.n_chunks; ++ci) {
      const std::size_t rec_lo = static_cast<std::size_t>(ci) * kChunkRecords;
      const std::size_t rec_hi =
          std::min<std::size_t>(cl.n_records, rec_lo + kChunkRecords);
      total += dma((rec_hi - rec_lo) * sizeof(std::uint32_t));
      // Every record is kM+1 elements (length prefix + kM tokens), so the
      // chunk's stream span is exactly its record span scaled up.
      total += dma((rec_hi - rec_lo) * (kM + 1) * sizeof(std::uint16_t));
    }
    // S5 merge: the last tasklet writes the packed top-k.
    total += dma(kK * 8);
    return total;
  }
};

TEST(HotPath, ChunkIndexDmaChargedPerTaskletSlice) {
  for (unsigned t : {1u, 2u, 3u}) {
    MiniKernel mini;
    QueryKernel kernel(mini.layout, mini.input, KernelMode::kDirectTokens,
                       /*prune_topk=*/true);
    const pim::DpuRunStats stats = mini.dpu.run(kernel, t);
    EXPECT_EQ(stats.dma_cycles, mini.expected_dma_cycles(t))
        << "tasklets=" << t;
  }
}

}  // namespace
}  // namespace upanns::core
