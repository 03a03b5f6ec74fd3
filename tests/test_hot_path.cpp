// Hot-path behavior tests for the zero-allocation serving refactor:
//
//  * allocation counts, taken by replacing global operator new: a warm
//    Dpu::run of the query kernel allocates nothing, a warm
//    PimSystem::launch allocates no block per active DPU, and repeated
//    identical batches (with or without patches between them) allocate the
//    same count each;
//  * reuse is transparent: a repeated batch reproduces the first one's
//    SearchReport bit for bit, and BatchStream's pooled kernels reproduce a
//    fresh-engine search of the same batch;
//  * the chunk-index DMA accounting in the distance phase charges exactly
//    one slice DMA per tasklet (the seed double-charged a tasklet-0 staging
//    pass on top); pinned against a hand-built MRAM image.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "alloc_count.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
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

TEST(HotPath, RepeatedBatchMatchesFirstBatchAndFreshSearch) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());

  QueryPipeline pipeline(engine);
  const SearchReport first = pipeline.run(f.wl.queries, nullptr);
  const SearchReport second = pipeline.run(f.wl.queries, nullptr);

  // Reuse is transparent: warm run == cold run == fresh-engine run.
  expect_same_report(first, second);
  expect_same_report(second, engine.search(f.wl.queries));
}

// Once warm, an identical batch allocates what the previous one did: no
// buffer of the pipeline, the kernel pool or the launch keeps growing. The
// rest are per-batch and per-query vectors of the stages and the report.
TEST(HotPath, WarmIdenticalBatchesAllocateTheSameCount) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());
  QueryPipeline pipeline(engine);
  pipeline.run(f.wl.queries, nullptr);

  const auto batch = [&] { pipeline.run(f.wl.queries, nullptr); };
  const std::size_t second = count_allocations(batch);
  const std::size_t third = count_allocations(batch);
  EXPECT_EQ(second, third);
  EXPECT_GT(second, 0u);
  RecordProperty("allocations_per_batch", static_cast<int>(second));
}

TEST(HotPath, BatchPipelineSlotsMatchFreshEngineSearch) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, f.options());
  const auto batches = split_batches(f.wl.queries, 16);

  BatchStream pipeline(engine);
  const BatchPipelineReport report = pipeline.run(batches);
  ASSERT_EQ(report.slots.size(), batches.size());

  // Pooled kernels (rebound per batch) must reproduce what kernels that
  // have never run compute: each batch's reference is a new engine, so no
  // state a launch leaves behind can appear on both sides.
  for (std::size_t b = 0; b < batches.size(); ++b) {
    UpAnnsEngine fresh(f.index, f.stats, f.options());
    expect_same_report(report.slots[b].report, fresh.search(batches[b]));
  }
}

TEST(HotPath, PatchThenServeCyclesAllocateTheSameCount) {
  // Streaming updates must not re-warm the serving path: after a warm-up
  // cycle, the serve of each (mutate, patch, serve) round allocates the
  // same count — the patch rewrites MRAM in place (or within slack) and the
  // pooled kernels just rebind. The mutation itself grows the index's lists
  // now and then, so its allocations are not compared.
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
    return count_allocations([&] { pipeline.run(f.wl.queries, nullptr); });
  };

  cycle();
  cycle();  // warm: kernel pool built, scratch at steady-state capacity

  const std::size_t third = cycle();
  const std::size_t fourth = cycle();
  EXPECT_EQ(third, fourth);
  EXPECT_GT(third, 0u);
  RecordProperty("allocations_per_serve", static_cast<int>(third));
}

// ---------------------------------------------------------------------------
// Chunk-index DMA accounting, pinned against a hand-built MRAM image.

std::uint64_t dma(std::size_t bytes) {
  return pim::DpuCostModel::mram_dma_cycles(bytes);
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

// A warm Dpu::run of the query kernel allocates nothing: the scratch arena
// and the top-k buffers keep their capacity, and the launch's tasklet
// records live on the stack.
TEST(HotPath, WarmDpuRunAllocatesNothing) {
  MiniKernel mini;
  QueryKernel kernel(mini.layout, mini.input, KernelMode::kDirectTokens,
                     /*prune_topk=*/true);
  const pim::DpuRunStats cold = mini.dpu.run(kernel, 11);
  pim::DpuRunStats warm;
  EXPECT_EQ(count_allocations([&] { warm = mini.dpu.run(kernel, 11); }), 0u);
  EXPECT_EQ(warm.cycles, cold.cycles);
  EXPECT_EQ(warm.dma_cycles, cold.dma_cycles);
}

// A warm PimSystem::launch allocates no block per active DPU. Its fixed
// blocks are the two per-DPU result vectors, the dispatch order and the
// claiming loop's std::function; a launch over more than one active DPU on
// a pool with helpers also publishes one job.
TEST(HotPath, WarmLaunchAllocatesNothingPerActiveDpu) {
  class Work : public pim::DpuKernel {
   public:
    void run(pim::DpuRun& run) override {
      for (unsigned t = 0; t < run.n_tasklets(); ++t) {
        run.tasklet(t).instr(100 + t);
      }
      run.barrier(0);
      run.tasklet(0).dma(64);
      run.barrier(1);
    }
  };
  constexpr std::size_t kDpus = 10;
  pim::PimSystem sys(kDpus);
  std::vector<Work> kernels(kDpus);
  const std::vector<double> work(kDpus, 1.0);
  const auto launch = [&](std::size_t active) {
    return count_allocations([&] {
      sys.launch([&](std::size_t d) -> pim::DpuKernel* {
        return d < active ? &kernels[d] : nullptr;
      }, 11, work);
    });
  };
  launch(kDpus);  // warm: the pool's helpers and its job queue
  const std::size_t one = launch(1);
  const std::size_t two = launch(2);
  const std::size_t ten = launch(kDpus);
  EXPECT_EQ(two, ten);
  const bool pooled = common::ThreadPool::global().size() > 1;
  EXPECT_EQ(one + (pooled ? 1 : 0), ten);
}

}  // namespace
}  // namespace upanns::core
