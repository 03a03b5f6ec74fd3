// google-benchmark micro-benchmarks for the host-side hot kernels: LUT
// construction, ADC scans, heap maintenance, CAE encoding, placement and
// scheduling, the cluster filter and the span exports. These measure the
// *simulator's* host cost (how fast we can evaluate the model),
// complementing the simulated-time figure benches.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "common/simd_dispatch.hpp"
#include "common/topk.hpp"
#include "core/cae.hpp"
#include "core/dpu_kernel.hpp"
#include "core/placement.hpp"
#include "core/scheduler.hpp"
#include "data/dataset.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "pim/cost_model.hpp"
#include "pim/dpu.hpp"
#include "quant/kmeans.hpp"
#include "quant/pq.hpp"

namespace {

using namespace upanns;

std::vector<float> random_vecs(std::size_t n, std::size_t dim,
                               std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(n * dim);
  for (auto& x : v) x = static_cast<float>(rng.gaussian(0.0, 1.0));
  return v;
}

/// Pins the SIMD level named by the benchmark argument `arg` for the
/// benchmark's lifetime and labels the row with it; a level this CPU lacks
/// skips the benchmark instead.
struct PinnedLevel {
  PinnedLevel(benchmark::State& state, int arg)
      : level(static_cast<common::SimdLevel>(state.range(arg))),
        supported(static_cast<int>(level) <=
                  static_cast<int>(common::simd_max_supported())) {
    if (!supported) {
      state.SkipWithError("SIMD level not supported");
      return;
    }
    common::set_simd_level(level);
    state.SetLabel(common::simd_level_name(level));
  }
  ~PinnedLevel() { common::set_simd_level(prev); }

  const common::SimdLevel prev = common::simd_active_level();
  const common::SimdLevel level;
  const bool supported;
};

const quant::ProductQuantizer& shared_pq() {
  static const quant::ProductQuantizer pq = [] {
    quant::ProductQuantizer p;
    quant::PqOptions opts;
    opts.m = 16;
    opts.train_iters = 4;
    const auto data = random_vecs(4000, 128, 1);
    p.train(data, 4000, 128, opts);
    return p;
  }();
  return pq;
}

void BM_PqEncode(benchmark::State& state) {
  const auto& pq = shared_pq();
  const auto vecs = random_vecs(256, 128, 2);
  std::vector<std::uint8_t> codes(16);
  std::size_t i = 0;
  for (auto _ : state) {
    pq.encode(vecs.data() + (i++ % 256) * 128, codes.data());
    benchmark::DoNotOptimize(codes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PqEncode);

void BM_LutBuild(benchmark::State& state) {
  const auto& pq = shared_pq();
  const auto q = random_vecs(1, 128, 3);
  std::vector<float> lut(16 * 256);
  for (auto _ : state) {
    pq.compute_lut(q.data(), lut.data());
    benchmark::DoNotOptimize(lut);
  }
}
BENCHMARK(BM_LutBuild);

// The build-phase kernel (k-means Lloyd steps, coarse assignment, PQ
// encode) at its two shapes, per SIMD level: args are dim, k and the level.
// Levels the CPU lacks are skipped.
void BM_NearestCentroid(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const PinnedLevel pin(state, 2);
  if (!pin.supported) return;
  const auto centroids = random_vecs(k, dim, 40);
  quant::BlockMajor tctr(quant::pad8(k) * dim);
  quant::transpose_centroids(centroids.data(), k, dim, tctr.data());
  const auto points = random_vecs(256, dim, 41);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto best = quant::nearest_centroid_t(
        points.data() + (i++ % 256) * dim, tctr.data(), k, dim);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NearestCentroid)
    ->ArgNames({"dim", "k", "level"})
    ->ArgsProduct({{128}, {512}, {0, 1, 2, 3}})
    ->ArgsProduct({{8}, {256}, {0, 1, 2, 3}});

// The PQ-shape kernel the avx512 level runs instead: 16 points per call in
// the point-lane layout (below that level, the per-point block kernel
// above). items_per_second compares with BM_NearestCentroid's per point.
void BM_NearestCentroidLanes(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const PinnedLevel pin(state, 1);
  if (!pin.supported) return;
  const auto centroids = random_vecs(256, dim, 40);
  quant::BlockMajor tctr(quant::pad8(256) * dim);
  quant::transpose_centroids(centroids.data(), 256, dim, tctr.data());
  const auto groups = random_vecs(256, dim, 41);  // 16 groups of 16 points
  std::uint32_t idx[quant::kLanePoints] = {};
  float dist[quant::kLanePoints] = {};
  std::size_t g = 0;
  for (auto _ : state) {
    quant::nearest_centroid_lanes(groups.data() + (g++ % 16) * dim * 16,
                                  tctr.data(), 256, dim, idx, dist);
    benchmark::DoNotOptimize(idx);
    benchmark::DoNotOptimize(dist);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(quant::kLanePoints));
}
BENCHMARK(BM_NearestCentroidLanes)
    ->ArgNames({"dim", "level"})
    ->ArgsProduct({{8, 5}, {2, 3}});

// Serial batch encoding of 4096 SIFT-shape vectors (m 16, dsub 8), as
// IvfIndex::build encodes residuals: per vector, compare with BM_PqEncode.
void BM_PqEncodeBatch(benchmark::State& state) {
  const PinnedLevel pin(state, 0);
  if (!pin.supported) return;
  const auto& pq = shared_pq();
  const auto vecs = random_vecs(4096, 128, 2);
  std::vector<std::uint8_t> codes(4096 * 16);
  for (auto _ : state) {
    pq.encode_batch(vecs, 4096, codes.data());
    benchmark::DoNotOptimize(codes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PqEncodeBatch)->ArgName("level")->Arg(2)->Arg(3);

/// The training sets of the two k-means shapes of a batch_paper build: 40k
/// sift-like points for the coarse quantizer (dim 128, k 512), and for PQ
/// (dim 8, k 256) the first 8 columns of 30k of their coarse residuals.
struct TrainShape {
  std::vector<float> data;
  std::size_t n = 0, dim = 0, k = 0;
};

const TrainShape& train_shape(std::size_t dim) {
  static const std::vector<TrainShape> shapes = [] {
    const data::Dataset base =
        data::generate_synthetic(data::sift1b_like(40'000, 7));
    quant::KMeansOptions opts;
    opts.n_clusters = 512;
    opts.max_iters = 2;
    const quant::KMeansResult coarse =
        quant::kmeans(base.values, base.n, base.dim, opts);
    TrainShape pq{std::vector<float>(30'000 * 8), 30'000, 8, 256};
    for (std::size_t i = 0; i < pq.n; ++i) {
      const float* c = coarse.centroids.data() + coarse.labels[i] * base.dim;
      for (std::size_t d = 0; d < pq.dim; ++d) {
        pq.data[i * pq.dim + d] = base.row(i)[d] - c[d];
      }
    }
    return std::vector<TrainShape>{{base.values, base.n, base.dim, 512}, pq};
  }();
  return shapes[dim == 8 ? 1 : 0];
}

// Serial kmeans_train at the coarse and the PQ shape: args are dim and the
// Lloyd step cap (8, as perfbench builds; 0 times the k-means++ seeding
// alone). `computed` is the share of point-centroid distances computed out
// of what an unpruned run computes.
void BM_KMeansTrain(benchmark::State& state) {
  const TrainShape& s = train_shape(static_cast<std::size_t>(state.range(0)));
  quant::KMeansOptions opts;
  opts.n_clusters = s.k;
  opts.max_iters = static_cast<std::size_t>(state.range(1));
  opts.use_threads = false;
  quant::KMeansResult res;
  for (auto _ : state) {
    res = quant::kmeans_train(s.data, s.n, s.dim, opts);
    benchmark::DoNotOptimize(res.centroids.data());
  }
  state.counters["computed"] = static_cast<double>(res.distances) /
                               static_cast<double>(res.full_scan_distances);
}
BENCHMARK(BM_KMeansTrain)
    ->ArgNames({"dim", "iters"})
    ->ArgsProduct({{128, 8}, {0, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_AdcScan(benchmark::State& state) {
  const auto& pq = shared_pq();
  const auto q = random_vecs(1, 128, 4);
  std::vector<float> lut(16 * 256);
  pq.compute_lut(q.data(), lut.data());
  common::Rng rng(5);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> codes(n * 16);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(256));
  for (auto _ : state) {
    float acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += pq.adc_distance(lut.data(), codes.data() + i * 16);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AdcScan)->Arg(256)->Arg(4096);

void BM_QuantizedAdcScan(benchmark::State& state) {
  const auto& pq = shared_pq();
  const auto q = random_vecs(1, 128, 6);
  std::vector<float> lut(16 * 256);
  pq.compute_lut(q.data(), lut.data());
  const quant::QuantizedLut qlut = pq.quantize_lut(lut);
  common::Rng rng(7);
  const std::size_t n = 4096;
  std::vector<std::uint8_t> codes(n * 16);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(256));
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += pq.adc_distance_q(qlut, codes.data() + i * 16);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuantizedAdcScan);

// Top-k fills of `pushes` random candidates each, refilling one cleared
// buffer: k 10 over 18 pushes is a batch_paper tasklet's S4 share of a
// cluster, k 64 over 512 is the cluster filter (nprobe of 512 centroids),
// and 65536 pushes measure the steady rejecting state. The last four rows
// sit on both sides of TopK::kBranchFreeCapacity, the insert crossover.
void BM_HeapPush(benchmark::State& state) {
  common::Rng rng(8);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t pushes = static_cast<std::size_t>(state.range(1));
  std::vector<float> dists(65536);
  for (auto& d : dists) d = rng.uniform(0.f, 1.f);
  const std::size_t fills = dists.size() / pushes;
  common::TopK top(k);
  for (auto _ : state) {
    for (std::size_t f = 0; f < fills; ++f) {
      top.clear();
      const float* d = dists.data() + f * pushes;
      for (std::size_t i = 0; i < pushes; ++i) {
        top.push(d[i], static_cast<std::uint32_t>(i));
      }
      benchmark::DoNotOptimize(top.worst());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fills * pushes));
}
BENCHMARK(BM_HeapPush)
    ->ArgNames({"k", "pushes"})
    ->Args({10, 18})
    ->Args({64, 512})
    ->Args({10, 65536})
    ->Args({100, 65536})
    ->ArgsProduct({{common::TopK::kBranchFreeCapacity,
                    common::TopK::kBranchFreeCapacity + 1},
                   {18, 512}});

ivf::InvertedList patterned_list(std::size_t n) {
  common::Rng rng(9);
  ivf::InvertedList list;
  for (std::size_t i = 0; i < n; ++i) {
    list.ids.push_back(static_cast<std::uint32_t>(i));
    for (std::size_t s = 0; s < 16; ++s) {
      // ~50% of rows share a triplet at positions 0-2.
      const bool pattern = s < 3 && i % 2 == 0;
      list.codes.push_back(pattern ? static_cast<std::uint8_t>(s + 1)
                                   : static_cast<std::uint8_t>(rng.below(256)));
    }
  }
  return list;
}

void BM_CaeEncode(benchmark::State& state) {
  const auto list = patterned_list(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto enc = core::cae_encode_cluster(list, 16, core::CaeOptions{});
    benchmark::DoNotOptimize(enc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CaeEncode)->Arg(1024)->Arg(8192);

// --- Arena-backed QueryKernel scans: a hand-built single-cluster MRAM
// image driven through Dpu::run. The first iteration warms the scratch
// arena and the top-k buffers; steady state measures the allocation-free
// hot path end to end (views + scratch + reused heaps). Each iteration
// searches the next of kPool queries, so every LUT, distance and top-k
// accept sequence is fresh: replaying one query lets the branch predictor
// learn the whole scan, which flatters branchy code.
struct KernelImage {
  static constexpr std::size_t kDim = 128;
  static constexpr std::size_t kM = 16;
  static constexpr std::size_t kDsub = 8;
  static constexpr std::size_t kK = 10;
  static constexpr std::size_t kPool = 64;

  pim::Dpu dpu{0};
  core::DpuStaticLayout layout;
  std::vector<core::DpuLaunchInput> inputs;  ///< one per pooled query
  std::vector<float> prescaled;

  KernelImage(core::KernelMode mode, std::size_t n_records) {
    common::Rng rng(17);
    layout.dim = kDim;
    layout.m = kM;
    layout.dsub = kDsub;
    std::vector<std::int8_t> codebook(kM * 256 * kDsub);
    for (auto& v : codebook) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
    }
    const std::vector<float> scales(kM, 0.02f);
    layout.codebook_off = dpu.mram_alloc(codebook.size(), "codebook");
    dpu.host_write(layout.codebook_off, codebook.data(), codebook.size());
    layout.cb_scale_off = dpu.mram_alloc(kM * sizeof(float), "scales");
    dpu.host_write(layout.cb_scale_off, scales.data(), kM * sizeof(float));
    prescaled = core::prescale_codebook(codebook, scales, kDsub);
    layout.cb_prescaled = prescaled;

    core::DpuClusterData cl;
    cl.n_records = static_cast<std::uint32_t>(n_records);
    cl.ids_off = dpu.mram_alloc(n_records * sizeof(std::uint32_t), "ids");
    for (std::uint32_t i = 0; i < n_records; ++i) {
      dpu.host_write(cl.ids_off + i * sizeof(std::uint32_t), &i, sizeof(i));
    }
    if (mode == core::KernelMode::kNaiveRaw) {
      cl.stream_len = n_records * kM;  // u8 codes, element == byte
      cl.stream_off = dpu.mram_alloc(cl.stream_len, "codes");
      for (std::size_t i = 0; i < cl.stream_len; ++i) {
        const auto c = static_cast<std::uint8_t>(rng.below(256));
        dpu.host_write(cl.stream_off + i, &c, 1);
      }
    } else {
      // Token records: u16 length prefix + that many tokens each; kM direct
      // tokens, or the CAE encoding of patterned codes with its combos.
      std::vector<std::uint16_t> stream;
      std::vector<std::uint32_t> chunk_index;
      if (mode == core::KernelMode::kCae) {
        const core::CaeClusterEncoding enc = core::cae_encode_cluster(
            patterned_list(n_records), kM, core::CaeOptions{});
        stream = enc.tokens;
        for (std::size_t r = 0, at = 0; r < n_records; ++r) {
          if (r % core::kChunkRecords == 0) {
            chunk_index.push_back(static_cast<std::uint32_t>(at));
          }
          at += 1 + stream[at];
        }
        cl.n_combos = static_cast<std::uint32_t>(enc.combos.size());
        cl.combos_off = dpu.mram_alloc(enc.combos.size() * 4, "combos");
        dpu.host_write(cl.combos_off, enc.combos.data(),
                       enc.combos.size() * 4);
      } else {
        for (std::size_t r = 0; r < n_records; ++r) {
          if (r % core::kChunkRecords == 0) {
            chunk_index.push_back(static_cast<std::uint32_t>(stream.size()));
          }
          stream.push_back(kM);
          for (std::size_t pos = 0; pos < kM; ++pos) {
            stream.push_back(
                static_cast<std::uint16_t>(pos * 256 + rng.below(256)));
          }
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
    }
    cl.centroid_off = dpu.mram_alloc(kDim * sizeof(float), "centroid");
    layout.clusters.push_back(cl);

    const std::size_t queries_off =
        dpu.mram_alloc(kPool * kDim * sizeof(float), "queries");
    const auto q = random_vecs(kPool, kDim, 23);
    dpu.host_write(queries_off, q.data(), q.size() * sizeof(float));
    const std::size_t results_off = dpu.mram_alloc(kK * 8, "results");
    inputs.resize(kPool);
    for (std::size_t i = 0; i < kPool; ++i) {
      inputs[i].k = kK;
      inputs[i].queries_off = queries_off + i * kDim * sizeof(float);
      inputs[i].results_off = results_off;
      inputs[i].query_rows = {0};
      inputs[i].items.push_back({0, 0});
    }
  }
};

void run_kernel_scan(benchmark::State& state, core::KernelMode mode) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  KernelImage img(mode, n);
  core::QueryKernel kernel(img.layout, img.inputs[0], mode, true);
  std::size_t round = 0;
  for (auto _ : state) {
    kernel.rebind(img.inputs[round++ % KernelImage::kPool]);
    const pim::DpuRunStats stats = img.dpu.run(kernel, 11);
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

// The S4 token scan: the prefix gather and the register-resident tasklet
// top-k of the avx512 level against their AVX2-level counterparts.
void BM_AdcScanTokens(benchmark::State& state) {
  const PinnedLevel pin(state, 1);
  if (!pin.supported) return;
  run_kernel_scan(state, core::KernelMode::kDirectTokens);
}
BENCHMARK(BM_AdcScanTokens)
    ->ArgNames({"n", "level"})
    ->ArgsProduct({{128, 1024, 8192}, {2, 3}});

void BM_AdcScanRaw(benchmark::State& state) {
  run_kernel_scan(state, core::KernelMode::kNaiveRaw);
}
BENCHMARK(BM_AdcScanRaw)->Arg(1024)->Arg(8192);

// The whole kernel program, launch included: one Dpu::run at 11 tasklets
// over N items of one 195-record CAE list (batch_paper's mean list length),
// each item its own query, so every item closes with an S5 merge as it
// mostly does on a DPU of the benchmark workloads. N = 17, 37 and 73 are
// the items per DPU of fleet_rw, online_zipf and batch_paper. Each
// iteration takes the next of 8 query windows; `item` is time per item.
void BM_DpuRun(benchmark::State& state) {
  constexpr std::size_t kQueries = 128;
  constexpr std::size_t kWindows = 8;
  const auto n = static_cast<std::size_t>(state.range(0));
  KernelImage img(core::KernelMode::kCae, 195);
  const std::size_t queries_off = img.dpu.mram_alloc(
      kQueries * KernelImage::kDim * sizeof(float), "batch-queries");
  const auto q = random_vecs(kQueries, KernelImage::kDim, 29);
  img.dpu.host_write(queries_off, q.data(), q.size() * sizeof(float));
  const std::size_t results_off =
      img.dpu.mram_alloc(n * KernelImage::kK * 8, "batch-results");
  std::vector<core::DpuLaunchInput> inputs(kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    core::DpuLaunchInput& in = inputs[w];
    in.k = KernelImage::kK;
    in.queries_off = queries_off + (w * 7 % (kQueries - n + 1)) *
                                       KernelImage::kDim * sizeof(float);
    in.results_off = results_off;
    for (std::uint32_t i = 0; i < n; ++i) {
      in.query_rows.push_back(i);
      in.items.push_back({i, 0});
    }
  }
  core::QueryKernel kernel(img.layout, inputs[0], core::KernelMode::kCae,
                           true);
  std::size_t round = 0;
  for (auto _ : state) {
    kernel.rebind(inputs[round++ % kWindows]);
    const pim::DpuRunStats stats = img.dpu.run(kernel, 11);
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.counters["item"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DpuRun)->ArgName("items")->Arg(17)->Arg(37)->Arg(73);

// The kernel's own LUT path (BM_LutBuild times the CPU baseline's float
// LUT): one chunk of 16 records leaves S0-S2 (residual, 16 LUT rows, scale
// reduction, u16 quantization) as nearly the whole Dpu::run cost.
void BM_KernelLut(benchmark::State& state) {
  const PinnedLevel pin(state, 1);
  if (!pin.supported) return;
  run_kernel_scan(state, core::KernelMode::kDirectTokens);
}
BENCHMARK(BM_KernelLut)->ArgNames({"n", "level"})->ArgsProduct({{16}, {2, 3}});

// The S4 + S5 top-k pattern in isolation: fill per-tasklet buffers with
// `per_tasklet` candidates each through push_each, as the kernel's S4 does,
// then walk each one min-first in place and prune-merge it into the
// DPU-wide buffer. 18 per tasklet is batch_paper's shape (~195 records per
// cluster over 11 tasklets). Iterations cycle through kPool candidate sets
// so the branch predictor cannot learn one.
void BM_HeapMergePruned(benchmark::State& state) {
  constexpr std::size_t kTasklets = 11;
  constexpr std::size_t kK = 10;
  constexpr std::size_t kPool = 64;
  const auto per_tasklet = static_cast<std::size_t>(state.range(0));
  const PinnedLevel pin(state, 1);
  if (!pin.supported) return;
  const std::size_t per_round = kTasklets * per_tasklet;
  common::Rng rng(31);
  std::vector<float> dists(kPool * per_round);
  for (auto& d : dists) d = rng.uniform(0.f, 1.f);

  std::vector<common::TopK> locals(kTasklets, common::TopK(kK));
  common::TopK global(kK);

  std::size_t round = 0;
  for (auto _ : state) {
    const float* d = dists.data() + (round++ % kPool) * per_round;
    global.clear();
    for (std::size_t t = 0; t < kTasklets; ++t) {
      locals[t].clear();
      const float* dt = d + t * per_tasklet;
      locals[t].push_each(pin.level, per_tasklet,
                          [&](std::size_t i, std::uint64_t& key) {
                            key = common::TopK::pack(
                                dt[i], static_cast<std::uint32_t>(i));
                            return true;
                          });
      for (const std::uint64_t key : locals[t].keys()) {
        if (global.full() && !(key < global.worst())) break;
        global.push(key);
      }
    }
    benchmark::DoNotOptimize(global.worst());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(per_round));
}
BENCHMARK(BM_HeapMergePruned)
    ->ArgNames({"per_tasklet", "level"})
    ->ArgsProduct({{18, 64}, {2, 3}});

void BM_MramLatencyModel(benchmark::State& state) {
  for (auto _ : state) {
    double acc = 0;
    for (std::size_t b = 8; b <= 2048; b += 8) {
      acc += pim::DpuCostModel::mram_dma_cycles(b);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_MramLatencyModel);

struct PlacementFixtureData {
  data::Dataset base;
  ivf::IvfIndex index;
  ivf::ClusterStats stats;
  std::vector<std::vector<std::uint32_t>> probes;
};

const PlacementFixtureData& placement_fixture() {
  static const PlacementFixtureData f = [] {
    auto base = data::generate_synthetic(data::sift1b_like(30000, 10));
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 128;
    opts.pq_m = 16;
    opts.coarse_iters = 5;
    opts.pq_iters = 3;
    auto index = ivf::IvfIndex::build(base, opts);
    data::WorkloadSpec spec;
    spec.n_queries = 256;
    auto wl = data::generate_workload(base, spec);
    auto probes = ivf::filter_batch(index, wl.queries, 32);
    auto stats = ivf::collect_stats(index, probes);
    return PlacementFixtureData{std::move(base), std::move(index),
                                std::move(stats), std::move(probes)};
  }();
  return f;
}

void BM_PlacementAlgorithm1(benchmark::State& state) {
  const auto& f = placement_fixture();
  core::PlacementOptions opts;
  opts.n_dpus = 64;
  for (auto _ : state) {
    auto p = core::place_clusters(f.index, f.stats, opts);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PlacementAlgorithm1);

void BM_SchedulingAlgorithm2(benchmark::State& state) {
  const auto& f = placement_fixture();
  core::PlacementOptions opts;
  opts.n_dpus = 64;
  const auto placement = core::place_clusters(f.index, f.stats, opts);
  const auto sizes = f.index.list_sizes();
  for (auto _ : state) {
    auto s = core::schedule_queries(f.probes, placement, sizes);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.probes.size()));
}
BENCHMARK(BM_SchedulingAlgorithm2);

// ---------------------------------------------------------------- the host
// layers of a fleet_rw round outside the kernel

/// A fleet_rw-shaped span forest: 65 batches of 128 queries on three hosts.
/// Per batch a root, ten lane spans (cluster-filter, broadcast, a schedule
/// and a device phase per host, gather, interhost-merge) and per query a
/// query span with its five phase spans: 50,635 spans. Like the real
/// forest, the queries of a batch share their phase starts and shares.
const obs::SpanLog& fleet_forest() {
  static const obs::SpanLog log = [] {
    obs::SpanLog l;
    const char* const phases[] = {"cluster-filter", "broadcast",
                                  "host-search", "gather", "interhost-merge"};
    common::Rng rng(29);
    double t = 0;
    for (std::int64_t b = 0; b < 65; ++b) {
      double sec[5];
      for (double& x : sec) x = rng.uniform(1e-5, 2e-3);
      const double total = sec[0] + sec[1] + sec[2] + sec[3] + sec[4];
      const std::uint64_t root = l.push(0, "batch", "batch", b, t, total).id;
      double start[5];
      double cursor = t;
      for (int p = 0; p < 5; ++p) {
        start[p] = cursor;
        cursor += sec[p];
      }
      l.push(root, "cluster-filter", "coord", b, start[0], sec[0]);
      l.push(root, "broadcast", "net", b, start[1], sec[1]);
      for (std::int64_t h = 0; h < 3; ++h) {
        const double sched = sec[2] * 0.01 * static_cast<double>(h + 1);
        l.push(root, "alg2-schedule", "host", b, start[2], sched).host = h;
        l.push(root, "device-phase", "host", b, start[2] + sched,
               sec[2] - sched)
            .host = h;
      }
      l.push(root, "gather", "net", b, start[3], sec[3]);
      l.push(root, "interhost-merge", "coord", b, start[4], sec[4]);
      for (std::int64_t q = 0; q < 128; ++q) {
        obs::Span& qs = l.push(root, "query", "query", b, t, total / 128);
        qs.query = b * 128 + q;
        const std::uint64_t qid = qs.id;
        for (int p = 0; p < 5; ++p) {
          l.push(qid, phases[p], "query-stage", b, start[p], sec[p] / 128)
              .query = b * 128 + q;
        }
      }
      t += total * 0.75;  // overlapped batches
    }
    return l;
  }();
  return log;
}

/// The lane slices of the forest, on the fleet's lanes.
obs::PipelineTrace fleet_lanes(const obs::SpanLog& log) {
  obs::PipelineTrace t;
  t.lanes = {{0, "coordinator"}, {1, "network"}};
  for (int h = 0; h < 3; ++h) {
    t.lanes.emplace_back(2 + h, "host-" + std::to_string(h));
  }
  for (const obs::Span& s : log.spans()) {
    if (s.category == "batch" || s.category == "query" ||
        s.category == "query-stage") {
      continue;
    }
    const int lane = s.category == "net" ? 1
                     : s.host >= 0       ? static_cast<int>(2 + s.host)
                                         : 0;
    t.slices.push_back({s.name, s.category, lane, s.start_seconds,
                        s.duration_seconds,
                        static_cast<std::size_t>(s.batch)});
  }
  return t;
}

/// obs::span_log_json of one fleet_rw round's forest.
void BM_SpanLogJson(benchmark::State& state) {
  const obs::SpanLog& log = fleet_forest();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string out = obs::span_log_json(log);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.counters["spans"] = static_cast<double>(log.size());
}
BENCHMARK(BM_SpanLogJson)->Unit(benchmark::kMillisecond);

/// obs::trace_json of the round's lane slices with the forest as async
/// event pairs, as fleet_rw exports it.
void BM_TraceJsonSpans(benchmark::State& state) {
  const obs::SpanLog& log = fleet_forest();
  const obs::PipelineTrace trace = fleet_lanes(log);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string out = obs::trace_json(trace, &log);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.counters["spans"] = static_cast<double>(log.size());
}
BENCHMARK(BM_TraceJsonSpans)->Unit(benchmark::kMillisecond);

/// A 512-cluster, dim-128 index (the shape of all three perfbench
/// workloads) and one 128-query batch.
struct FilterFixture {
  ivf::IvfIndex index;
  data::Dataset queries;
};

const FilterFixture& filter_fixture() {
  static const FilterFixture f = [] {
    const auto base = data::generate_synthetic(data::sift1b_like(20000, 12));
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 512;
    opts.pq_m = 16;
    opts.coarse_iters = 2;
    opts.pq_iters = 1;
    data::WorkloadSpec spec;
    spec.n_queries = 128;
    return FilterFixture{ivf::IvfIndex::build(base, opts),
                         data::generate_workload(base, spec).queries};
  }();
  return f;
}

/// The cluster filter of one 128-query batch on one thread: `layout` 0 is
/// the row-major loop (l2_sq per centroid into a TopK) that
/// IvfIndex::filter_clusters replaced, 1 is filter_clusters on its
/// block-major centroid mirror. Both return the same probe lists.
void BM_FilterClusters(benchmark::State& state) {
  const FilterFixture& f = filter_fixture();
  const auto nprobe = static_cast<std::size_t>(state.range(0));
  const bool blocked = state.range(1) != 0;
  const ivf::IvfIndex& idx = f.index;
  const auto row_major = [&](const float* q) {
    common::TopK top(nprobe);
    for (std::size_t c = 0; c < idx.n_clusters(); ++c) {
      top.push(quant::l2_sq(q, idx.centroid(c), idx.dim()),
               static_cast<std::uint32_t>(c));
    }
    std::vector<std::uint32_t> ids;
    ids.reserve(top.size());
    for (const std::uint64_t key : top.keys()) {
      ids.push_back(common::TopK::unpack(key).id);
    }
    return ids;
  };
  for (auto _ : state) {
    for (std::size_t q = 0; q < f.queries.n; ++q) {
      const float* query = f.queries.row(q);
      auto ids = blocked ? idx.filter_clusters(query, nprobe)
                         : row_major(query);
      benchmark::DoNotOptimize(ids.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.queries.n));
  state.SetLabel(blocked ? "block-major" : "row-major");
}
BENCHMARK(BM_FilterClusters)
    ->ArgNames({"nprobe", "blocked"})
    ->ArgsProduct({{16, 64}, {0, 1}});

}  // namespace

BENCHMARK_MAIN();
