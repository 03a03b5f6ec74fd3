// Oracle tests for the DPU query kernel: an independent host-side
// re-implementation of the quantized pipeline (int8 codebook -> float LUT ->
// u16 LUT -> integer ADC) must agree with what the kernel writes to MRAM.
#include "core/dpu_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "obs/metrics.hpp"

namespace upanns::core {
namespace {

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::deep1b_like(6000, 61));
  ivf::IvfIndex index = build();
  data::QueryWorkload wl;
  ivf::ClusterStats stats;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 24;
    opts.pq_m = 12;
    opts.coarse_iters = 5;
    opts.pq_iters = 4;
    return ivf::IvfIndex::build(base, opts);
  }

  Fixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 8;
    spec.seed = 2;
    wl = data::generate_workload(base, spec);
    stats = ivf::collect_stats(index,
                               ivf::filter_batch(index, wl.queries, 6));
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// Host-side oracle: quantized ADC top-k over the probed clusters, mirroring
// the engine's int8-codebook / u16-LUT pipeline.
std::vector<common::Neighbor> oracle_topk(const ivf::IvfIndex& index,
                                          const float* query,
                                          const std::vector<std::uint32_t>& probes,
                                          std::size_t k) {
  const auto& pq = index.pq();
  const std::size_t m = pq.m();
  const std::size_t dsub = pq.dsub();
  const std::size_t dim = index.dim();

  // Reproduce the engine's int8 codebook quantization.
  std::vector<float> scales(m);
  std::vector<std::int8_t> cbq(m * 256 * dsub);
  const auto cb = pq.codebooks();
  for (std::size_t s = 0; s < m; ++s) {
    float mx = 0;
    for (std::size_t i = 0; i < 256 * dsub; ++i) {
      mx = std::max(mx, std::abs(cb[s * 256 * dsub + i]));
    }
    scales[s] = mx > 0 ? mx / 127.f : 1.f;
    for (std::size_t i = 0; i < 256 * dsub; ++i) {
      cbq[s * 256 * dsub + i] = static_cast<std::int8_t>(
          std::lround(cb[s * 256 * dsub + i] / scales[s]));
    }
  }

  // Sort-and-truncate over every candidate: independent of the kernel's
  // TopK buffers.
  std::vector<common::Neighbor> all;
  std::vector<float> residual(dim), lut(m * 256);
  for (std::uint32_t c : probes) {
    const auto& list = index.list(c);
    if (list.size() == 0) continue;
    index.residual(query, c, residual.data());
    float mx = 0;
    for (std::size_t s = 0; s < m; ++s) {
      for (std::size_t e = 0; e < 256; ++e) {
        float acc = 0;
        for (std::size_t d = 0; d < dsub; ++d) {
          const float diff =
              residual[s * dsub + d] -
              scales[s] * static_cast<float>(cbq[(s * 256 + e) * dsub + d]);
          acc += diff * diff;
        }
        lut[s * 256 + e] = acc;
        mx = std::max(mx, acc);
      }
    }
    const float scale = mx > 0 ? mx / 65000.f : 1.f;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::uint8_t* code = list.code(i, m);
      std::uint32_t acc = 0;
      for (std::size_t s = 0; s < m; ++s) {
        acc += static_cast<std::uint16_t>(
            std::min(65535.f, std::round(lut[s * 256 + code[s]] / scale)));
      }
      all.push_back({static_cast<float>(acc) * scale, list.ids[i]});
    }
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(k, all.size()));
  return all;
}

UpAnnsOptions tiny_options(bool naive) {
  UpAnnsOptions o = naive ? UpAnnsOptions::pim_naive()
                          : UpAnnsOptions::upanns();
  o.n_dpus = 6;
  o.nprobe = 6;
  o.k = 8;
  return o;
}

class KernelOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(KernelOracleTest, KernelMatchesQuantizedOracle) {
  auto& f = fixture();
  const bool naive = GetParam();
  UpAnnsEngine engine(f.index, f.stats, tiny_options(naive));
  const auto probes = ivf::filter_batch(f.index, f.wl.queries, 6);
  const auto report = engine.search_with_probes(f.wl.queries, probes);

  for (std::size_t q = 0; q < f.wl.queries.n; ++q) {
    const auto expect =
        oracle_topk(f.index, f.wl.queries.row(q), probes[q], 8);
    ASSERT_EQ(report.neighbors[q].size(), expect.size()) << "query " << q;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_NEAR(report.neighbors[q][i].dist, expect[i].dist,
                  1e-3f * (1.f + expect[i].dist))
          << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, KernelOracleTest, ::testing::Bool());

TEST(Kernel, TaskletSweepMatchesFig13Law) {
  // Per-DPU cycles must shrink ~linearly up to 11 tasklets and flatten
  // beyond (distance stage, balanced work).
  auto& f = fixture();
  std::vector<double> dist_time;
  for (unsigned t : {1u, 2u, 4u, 8u, 11u, 16u, 24u}) {
    UpAnnsOptions o = tiny_options(false);
    o.n_tasklets = t;
    UpAnnsEngine engine(f.index, f.stats, o);
    dist_time.push_back(engine.search(f.wl.queries).times.distance_calc);
  }
  // Linear-ish regime.
  EXPECT_GT(dist_time[0] / dist_time[1], 1.6);  // 1 -> 2 tasklets
  EXPECT_GT(dist_time[1] / dist_time[2], 1.5);  // 2 -> 4
  EXPECT_GT(dist_time[0] / dist_time[4], 5.0);  // 1 -> 11
  // Saturation: no further meaningful speedup beyond 11. At this test's
  // tiny cluster sizes chunk granularity adds noise (a cluster is only a
  // handful of 16-record chunks), so the band is wide; the Fig 13 bench
  // demonstrates the clean plateau at realistic list lengths.
  EXPECT_GT(dist_time[5] / dist_time[4], 0.6);
  EXPECT_LT(dist_time[5] / dist_time[4], 1.8);
  EXPECT_GT(dist_time[6] / dist_time[4], 0.6);
  EXPECT_LT(dist_time[6] / dist_time[4], 2.4);
}

TEST(Kernel, WramOverflowDetectedForOversizedConfigs) {
  // k=1000 x 24 tasklets of heap space plus buffers cannot fit 64 KB WRAM:
  // the simulator must refuse, exactly like real hardware would.
  auto& f = fixture();
  UpAnnsOptions o = tiny_options(false);
  o.k = 4096;
  o.n_tasklets = 24;
  UpAnnsEngine engine(f.index, f.stats, o);
  EXPECT_THROW(engine.search(f.wl.queries), pim::WramOverflow);
}

TEST(Kernel, MergeStatsConsistent) {
  auto& f = fixture();
  UpAnnsEngine engine(f.index, f.stats, tiny_options(false));
  const auto r = engine.search(f.wl.queries);
  // Insertions are bounded by tasklets x k x merges; pruned + inserted
  // cannot exceed the total local-heap contents.
  EXPECT_GT(r.pim->merge_insertions, 0u);
  EXPECT_GT(r.pim->scanned_records, 0u);
}

// ---------------------------------------------------------------------------
// Exact charges at every tasklet count. Each row is one search of 48 queries
// (7000 SIFT-like points, 32 clusters, m 16, 10 DPUs, nprobe 6): its total
// instructions and DMA cycles, the three stage-cycle sums over DPUs, the
// merge counts and a digest of every neighbor. The configurations cover the
// tasklet counts where a per-tasklet share is uneven or empty: m < T (17,
// 24), m * 256 not a multiple of T, and combo tables shorter than T.

struct ChargeFixture {
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

  ChargeFixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 48;
    spec.seed = 11;
    wl = data::generate_workload(base, spec);
    stats = ivf::collect_stats(index, ivf::filter_batch(index, wl.queries, 6));
  }
};

ChargeFixture& charge_fixture() {
  static ChargeFixture f;
  return f;
}

struct ChargeRow {
  std::string config;
  std::uint64_t instructions, dma_cycles;
  std::uint64_t lut_cycles, distance_cycles, topk_cycles;
  std::uint64_t merge_insertions, merge_pruned;
  std::uint64_t neighbors_digest;

  bool operator==(const ChargeRow&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ChargeRow& r) {
  return os << "{\"" << r.config << "\", " << r.instructions << "u, "
            << r.dma_cycles << "u, " << r.lut_cycles << "u, "
            << r.distance_cycles << "u, " << r.topk_cycles << "u, "
            << r.merge_insertions << "u, " << r.merge_pruned << "u, 0x"
            << std::hex << r.neighbors_digest << std::dec << "u},";
}

// FNV-1a over every neighbor's id and distance bits, in report order.
std::uint64_t neighbors_digest(const SearchReport& r) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const auto& list : r.neighbors) {
    mix(static_cast<std::uint32_t>(list.size()));
    for (const common::Neighbor& nb : list) {
      std::uint32_t bits;
      std::memcpy(&bits, &nb.dist, sizeof(bits));
      mix(nb.id);
      mix(bits);
    }
  }
  return h;
}

ChargeRow charge_row(UpAnnsEngine& engine, const data::Dataset& queries,
                     std::string config) {
  obs::MetricsRegistry registry;
  engine.set_metrics(&registry);
  const SearchReport r = engine.search(queries);
  engine.set_metrics(nullptr);
  return {std::move(config),
          r.pim->total_instructions,
          r.pim->total_dma_cycles,
          registry.counter("kernel.cycles.lut_build").value(),
          registry.counter("kernel.cycles.distance").value(),
          registry.counter("kernel.cycles.topk").value(),
          r.pim->merge_insertions,
          r.pim->merge_pruned,
          neighbors_digest(r)};
}

// Recorded with the per-tasklet phase calls the kernel ran before it booked
// phases by barrier; any change to a charge, a stage split or a neighbor
// moves a row.
const std::vector<ChargeRow> kGoldenCharges = {
    {"raw/t1/k1", 45530106u, 8191842u, 395874432u,
     113169876u, 65484u, 204u, 0u, 0x3e02a0a6865604f0u},
    {"raw/t1/k10", 45697254u, 8199186u, 395874432u,
     114371208u, 710124u, 2040u, 0u, 0xea38336d5ebfdf77u},
    {"raw/t2/k1", 45538938u, 8223234u, 198698976u,
     57421063u, 89772u, 408u, 0u, 0x3e02a0a6865604f0u},
    {"raw/t2/k10", 45827274u, 8230578u, 198698976u,
     58469011u, 1016232u, 4080u, 0u, 0xea38336d5ebfdf77u},
    {"raw/t3/k1", 45547356u, 8254626u, 147791808u,
     38932881u, 111684u, 612u, 0u, 0x3e02a0a6865604f0u},
    {"raw/t3/k10", 45941478u, 8261970u, 147791808u,
     39893973u, 1286172u, 6120u, 0u, 0xea38336d5ebfdf77u},
    {"raw/t5/k1", 45562450u, 8317410u, 98180352u,
     24252585u, 153440u, 1019u, 0u, 0x3e02a0a6865604f0u},
    {"raw/t5/k10", 46142082u, 8324754u, 98180352u,
     25123587u, 1755975u, 10178u, 0u, 0xea38336d5ebfdf77u},
    {"raw/t11/k1", 45602480u, 8505762u, 49522464u,
     12401575u, 263403u, 2197u, 0u, 0x3e02a0a6865604f0u},
    {"raw/t11/k10", 46615678u, 8513106u, 49522464u,
     13136947u, 3104464u, 21915u, 0u, 0xea38336d5ebfdf77u},
    {"raw/t11/k10/read0", 46615678u, 8513106u, 49522464u,
     13136947u, 3104464u, 21915u, 0u, 0xea38336d5ebfdf77u},
    {"raw/t11/k10/read2", 46615678u, 13391980u, 49522464u,
     13668555u, 3104464u, 21915u, 0u, 0xea38336d5ebfdf77u},
    {"raw/t16/k1", 45628202u, 8662722u, 37855872u,
     12862510u, 343545u, 3013u, 0u, 0x3e02a0a6865604f0u},
    {"raw/t16/k10", 46918942u, 8670066u, 37855872u,
     13825006u, 4044108u, 30016u, 0u, 0xea38336d5ebfdf77u},
    {"raw/t17/k1", 45633100u, 8694114u, 39969216u,
     13240846u, 357875u, 3164u, 0u, 0x3e02a0a6865604f0u},
    {"raw/t17/k10", 46973762u, 8701458u, 39969216u,
     14209030u, 4194940u, 31526u, 0u, 0xea38336d5ebfdf77u},
    {"raw/t24/k1", 45663870u, 8913858u, 54778752u,
     14387322u, 463365u, 4218u, 0u, 0x3e02a0a6865604f0u},
    {"raw/t24/k10", 47316864u, 8921202u, 54778752u,
     15749994u, 5370270u, 42030u, 0u, 0xea38336d5ebfdf77u},
    {"direct/t1/k1", 43207814u, 9543012u, 395874432u,
     88981276u, 62730u, 246u, 0u, 0x3e02a0a6865604f0u},
    {"direct/t1/k10", 43395830u, 9551868u, 395874432u,
     90427072u, 693966u, 2460u, 0u, 0xea38336d5ebfdf77u},
    {"direct/t2/k1", 43216922u, 9597192u, 198698976u,
     45174517u, 75270u, 354u, 138u, 0x3e02a0a6865604f0u},
    {"direct/t2/k10", 43534570u, 9606048u, 198698976u,
     46431091u, 875554u, 3604u, 1316u, 0xea38336d5ebfdf77u},
    {"direct/t3/k1", 43225364u, 9650920u, 147791808u,
     30649607u, 85236u, 423u, 315u, 0x3e02a0a6865604f0u},
    {"direct/t3/k10", 43653710u, 9659776u, 147791808u,
     31795169u, 1008786u, 4434u, 2946u, 0xea38336d5ebfdf77u},
    {"direct/t5/k1", 43240610u, 9759360u, 98180352u,
     19115753u, 105168u, 561u, 669u, 0x3e02a0a6865604f0u},
    {"direct/t5/k10", 43855326u, 9768216u, 98180352u,
     20146739u, 1176998u, 5456u, 6844u, 0xea38336d5ebfdf77u},
    {"direct/t11/k1", 43279844u, 10083348u, 49522464u,
     9803753u, 144636u, 673u, 2015u, 0x3e02a0a6865604f0u},
    {"direct/t11/k10", 44302450u, 10092204u, 49522464u,
     10664195u, 1440304u, 6820u, 20045u, 0xea38336d5ebfdf77u},
    {"direct/t11/k10/read0", 44302450u, 10092204u, 49522464u,
     10664195u, 1440304u, 6820u, 20045u, 0xea38336d5ebfdf77u},
    {"direct/t11/k10/read2", 44302450u, 14971078u, 49522464u,
     11200807u, 1440304u, 6820u, 20045u, 0xea38336d5ebfdf77u},
    {"direct/t16/k1", 43305750u, 10355296u, 37855872u,
     10112990u, 172946u, 705u, 3062u, 0x3e02a0a6865604f0u},
    {"direct/t16/k10", 44578574u, 10364152u, 37855872u,
     11211326u, 1680335u, 7586u, 29751u, 0xea38336d5ebfdf77u},
    {"direct/t17/k1", 43310174u, 10410592u, 39969216u,
     10399074u, 176496u, 694u, 3245u, 0x3e02a0a6865604f0u},
    {"direct/t17/k10", 44624436u, 10419448u, 39969216u,
     11490474u, 1704907u, 7618u, 31439u, 0xea38336d5ebfdf77u},
    {"direct/t24/k1", 43334242u, 10793056u, 54778752u,
     11279058u, 207154u, 752u, 4250u, 0x3e02a0a6865604f0u},
    {"direct/t24/k10", 44879722u, 10801912u, 54778752u,
     12742098u, 1953295u, 8247u, 41280u, 0xea38336d5ebfdf77u},
    {"cae/t1/k1", 41506622u, 8962784u, 401872152u,
     63708648u, 62730u, 246u, 0u, 0x3e02a0a6865604f0u},
    {"cae/t1/k10", 41694638u, 8971640u, 401872152u,
     65154444u, 693966u, 2460u, 0u, 0xea38336d5ebfdf77u},
    {"cae/t2/k1", 41515730u, 9039344u, 201720540u,
     32285447u, 75270u, 354u, 138u, 0x3e02a0a6865604f0u},
    {"cae/t2/k10", 41833378u, 9048200u, 201720540u,
     33541850u, 875554u, 3604u, 1316u, 0xea38336d5ebfdf77u},
    {"cae/t3/k1", 41524172u, 9115228u, 149833928u,
     21939271u, 85236u, 423u, 315u, 0x3e02a0a6865604f0u},
    {"cae/t3/k10", 41952518u, 9124084u, 149833928u,
     23080411u, 1008786u, 4434u, 2946u, 0xea38336d5ebfdf77u},
    {"cae/t5/k1", 41539418u, 9268492u, 99429464u,
     13868791u, 105168u, 561u, 669u, 0x3e02a0a6865604f0u},
    {"cae/t5/k10", 42154134u, 9277348u, 99429464u,
     14863639u, 1176998u, 5456u, 6844u, 0xea38336d5ebfdf77u},
    {"cae/t11/k1", 41578652u, 9725058u, 50126266u,
     7263675u, 144636u, 673u, 2015u, 0x3e02a0a6865604f0u},
    {"cae/t11/k10", 42601258u, 9733914u, 50126266u,
     8066055u, 1440304u, 6820u, 20045u, 0xea38336d5ebfdf77u},
    {"cae/t11/k10/read0", 42601258u, 9733914u, 50126266u,
     8066055u, 1440304u, 6820u, 20045u, 0xea38336d5ebfdf77u},
    {"cae/t11/k10/read2", 42601258u, 13059544u, 50126266u,
     8445098u, 1440304u, 6820u, 20045u, 0xea38336d5ebfdf77u},
    {"cae/t16/k1", 41604558u, 10106648u, 38455145u,
     7483770u, 172946u, 705u, 3062u, 0x3e02a0a6865604f0u},
    {"cae/t16/k10", 42877382u, 10115504u, 38455145u,
     8536834u, 1680335u, 7586u, 29751u, 0xea38336d5ebfdf77u},
    {"cae/t17/k1", 41608982u, 10170671u, 40593784u,
     7814568u, 176496u, 694u, 3245u, 0x3e02a0a6865604f0u},
    {"cae/t17/k10", 42923244u, 10179527u, 40593784u,
     8871552u, 1704907u, 7618u, 31439u, 0xea38336d5ebfdf77u},
    {"cae/t24/k1", 41633050u, 10728001u, 55467013u,
     8417550u, 207154u, 752u, 4250u, 0x3e02a0a6865604f0u},
    {"cae/t24/k10", 43178530u, 10736857u, 55467013u,
     9807262u, 1953295u, 8247u, 41280u, 0xea38336d5ebfdf77u},
    {"cae/t11/k10/tombstones", 42708814u, 9733914u, 50126266u,
     8203394u, 1440937u, 6824u, 20039u, 0xdf50e52d2480d708u},
};

TEST(Kernel, ExactChargesAtEveryTaskletCount) {
  auto& f = charge_fixture();
  const std::pair<const char*, UpAnnsOptions> modes[] = {
      {"raw", UpAnnsOptions::pim_naive()},
      {"direct", [] {
         UpAnnsOptions o = UpAnnsOptions::upanns();
         o.opt_cae = false;
         return o;
       }()},
      {"cae", UpAnnsOptions::upanns()}};
  std::vector<ChargeRow> rows;
  for (const auto& [name, base_opts] : modes) {
    for (unsigned t : {1u, 2u, 3u, 5u, 11u, 16u, 17u, 24u}) {
      UpAnnsOptions o = base_opts;
      o.n_dpus = 10;
      o.nprobe = 6;
      o.n_tasklets = t;
      UpAnnsEngine engine(f.index, f.stats, o);
      const std::string tag = std::string(name) + "/t" + std::to_string(t);
      for (std::size_t k : {1u, 10u}) {
        engine.set_k(k);
        rows.push_back(charge_row(engine, f.wl.queries,
                                  tag + "/k" + std::to_string(k)));
      }
      if (t == 11) {
        for (std::size_t v : {0u, 2u}) {
          engine.set_mram_read_vectors(v);
          rows.push_back(charge_row(engine, f.wl.queries,
                                    tag + "/k10/read" + std::to_string(v)));
        }
      }
    }
  }
  {
    // Tombstoned lists: every 9th base point removed and patched in place.
    ivf::IvfIndex mut = f.index;
    UpAnnsOptions o = UpAnnsOptions::upanns();
    o.n_dpus = 10;
    o.nprobe = 6;
    UpAnnsEngine engine(mut, f.stats, o);
    std::vector<std::uint32_t> dead;
    for (std::uint32_t id = 0; id < f.base.n; id += 9) dead.push_back(id);
    ASSERT_EQ(engine.remove(dead), dead.size());
    engine.patch_dpus();
    rows.push_back(charge_row(engine, f.wl.queries, "cae/t11/k10/tombstones"));
  }

  ASSERT_EQ(rows.size(), kGoldenCharges.size()) << [&] {
    std::ostringstream all;
    for (const ChargeRow& r : rows) all << "\n    " << r;
    return all.str();
  }();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], kGoldenCharges[i]);
  }
}

}  // namespace
}  // namespace upanns::core
