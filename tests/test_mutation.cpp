// Streaming-mutability tests: the updatable IVF-PQ core and the incremental
// MRAM patch path.
//
//  * CPU parity: after interleaved insert/remove (+ compact), searching the
//    mutated index matches a fresh build-equivalent index rebuilt from the
//    surviving points over the same frozen quantizers — ids equal,
//    distances bit-equal;
//  * engine parity: the patched PIM engine reproduces a freshly built
//    engine bit for bit, both mid-stream (tombstones live in MRAM) and
//    after a full compaction;
//  * incrementality: a 1%-of-points update patches < 10% of the bytes a
//    full load_dpus() pushes;
//  * read-only equivalence: an updatable engine with no writes issued
//    serves bit-identically to a read-only one;
//  * MRAM region reuse: released list regions are recycled first-fit and
//    survive scratch rewinds;
//  * relocate()/ClusterStats on a mutated index: the replica layout reflects
//    post-insert list sizes.
//  * MRAM mirror invariant: the kernels' pre-scaled codebook equals every
//    DPU's MRAM codebook through patches, compaction, replica adjustment
//    and relocation.
//  * replica-image invariants: descriptors, replica maps, region bounds,
//    MRAM accounting and replica bytes hold after every transition of the
//    one replica writer, in all three stream formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cpu_ivfpq.hpp"
#include "common/rng.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/multihost.hpp"
#include "core/pipeline.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "ivf/ivf_index.hpp"
#include "pim/dpu.hpp"

namespace upanns {
namespace {

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::sift1b_like(6000, 42));
  ivf::IvfIndex index = build();
  data::QueryWorkload wl;
  ivf::ClusterStats stats;

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 24;
    opts.pq_m = 16;
    opts.coarse_iters = 5;
    opts.pq_iters = 4;
    return ivf::IvfIndex::build(base, opts);
  }

  Fixture() {
    data::WorkloadSpec spec;
    spec.n_queries = 32;
    spec.seed = 9;
    wl = data::generate_workload(base, spec);
    stats = ivf::collect_stats(index, ivf::filter_batch(index, wl.queries, 6));
  }

  core::UpAnnsOptions options() const {
    core::UpAnnsOptions o = core::UpAnnsOptions::upanns();
    o.n_dpus = 8;
    o.nprobe = 6;
    o.k = 10;
    return o;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// id -> vector store mirroring the live set (the rebuild substrate).
using VectorStore = std::map<std::uint32_t, std::vector<float>>;

VectorStore initial_store(const Fixture& f) {
  VectorStore store;
  for (std::size_t i = 0; i < f.base.n; ++i) {
    store[static_cast<std::uint32_t>(i)] = {f.base.row(i),
                                            f.base.row(i) + f.base.dim};
  }
  return store;
}

std::vector<float> perturbed_row(const Fixture& f, common::Rng& rng) {
  const float* row = f.base.row(rng.below(f.base.n));
  std::vector<float> v(row, row + f.base.dim);
  for (float& x : v) x += rng.uniform(-0.05f, 0.05f);
  return v;
}

/// Rebuild-equivalence oracle: an empty index over the same frozen
/// quantizers, filled with the mutated index's surviving points in
/// (cluster, slot) order. Final kmeans labels are nearest-centroid
/// assignments, so insert() places every survivor in the cluster it already
/// occupies and the rebuilt lists match a compacted original exactly.
ivf::IvfIndex rebuild_from_survivors(const ivf::IvfIndex& mutated,
                                     const VectorStore& store) {
  ivf::IvfIndex fresh = ivf::IvfIndex::empty_like(mutated);
  std::vector<std::uint32_t> ids;
  std::vector<float> flat;
  for (const ivf::InvertedList& list : mutated.lists()) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list.is_dead(i)) continue;
      ids.push_back(list.ids[i]);
      const std::vector<float>& v = store.at(list.ids[i]);
      flat.insert(flat.end(), v.begin(), v.end());
    }
  }
  fresh.insert(ids, flat);
  return fresh;
}

void expect_same_neighbors(
    const std::vector<std::vector<common::Neighbor>>& a,
    const std::vector<std::vector<common::Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id, b[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(std::memcmp(&a[q][i].dist, &b[q][i].dist, sizeof(float)), 0)
          << "query " << q << " rank " << i;
    }
  }
}

void expect_same_report(const core::SearchReport& a,
                        const core::SearchReport& b) {
  expect_same_neighbors(a.neighbors, b.neighbors);
  EXPECT_EQ(a.times.cluster_filter, b.times.cluster_filter);
  EXPECT_EQ(a.times.lut_build, b.times.lut_build);
  EXPECT_EQ(a.times.distance_calc, b.times.distance_calc);
  EXPECT_EQ(a.times.topk, b.times.topk);
  EXPECT_EQ(a.times.transfer, b.times.transfer);
  ASSERT_TRUE(a.pim.has_value());
  ASSERT_TRUE(b.pim.has_value());
  EXPECT_EQ(a.pim->total_instructions, b.pim->total_instructions);
  EXPECT_EQ(a.pim->total_dma_cycles, b.pim->total_dma_cycles);
  EXPECT_EQ(a.pim->scanned_records, b.pim->scanned_records);
}

// ---------------------------------------------------------------------------
// IvfIndex-level mutation + CPU parity oracle.

TEST(IvfMutation, InsertRemoveCompactBookkeeping) {
  auto& f = fixture();
  ivf::IvfIndex idx = f.index;
  const std::size_t n0 = idx.n_points();

  const std::uint32_t id = 1'000'000;
  const std::vector<float> v(f.base.row(0), f.base.row(0) + f.base.dim);
  idx.insert({&id, 1}, v);
  EXPECT_EQ(idx.n_points(), n0 + 1);
  EXPECT_TRUE(idx.contains(id));
  EXPECT_THROW(idx.insert({&id, 1}, v), std::invalid_argument);

  EXPECT_TRUE(idx.remove(id));
  EXPECT_FALSE(idx.remove(id));  // already dead
  EXPECT_FALSE(idx.contains(id));
  EXPECT_EQ(idx.n_points(), n0);

  EXPECT_TRUE(idx.remove(7));
  std::size_t tombstoned = 0;
  for (const auto& list : idx.lists()) tombstoned += list.n_tombstones;
  EXPECT_EQ(tombstoned, 2u);

  EXPECT_GT(idx.compact(), 0u);
  for (const auto& list : idx.lists()) {
    EXPECT_FALSE(list.has_tombstones());
  }
  EXPECT_EQ(idx.n_points(), n0 - 1);
  EXPECT_FALSE(idx.contains(7));
}

TEST(CpuParity, InterleavedMutationsMatchRebuildFromSurvivors) {
  auto& f = fixture();
  ivf::IvfIndex mut = f.index;
  VectorStore store = initial_store(f);
  common::Rng rng(404);

  std::uint32_t next_id = static_cast<std::uint32_t>(f.base.n);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint32_t> ids;
    std::vector<float> flat;
    for (int i = 0; i < 60; ++i) {
      const std::vector<float> v = perturbed_row(f, rng);
      ids.push_back(next_id);
      store[next_id] = v;
      flat.insert(flat.end(), v.begin(), v.end());
      ++next_id;
    }
    mut.insert(ids, flat);
    for (int i = 0; i < 45; ++i) {
      auto it = store.begin();
      std::advance(it, static_cast<long>(rng.below(store.size())));
      ASSERT_TRUE(mut.remove(it->first));
      store.erase(it);
    }
    if (round == 1) mut.compact(0.3);  // mid-stream partial compaction
  }
  EXPECT_EQ(mut.n_points(), store.size());

  const baselines::SearchParams params{6, 10};

  // Tombstones still in place: dead slots must be invisible to the scan.
  {
    const ivf::IvfIndex rebuilt = rebuild_from_survivors(mut, store);
    const auto a = baselines::CpuIvfpqSearcher(mut).search(f.wl.queries, params);
    const auto b =
        baselines::CpuIvfpqSearcher(rebuilt).search(f.wl.queries, params);
    expect_same_neighbors(a.neighbors, b.neighbors);
    // Dead slots cost a physical scan but produce no candidates.
    EXPECT_EQ(a.profile.total_candidates, b.profile.total_candidates);
  }

  // Fully compacted: the lists themselves must match the rebuild exactly.
  mut.compact();
  const ivf::IvfIndex rebuilt = rebuild_from_survivors(mut, store);
  ASSERT_EQ(mut.n_clusters(), rebuilt.n_clusters());
  for (std::size_t c = 0; c < mut.n_clusters(); ++c) {
    EXPECT_EQ(mut.list(c).ids, rebuilt.list(c).ids) << "cluster " << c;
    EXPECT_EQ(mut.list(c).codes, rebuilt.list(c).codes) << "cluster " << c;
  }
  const auto a = baselines::CpuIvfpqSearcher(mut).search(f.wl.queries, params);
  const auto b =
      baselines::CpuIvfpqSearcher(rebuilt).search(f.wl.queries, params);
  expect_same_neighbors(a.neighbors, b.neighbors);
}

// ---------------------------------------------------------------------------
// Engine-level parity: incremental patching vs fresh build.

TEST(EngineParity, PatchedImagesMatchFreshLoadMidStream) {
  // Direct-token mode: the append encoder emits exactly what a fresh build
  // emits, so mid-stream (tombstones in MRAM, grown lists, possibly
  // relocated regions) the patched engine must match a fresh engine built
  // over the same mutated index bit for bit — results *and* timing.
  auto& f = fixture();
  ivf::IvfIndex mut = f.index;
  core::UpAnnsOptions opts = f.options();
  opts.opt_cae = false;
  core::UpAnnsEngine engine(mut, f.stats, opts);
  ASSERT_TRUE(engine.updatable());

  common::Rng rng(77);
  std::uint32_t next_id = static_cast<std::uint32_t>(f.base.n);
  std::vector<std::uint32_t> ids;
  std::vector<float> flat;
  for (int i = 0; i < 120; ++i) {
    const std::vector<float> v = perturbed_row(f, rng);
    ids.push_back(next_id++);
    flat.insert(flat.end(), v.begin(), v.end());
  }
  engine.upsert(ids, flat);
  std::vector<std::uint32_t> dead;
  for (std::uint32_t id = 0; id < 90; ++id) dead.push_back(id * 7);
  EXPECT_EQ(engine.remove(dead), dead.size());

  ASSERT_TRUE(engine.needs_patch());
  const auto ps = engine.patch_dpus();
  EXPECT_GT(ps.bytes_written, 0u);
  EXPECT_GT(ps.lists_patched, 0u);
  EXPECT_FALSE(engine.needs_patch());

  core::UpAnnsEngine fresh(static_cast<const ivf::IvfIndex&>(mut), f.stats,
                           opts);
  expect_same_report(engine.search(f.wl.queries), fresh.search(f.wl.queries));
}

TEST(EngineParity, SearchAppliesPendingWritesLazily) {
  // Writes with no explicit patch: both search entry points must sync the
  // MRAM images first, serving exactly what a twin that called patch_dpus()
  // serves. Each of the first 8 queries is upserted as an exact-match
  // vector, so stale images would miss them.
  auto& f = fixture();
  ivf::IvfIndex lazy_index = f.index;
  ivf::IvfIndex twin_index = f.index;
  core::UpAnnsEngine lazy(lazy_index, f.stats, f.options());
  core::UpAnnsEngine twin(twin_index, f.stats, f.options());

  std::uint32_t next_id = static_cast<std::uint32_t>(f.base.n);
  const auto write = [&](std::size_t first_query) {
    std::vector<std::uint32_t> ids;
    std::vector<float> flat;
    for (std::size_t q = first_query; q < first_query + 8; ++q) {
      ids.push_back(next_id++);
      flat.insert(flat.end(), f.wl.queries.row(q),
                  f.wl.queries.row(q) + f.wl.queries.dim);
    }
    const std::uint32_t dead = static_cast<std::uint32_t>(first_query + 3);
    for (core::UpAnnsEngine* e : {&lazy, &twin}) {
      e->upsert(ids, flat);
      EXPECT_EQ(e->remove({&dead, 1}), 1u);
    }
    ASSERT_TRUE(lazy.needs_patch());
    twin.patch_dpus();
  };

  write(0);
  expect_same_report(lazy.search(f.wl.queries), twin.search(f.wl.queries));
  EXPECT_FALSE(lazy.needs_patch());

  write(8);
  const auto probes = ivf::filter_batch(lazy_index, f.wl.queries, 6);
  expect_same_report(lazy.search_with_probes(f.wl.queries, probes),
                     twin.search_with_probes(f.wl.queries, probes));
  EXPECT_FALSE(lazy.needs_patch());
}

TEST(EngineParity, CompactedEngineMatchesRebuiltIndexBitForBit) {
  auto& f = fixture();
  ivf::IvfIndex mut = f.index;
  VectorStore store = initial_store(f);
  core::UpAnnsEngine engine(mut, f.stats, f.options());

  common::Rng rng(505);
  std::uint32_t next_id = static_cast<std::uint32_t>(f.base.n);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::uint32_t> ids;
    std::vector<float> flat;
    for (int i = 0; i < 50; ++i) {
      const std::vector<float> v = perturbed_row(f, rng);
      ids.push_back(next_id);
      store[next_id] = v;
      flat.insert(flat.end(), v.begin(), v.end());
      ++next_id;
    }
    engine.upsert(ids, flat);
    std::vector<std::uint32_t> dead;
    for (int i = 0; i < 40; ++i) {
      auto it = store.begin();
      std::advance(it, static_cast<long>(rng.below(store.size())));
      dead.push_back(it->first);
      store.erase(it);
    }
    EXPECT_EQ(engine.remove(dead), dead.size());
    engine.patch_dpus();
  }

  // Tombstone one point in every cluster so compact() rewrites them all —
  // every list re-encodes from its compacted content, exactly what a fresh
  // build over the rebuilt index computes.
  for (std::size_t c = 0; c < mut.n_clusters(); ++c) {
    for (std::size_t i = 0; i < mut.list(c).size(); ++i) {
      if (!mut.list(c).is_dead(i)) {
        const std::uint32_t id = mut.list(c).ids[i];
        ASSERT_EQ(engine.remove({&id, 1}), 1u);
        store.erase(id);
        break;
      }
    }
  }
  EXPECT_EQ(engine.compact(0.0), mut.n_clusters());
  engine.patch_dpus();

  const ivf::IvfIndex rebuilt = rebuild_from_survivors(mut, store);
  EXPECT_EQ(rebuilt.n_points(), mut.n_points());
  core::UpAnnsEngine fresh(rebuilt, f.stats, f.options());
  expect_same_report(engine.search(f.wl.queries), fresh.search(f.wl.queries));
}

TEST(EngineParity, ReadOnlyServingUnchangedByUpdatability) {
  auto& f = fixture();
  ivf::IvfIndex copy = f.index;
  // A const index selects the read-only engine; a mutable one the updatable
  // engine. With no writes issued they must serve identically.
  core::UpAnnsEngine readonly(std::as_const(f.index), f.stats, f.options());
  core::UpAnnsEngine updatable(copy, f.stats, f.options());
  ASSERT_FALSE(readonly.updatable());
  ASSERT_TRUE(updatable.updatable());
  EXPECT_FALSE(updatable.needs_patch());

  // A patch with nothing dirty is an all-zero no-op.
  const auto ps = updatable.patch_dpus();
  EXPECT_EQ(ps.bytes_written, 0u);
  EXPECT_EQ(ps.lists_patched, 0u);
  EXPECT_EQ(ps.seconds, 0.0);

  expect_same_report(readonly.search(f.wl.queries),
                     updatable.search(f.wl.queries));
}

TEST(EngineParity, MutationsOnReadOnlyEngineThrow) {
  auto& f = fixture();
  core::UpAnnsEngine engine(std::as_const(f.index), f.stats, f.options());
  const std::uint32_t id = 99;
  const std::vector<float> v(f.base.dim, 0.f);
  EXPECT_THROW(engine.upsert({&id, 1}, v), std::logic_error);
  EXPECT_THROW(engine.remove({&id, 1}), std::logic_error);
  EXPECT_THROW(engine.compact(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Incrementality: the whole point of patch_dpus.

TEST(Incrementality, OnePercentUpdatePatchesUnderTenPercentOfImage) {
  auto& f = fixture();
  ivf::IvfIndex mut = f.index;
  core::UpAnnsEngine engine(mut, f.stats, f.options());
  ASSERT_GT(engine.load_image_bytes(), 0u);

  common::Rng rng(31);
  const std::size_t n_updates = f.base.n / 100;  // 1% of the base points
  std::vector<std::uint32_t> ids;
  std::vector<float> flat;
  std::uint32_t next_id = static_cast<std::uint32_t>(f.base.n);
  for (std::size_t i = 0; i < n_updates; ++i) {
    const std::vector<float> v = perturbed_row(f, rng);
    ids.push_back(next_id++);
    flat.insert(flat.end(), v.begin(), v.end());
  }
  engine.upsert(ids, flat);

  const auto ps = engine.patch_dpus();
  EXPECT_GT(ps.bytes_written, 0u);
  EXPECT_LT(ps.bytes_written, engine.load_image_bytes() / 10)
      << "patch must stay incremental: full image is "
      << engine.load_image_bytes() << " bytes";
  EXPECT_GT(ps.seconds, 0.0);
  EXPECT_EQ(engine.patch_bytes_total(), ps.bytes_written);

  // Nothing left to sync.
  const auto again = engine.patch_dpus();
  EXPECT_EQ(again.bytes_written, 0u);
  EXPECT_EQ(engine.patch_bytes_total(), ps.bytes_written);
}

// ---------------------------------------------------------------------------
// MRAM region reuse (pim::Dpu free list).

TEST(MramReuse, ReleasedRegionsAreRecycledFirstFit) {
  pim::Dpu dpu(0);
  const std::size_t a = dpu.mram_alloc(1024, "a");
  const std::size_t b = dpu.mram_alloc(512, "b");
  const std::size_t top = dpu.mram_mark();
  (void)b;

  dpu.mram_release(a, 1024);
  EXPECT_EQ(dpu.mram_released_bytes(), 1024u);

  // First fit splits the region; the remainder stays on the free list.
  EXPECT_EQ(dpu.mram_alloc_reuse(512, "c"), a);
  EXPECT_EQ(dpu.mram_released_bytes(), 512u);
  EXPECT_EQ(dpu.mram_alloc_reuse(512, "d"), a + 512);
  EXPECT_EQ(dpu.mram_released_bytes(), 0u);

  // Free list empty: falls through to the bump allocator.
  EXPECT_EQ(dpu.mram_alloc_reuse(64, "e"), top);
}

TEST(MramReuse, AdjacentReleasesCoalesce) {
  pim::Dpu dpu(0);
  const std::size_t a = dpu.mram_alloc(256, "a");
  const std::size_t b = dpu.mram_alloc(256, "b");
  const std::size_t c = dpu.mram_alloc(256, "c");
  (void)c;

  dpu.mram_release(a, 256);
  dpu.mram_release(b, 256);  // coalesces with a
  EXPECT_EQ(dpu.mram_released_bytes(), 512u);
  EXPECT_EQ(dpu.mram_alloc_reuse(512, "big"), a);
  EXPECT_EQ(dpu.mram_released_bytes(), 0u);
}

TEST(MramReuse, RewindDropsRegionsPastTheMark) {
  pim::Dpu dpu(0);
  const std::size_t a = dpu.mram_alloc(256, "static");
  const std::size_t mark = dpu.mram_mark();
  const std::size_t s = dpu.mram_alloc(512, "scratch");

  dpu.mram_release(a, 256);   // below the mark: survives
  dpu.mram_release(s, 512);   // at/past the mark: dropped by rewind
  dpu.mram_rewind(mark);
  EXPECT_EQ(dpu.mram_released_bytes(), 256u);
  EXPECT_EQ(dpu.mram_alloc_reuse(256, "again"), a);
}

TEST(MramReuse, GrowthPastSlackRelocatesAndRecyclesRegions) {
  // Insert a flood of near-centroid points so one cluster outgrows its 25%
  // slack: the patch must relocate that region (regions_moved > 0) and the
  // relocated engine must still match a fresh build over the mutated index.
  auto& f = fixture();
  ivf::IvfIndex mut = f.index;
  core::UpAnnsOptions opts = f.options();
  opts.opt_cae = false;  // append path == fresh path, bit for bit
  core::UpAnnsEngine engine(mut, f.stats, opts);

  // Target the biggest cluster's centroid so every insert lands on it.
  std::size_t target = 0;
  for (std::size_t c = 0; c < mut.n_clusters(); ++c) {
    if (mut.list(c).size() > mut.list(target).size()) target = c;
  }
  const std::size_t grow =
      mut.list(target).size() / 2 + 16;  // well past 25% slack
  common::Rng rng(91);
  std::vector<std::uint32_t> ids;
  std::vector<float> flat;
  std::uint32_t next_id = static_cast<std::uint32_t>(f.base.n);
  for (std::size_t i = 0; i < grow; ++i) {
    std::vector<float> v(mut.centroid(target), mut.centroid(target) + mut.dim());
    for (float& x : v) x += rng.uniform(-1e-3f, 1e-3f);
    ids.push_back(next_id++);
    flat.insert(flat.end(), v.begin(), v.end());
  }
  engine.upsert(ids, flat);
  ASSERT_EQ(mut.list(target).size(),
            f.index.list(target).size() + grow);  // all landed on target

  const auto ps = engine.patch_dpus();
  EXPECT_GT(ps.regions_moved, 0u);

  core::UpAnnsEngine fresh(static_cast<const ivf::IvfIndex&>(mut), f.stats,
                           opts);
  expect_same_report(engine.search(f.wl.queries), fresh.search(f.wl.queries));
}

// ---------------------------------------------------------------------------
// relocate() + ClusterStats over a mutated index.

TEST(RelocateAfterMutation, ReplicaLayoutReflectsPostInsertSizes) {
  auto& f = fixture();
  ivf::IvfIndex mut = f.index;
  core::UpAnnsOptions opts = f.options();
  opts.opt_cae = false;
  core::UpAnnsEngine engine(mut, f.stats, opts);

  common::Rng rng(123);
  std::vector<std::uint32_t> ids;
  std::vector<float> flat;
  std::uint32_t next_id = static_cast<std::uint32_t>(f.base.n);
  for (int i = 0; i < 300; ++i) {
    const std::vector<float> v = perturbed_row(f, rng);
    ids.push_back(next_id++);
    flat.insert(flat.end(), v.begin(), v.end());
  }
  engine.upsert(ids, flat);
  engine.patch_dpus();

  // Fresh stats over the mutated index see the post-insert physical sizes.
  const auto probes = ivf::filter_batch(mut, f.wl.queries, 6);
  const ivf::ClusterStats stats = ivf::collect_stats(mut, probes);
  ASSERT_EQ(stats.n_clusters(), mut.n_clusters());
  for (std::size_t c = 0; c < mut.n_clusters(); ++c) {
    EXPECT_EQ(stats.sizes[c], mut.list(c).size()) << "cluster " << c;
  }

  engine.relocate(stats);

  // The rebuilt replica layout accounts every copy at its post-insert size.
  const core::Placement& p = engine.placement();
  std::size_t placed = 0;
  for (std::size_t d = 0; d < p.dpu_vectors.size(); ++d) {
    placed += p.dpu_vectors[d];
  }
  std::size_t expected = 0;
  for (std::size_t c = 0; c < mut.n_clusters(); ++c) {
    ASSERT_GE(p.cluster_dpus[c].size(), 1u) << "cluster " << c;
    expected += p.cluster_dpus[c].size() * mut.list(c).size();
  }
  EXPECT_EQ(placed, expected);

  // Relocation over a mutated index serves like a fresh engine given the
  // same stats.
  core::UpAnnsEngine fresh(static_cast<const ivf::IvfIndex&>(mut), stats,
                           opts);
  expect_same_report(engine.search(f.wl.queries), fresh.search(f.wl.queries));
}

// ---------------------------------------------------------------------------
// The kernels' host mirror of the codebook tracks every DPU's MRAM image.

/// Every DPU's pre-scaled codebook table equals scale * float(int8) of the
/// codebook and scale bytes read back from that DPU's MRAM, bit for bit.
void expect_prescaled_matches_mram(core::UpAnnsEngine& engine) {
  core::QueryPipeline pl(engine);
  const std::size_t m = engine.index().pq_m();
  const std::size_t dsub = engine.index().pq().dsub();
  for (std::size_t d = 0; d < engine.options().n_dpus; ++d) {
    const core::DpuStaticLayout& layout = pl.per_dpu(d).layout;
    const pim::Dpu& dpu = engine.system().dpu(d);
    std::vector<std::int8_t> cb(m * 256 * dsub);
    std::vector<float> scales(m);
    dpu.host_read(layout.codebook_off, cb.data(), cb.size());
    dpu.host_read(layout.cb_scale_off, scales.data(), m * sizeof(float));
    ASSERT_EQ(layout.cb_prescaled.size(), m * dsub * 256) << "dpu " << d;
    for (std::size_t s = 0; s < m; ++s) {
      for (std::size_t c = 0; c < 256; ++c) {
        for (std::size_t j = 0; j < dsub; ++j) {
          const float want =
              scales[s] * static_cast<float>(cb[(s * 256 + c) * dsub + j]);
          const float got = layout.cb_prescaled[(s * dsub + j) * 256 + c];
          ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
              << "dpu " << d << " s=" << s << " c=" << c << " d=" << j;
        }
      }
    }
  }
}

TEST(MramInvariants, PrescaledCodebookMatchesEveryDpuImage) {
  auto& f = fixture();
  ivf::IvfIndex mut = f.index;
  core::UpAnnsEngine engine(mut, f.stats, f.options());
  expect_prescaled_matches_mram(engine);

  // List patches (some relocating past their slack), compaction, replica
  // adjustment and a full relocation all rewrite MRAM around the codebook.
  common::Rng rng(211);
  std::vector<std::uint32_t> ids;
  std::vector<float> flat;
  std::uint32_t next_id = static_cast<std::uint32_t>(f.base.n);
  for (int i = 0; i < 400; ++i) {
    const std::vector<float> v = perturbed_row(f, rng);
    ids.push_back(next_id++);
    flat.insert(flat.end(), v.begin(), v.end());
  }
  engine.upsert(ids, flat);
  std::vector<std::uint32_t> dead;
  for (std::uint32_t id = 0; id < 600; id += 3) dead.push_back(id);
  EXPECT_EQ(engine.remove(dead), dead.size());
  engine.patch_dpus();
  expect_prescaled_matches_mram(engine);

  EXPECT_GT(engine.compact(0.0), 0u);
  engine.patch_dpus();
  expect_prescaled_matches_mram(engine);

  const auto added =
      engine.apply_copy_adjustments({{0, +1}, {1, +1}}, f.stats.frequencies);
  EXPECT_EQ(added.replicas_added, 2u);
  expect_prescaled_matches_mram(engine);

  engine.relocate(
      ivf::collect_stats(mut, ivf::filter_batch(mut, f.wl.queries, 6)));
  expect_prescaled_matches_mram(engine);
}

// ---------------------------------------------------------------------------
// Replica MRAM images stay consistent through every writer transition.

/// One replica's MRAM image, read back from its DPU.
struct ReplicaImage {
  std::uint32_t n_records = 0;
  std::uint32_t n_tombstones = 0;
  std::vector<std::uint8_t> ids, stream, chunk_index, combos, centroid;
  bool operator==(const ReplicaImage&) const = default;
};

std::vector<std::uint8_t> read_region(const pim::Dpu& dpu, std::size_t off,
                                      std::size_t bytes) {
  std::vector<std::uint8_t> out(bytes);
  if (bytes > 0) dpu.host_read(off, out.data(), bytes);
  return out;
}

ReplicaImage read_replica(core::UpAnnsEngine& engine, std::size_t d,
                          const core::DpuClusterData& cd) {
  const pim::Dpu& dpu = engine.system().dpu(d);
  const std::size_t elem =
      engine.options().naive_raw_codes ? 1 : sizeof(std::uint16_t);
  return {cd.n_records,
          cd.n_tombstones,
          read_region(dpu, cd.ids_off, cd.n_records * sizeof(std::uint32_t)),
          read_region(dpu, cd.stream_off, cd.stream_len * elem),
          read_region(dpu, cd.chunk_index_off,
                      cd.n_chunks * sizeof(std::uint32_t)),
          read_region(dpu, cd.combos_off, cd.n_combos * 4u),
          read_region(dpu, cd.centroid_off,
                      engine.index().dim() * sizeof(float))};
}

/// The replica-image invariants of every DPU: descriptors match their
/// lists; cluster_slot agrees with placement(); every region fits its
/// reservation; the regions (codebook included) never overlap and end below
/// the static mark; live plus released bytes equal the static mark, so
/// nothing leaks; and all replicas of a cluster hold identical bytes. With
/// `against_fresh`, those bytes also equal what a fresh engine over the same
/// index loads.
void expect_replica_invariants(core::UpAnnsEngine& engine,
                               bool against_fresh) {
  const ivf::IvfIndex& index = engine.index();
  const std::size_t centroid_bytes = index.dim() * sizeof(float);
  const std::size_t elem =
      engine.options().naive_raw_codes ? 1 : sizeof(std::uint16_t);
  const auto align8 = [](std::size_t b) { return (b + 7) / 8 * 8; };
  core::QueryPipeline pl(engine);
  std::map<std::uint32_t, ReplicaImage> images;  // cluster -> replica bytes
  for (std::size_t d = 0; d < engine.options().n_dpus; ++d) {
    SCOPED_TRACE("dpu " + std::to_string(d));
    const core::UpAnnsEngine::PerDpu& pd = pl.per_dpu(d);
    const core::DpuStaticLayout& layout = pd.layout;

    ASSERT_EQ(pd.cluster_slot.size(), index.n_clusters());
    std::vector<std::uint32_t> resident;
    for (std::uint32_t c = 0; c < index.n_clusters(); ++c) {
      const std::int32_t slot = pd.cluster_slot[c];
      if (slot < 0) continue;
      ASSERT_LT(static_cast<std::size_t>(slot), layout.clusters.size());
      EXPECT_EQ(layout.clusters[static_cast<std::size_t>(slot)].cluster_id,
                c);
      resident.push_back(c);
    }
    EXPECT_EQ(resident.size(), layout.clusters.size());
    std::vector<std::uint32_t> placed = engine.placement().dpu_clusters[d];
    std::sort(placed.begin(), placed.end());
    EXPECT_EQ(resident, placed);

    // (offset, bytes) of every region allocated below the static mark.
    std::vector<std::pair<std::size_t, std::size_t>> regions = {
        {layout.codebook_off, layout.m * 256 * layout.dsub},
        {layout.cb_scale_off, layout.m * sizeof(float)}};
    for (const core::DpuClusterData& cd : layout.clusters) {
      SCOPED_TRACE("cluster " + std::to_string(cd.cluster_id));
      const ivf::InvertedList& list = index.list(cd.cluster_id);
      EXPECT_EQ(cd.n_records, list.size());
      EXPECT_EQ(cd.n_tombstones, list.n_tombstones);
      EXPECT_LE(cd.n_records * sizeof(std::uint32_t), cd.ids_cap);
      EXPECT_LE(cd.stream_len * elem, cd.stream_cap);
      EXPECT_LE(cd.n_chunks * sizeof(std::uint32_t), cd.chunk_cap);
      EXPECT_LE(cd.n_combos * 4u, cd.combos_cap);
      regions.insert(regions.end(), {{cd.ids_off, cd.ids_cap},
                                     {cd.stream_off, cd.stream_cap},
                                     {cd.chunk_index_off, cd.chunk_cap},
                                     {cd.combos_off, cd.combos_cap},
                                     {cd.centroid_off, centroid_bytes}});
      const ReplicaImage image = read_replica(engine, d, cd);
      const auto [it, first] = images.emplace(cd.cluster_id, image);
      if (!first) {
        EXPECT_TRUE(image == it->second) << "replicas differ";
      }
    }

    std::sort(regions.begin(), regions.end());
    std::size_t live = 0;
    std::size_t end = 0;
    for (const auto& [off, bytes] : regions) {
      if (bytes == 0) continue;
      EXPECT_GE(off, end) << "regions overlap";
      end = off + align8(bytes);
      live += align8(bytes);
    }
    EXPECT_LE(end, pd.static_mark);
    EXPECT_EQ(live + engine.system().dpu(d).mram_released_bytes(),
              pd.static_mark)
        << "MRAM leaked";
  }
  if (!against_fresh) return;

  core::UpAnnsEngine fresh(index, fixture().stats, engine.options());
  core::QueryPipeline fresh_pl(fresh);
  std::set<std::uint32_t> compared;
  for (std::size_t d = 0; d < fresh.options().n_dpus; ++d) {
    for (const core::DpuClusterData& cd : fresh_pl.per_dpu(d).layout.clusters) {
      const auto it = images.find(cd.cluster_id);
      if (it == images.end()) continue;
      EXPECT_TRUE(read_replica(fresh, d, cd) == it->second)
          << "cluster " << cd.cluster_id << " differs from a fresh load";
      compared.insert(cd.cluster_id);
    }
  }
  EXPECT_EQ(compared.size(), images.size());
}

TEST(MramInvariants, ReplicaImagesHoldThroughEveryWriterTransition) {
  // Load, a patch that outgrows a slack reservation, compaction, a copy add,
  // a copy retire, a patch over the reused regions, and a relocation — in
  // all three stream formats. CAE appends direct tokens where a fresh load
  // would re-mine combos, so only the other two must match a fresh engine.
  auto& f = fixture();
  core::UpAnnsOptions direct = f.options();
  direct.opt_cae = false;
  core::UpAnnsOptions raw = core::UpAnnsOptions::pim_naive();
  raw.n_dpus = direct.n_dpus;
  raw.nprobe = direct.nprobe;
  raw.k = direct.k;
  struct Mode {
    const char* name;
    core::UpAnnsOptions options;
    bool exact;
  };
  for (const Mode& mode : {Mode{"cae", f.options(), false},
                           Mode{"direct", direct, true},
                           Mode{"raw", raw, true}}) {
    SCOPED_TRACE(mode.name);
    ivf::IvfIndex mut = f.index;
    core::UpAnnsEngine engine(mut, f.stats, mode.options);
    const auto check = [&](const char* step) {
      SCOPED_TRACE(step);
      expect_replica_invariants(engine, mode.exact);
    };
    check("load");
    engine.search(f.wl.queries);  // leaves scratch past the static marks

    // Upsert `n` points next to cluster `c`'s centroid, so all land on it.
    common::Rng rng(307);
    std::uint32_t next_id = static_cast<std::uint32_t>(f.base.n);
    const auto grow = [&](std::uint32_t c, std::size_t n) {
      std::vector<std::uint32_t> ids;
      std::vector<float> flat;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < mut.dim(); ++j) {
          flat.push_back(mut.centroid(c)[j] + rng.uniform(-1e-3f, 1e-3f));
        }
        ids.push_back(next_id++);
      }
      engine.upsert(ids, flat);
    };

    std::uint32_t biggest = 0;
    for (std::uint32_t c = 0; c < mut.n_clusters(); ++c) {
      if (mut.list(c).size() > mut.list(biggest).size()) biggest = c;
    }
    grow(biggest, mut.list(biggest).size() / 2 + 16);
    std::vector<std::uint32_t> dead;
    for (std::uint32_t id = 0; id < 600; id += 5) dead.push_back(id);
    EXPECT_EQ(engine.remove(dead), dead.size());
    EXPECT_GT(engine.patch_dpus().regions_moved, 0u);
    check("patch past slack");

    EXPECT_GT(engine.compact(0.0), 0u);
    engine.patch_dpus();
    check("compact");

    EXPECT_EQ(engine.apply_copy_adjustments({{0, +1}, {1, +1}},
                                            f.stats.frequencies)
                  .replicas_added,
              2u);
    check("copy add");

    EXPECT_EQ(
        engine.apply_copy_adjustments({{0, -1}}, f.stats.frequencies)
            .replicas_retired,
        1u);
    check("copy retire");

    grow(0, 24);
    const std::vector<std::uint32_t> more_dead = {601, 606};
    EXPECT_EQ(engine.remove(more_dead), more_dead.size());
    engine.patch_dpus();
    check("write after adjust");

    engine.relocate(
        ivf::collect_stats(mut, ivf::filter_batch(mut, f.wl.queries, 6)));
    check("relocate");
  }
}

// ---------------------------------------------------------------------------
// Multi-host streaming updates.

TEST(MultiHostUpdates, PatchedHostsMatchFreshClusterMidStream) {
  // Mutations route through the cluster's shared index; every host patches
  // only its own shard. Mid-stream (tombstones still live in MRAM), the
  // patched cluster must serve bit-identically to a fresh cluster built over
  // the mutated index.
  auto& f = fixture();
  ivf::IvfIndex mut = f.index;
  core::MultiHostOptions mh;
  mh.n_hosts = 3;
  mh.per_host = f.options();
  mh.per_host.opt_cae = false;  // append path == fresh path, bit for bit
  core::MultiHostUpAnns cluster(mut, f.stats, mh);
  ASSERT_TRUE(cluster.updatable());
  EXPECT_FALSE(cluster.needs_patch());

  common::Rng rng(77);
  std::vector<std::uint32_t> ids;
  std::vector<float> flat;
  std::uint32_t next_id = static_cast<std::uint32_t>(f.base.n);
  for (int i = 0; i < 90; ++i) {
    const std::vector<float> v = perturbed_row(f, rng);
    ids.push_back(next_id++);
    flat.insert(flat.end(), v.begin(), v.end());
  }
  cluster.upsert(ids, flat);
  std::vector<std::uint32_t> dead;
  for (std::uint32_t id = 0; id < 60; ++id) dead.push_back(id * 11);
  EXPECT_EQ(cluster.remove(dead), dead.size());

  ASSERT_TRUE(cluster.needs_patch());
  const auto ps = cluster.patch_hosts();
  EXPECT_GT(ps.bytes_written, 0u);
  EXPECT_GT(ps.lists_patched, 0u);
  EXPECT_FALSE(cluster.needs_patch());

  core::MultiHostUpAnns fresh(static_cast<const ivf::IvfIndex&>(mut), f.stats,
                              mh);
  const auto a = cluster.search(f.wl.queries);
  const auto b = fresh.search(f.wl.queries);
  expect_same_neighbors(a.neighbors, b.neighbors);
  EXPECT_EQ(a.slowest_host_seconds, b.slowest_host_seconds);
  EXPECT_EQ(a.seconds, b.seconds);
}

}  // namespace
}  // namespace upanns
