// Runtime half of UpAnnsEngine: the mutation surface (upsert / remove /
// compact, delegating to the mutable IvfIndex) and sync_dpu(), the one
// writer of replica MRAM images, with its two runtime callers (load_dpus()
// in engine_build.cpp is the third), which run it on every DPU through
// sync_replicas():
//
//  * patch_dpus(), the incremental delta-sync that replaces a full
//    load_dpus() between serving batches. Only lists whose generation
//    drifted since the last sync are touched, and within a list only the
//    byte ranges that actually changed are pushed — appends write the tail,
//    tombstones write a sentinel run.
//  * apply_copy_adjustments(), the minor-drift path of paper Sec 4.1.2. The
//    drift controller's replica-count deltas are re-placed by
//    core::adjust_replicas; new replica images load into reused MRAM
//    regions and retired replicas release theirs to the free list, so a
//    copy adjustment moves a small fraction of the full image where a
//    relocate() would reload everything. Replication changes placement,
//    never results: every (query, cluster) pair still scans exactly one
//    replica of the same byte-identical image.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "pim/transfer.hpp"

namespace upanns::core {

namespace {

/// Diff granularity for in-place patches. Coarse enough that a dirty run is
/// one host_write per contiguous edit, fine enough that a single tombstone
/// in a big list does not re-push the whole id array.
constexpr std::size_t kPatchGranule = 256;

/// Fractional slack reserved past each list region, so a list that grows
/// via insert() patches in place instead of relocating. Offsets are
/// timing-invisible (DMA is charged by bytes), so the slack never changes
/// results.
constexpr double kMramListSlack = 0.25;

/// Bytes reserved for a `bytes`-long region: the slack on top, 8-aligned.
std::size_t slack_bytes(std::size_t bytes) {
  const auto padded = static_cast<std::size_t>(
      std::ceil(static_cast<double>(bytes) * (1.0 + kMramListSlack)));
  return (padded + 7) / 8 * 8;
}

/// Write `data` over the DPU bytes at [off, off+size), pushing only the
/// granule runs that differ. Returns the bytes written.
std::uint64_t patch_region(pim::Dpu& dpu, std::size_t off,
                           const std::uint8_t* data, std::size_t size) {
  std::uint64_t written = 0;
  std::size_t pos = 0;
  while (pos < size) {
    const std::size_t len = std::min(kPatchGranule, size - pos);
    if (std::memcmp(dpu.mram_data(off + pos), data + pos, len) == 0) {
      pos += len;
      continue;
    }
    // Extend across consecutive dirty granules so one edit = one write.
    std::size_t end = pos + len;
    while (end < size) {
      const std::size_t next = std::min(kPatchGranule, size - end);
      if (std::memcmp(dpu.mram_data(off + end), data + end, next) == 0) break;
      end += next;
    }
    dpu.host_write(off + pos, data + pos, end - pos);
    written += end - pos;
    pos = end;
  }
  return written;
}

}  // namespace

void UpAnnsEngine::build_cluster_image(std::uint32_t c,
                                       ClusterImage& out) const {
  const ivf::InvertedList& list = index_.list(c);
  const CaeClusterEncoding& enc = encodings_[c];
  assert(enc.n_records == list.size());
  out.n_records = static_cast<std::uint32_t>(list.size());
  out.n_tombstones = list.n_tombstones;

  out.ids.assign(list.ids.begin(), list.ids.end());
  if (list.has_tombstones()) {
    for (std::size_t i = 0; i < out.ids.size(); ++i) {
      if (list.is_dead(i)) out.ids[i] = kTombstoneId;
    }
  }

  out.chunk_index.clear();
  out.combos.clear();
  if (mode_ == KernelMode::kNaiveRaw) {
    out.stream.assign(list.codes.begin(), list.codes.end());
    out.stream_elems = list.codes.size();
    return;
  }
  out.stream.resize(enc.tokens.size() * sizeof(std::uint16_t));
  if (!enc.tokens.empty()) {
    std::memcpy(out.stream.data(), enc.tokens.data(), out.stream.size());
  }
  out.stream_elems = enc.tokens.size();

  // Chunk index: element offset of every kChunkRecords-th record.
  std::size_t off = 0;
  for (std::size_t r = 0; r < enc.n_records; ++r) {
    if (r % kChunkRecords == 0) {
      out.chunk_index.push_back(static_cast<std::uint32_t>(off));
    }
    off += 1 + enc.tokens[off];
  }

  if (!enc.combos.empty()) {
    out.combos.resize(enc.combos.size() * 4);
    for (std::size_t i = 0; i < enc.combos.size(); ++i) {
      out.combos[4 * i + 0] = enc.combos[i].pos;
      out.combos[4 * i + 1] = enc.combos[i].c0;
      out.combos[4 * i + 2] = enc.combos[i].c1;
      out.combos[4 * i + 3] = enc.combos[i].c2;
    }
  }
}

UpAnnsEngine::ReplicaCounts UpAnnsEngine::sync_dpu(
    std::size_t d, std::span<const ReplicaOp> ops) {
  ReplicaCounts n;
  if (ops.empty()) return n;
  PerDpu& pd = per_dpu_[d];
  pim::Dpu& dpu = system_->dpu(d);
  // Per-batch scratch (queries/results) lives past the static mark; drop it
  // so released and fresh regions can take the space. The next batch
  // re-pushes its scratch against the updated mark.
  dpu.mram_rewind(pd.static_mark);
  const std::size_t centroid_bytes = index_.dim() * sizeof(float);

  // Bring one region to `size` bytes of `data`, updating `off`/`cap` in
  // place; true when it moved. An empty image keeps any reservation for
  // later growth.
  const auto sync_region = [&](std::size_t& off, std::size_t& cap,
                               const void* data, std::size_t size,
                               const char* tag) {
    if (size == 0) return false;
    const auto* src = static_cast<const std::uint8_t*>(data);
    if (size <= cap) {
      n.bytes += patch_region(dpu, off, src, size);
      return false;
    }
    dpu.mram_release(off, cap);
    cap = slack_bytes(size);
    off = dpu.mram_alloc_reuse(cap, tag);
    dpu.host_write(off, src, size);
    n.bytes += size;
    return true;
  };

  ClusterImage img;
  for (const ReplicaOp& op : ops) {
    if (op.kind == ReplicaOp::Kind::kRetire) {
      // Swap-remove keeps slots dense; the kernel resolves cluster_slot per
      // batch, so renumbering between batches is safe.
      assert(pd.cluster_slot[op.cluster] >= 0);
      const auto slot = static_cast<std::size_t>(pd.cluster_slot[op.cluster]);
      DpuClusterData& cd = pd.layout.clusters[slot];
      dpu.mram_release(cd.ids_off, cd.ids_cap);
      dpu.mram_release(cd.stream_off, cd.stream_cap);
      dpu.mram_release(cd.chunk_index_off, cd.chunk_cap);
      dpu.mram_release(cd.combos_off, cd.combos_cap);
      dpu.mram_release(cd.centroid_off, centroid_bytes);
      cd = pd.layout.clusters.back();
      pd.cluster_slot[cd.cluster_id] = static_cast<std::int32_t>(slot);
      pd.layout.clusters.pop_back();
      pd.cluster_slot[op.cluster] = -1;
      ++n.retired;
      continue;
    }

    const bool fresh = op.kind == ReplicaOp::Kind::kLoad;
    if (fresh) {
      assert(pd.cluster_slot[op.cluster] < 0);
      pd.cluster_slot[op.cluster] =
          static_cast<std::int32_t>(pd.layout.clusters.size());
      pd.layout.clusters.emplace_back().cluster_id = op.cluster;
    }
    DpuClusterData& cd = pd.layout.clusters[static_cast<std::size_t>(
        pd.cluster_slot[op.cluster])];
    build_cluster_image(op.cluster, img);
    // One statement per region: the allocation order is the layout.
    std::size_t moved = 0;
    moved += sync_region(cd.ids_off, cd.ids_cap, img.ids.data(),
                         img.ids.size() * sizeof(std::uint32_t), "ids");
    moved += sync_region(cd.stream_off, cd.stream_cap, img.stream.data(),
                         img.stream.size(),
                         mode_ == KernelMode::kNaiveRaw ? "codes" : "tokens");
    moved += sync_region(cd.chunk_index_off, cd.chunk_cap,
                         img.chunk_index.data(),
                         img.chunk_index.size() * sizeof(std::uint32_t),
                         "chunk-index");
    moved += sync_region(cd.combos_off, cd.combos_cap, img.combos.data(),
                         img.combos.size(), "combos");
    if (fresh) {
      // Centroids are frozen: written once per replica, never synced.
      cd.centroid_off = dpu.mram_alloc_reuse(centroid_bytes, "centroid");
      dpu.host_write(cd.centroid_off, index_.centroid(op.cluster),
                     centroid_bytes);
      n.bytes += centroid_bytes;
      ++n.loaded;
    } else {
      n.regions_moved += moved;
      ++n.synced;
    }

    // Length/tombstone table update — the host-side mirror of the
    // per-cluster descriptor block a real deployment would push.
    cd.n_records = img.n_records;
    cd.n_tombstones = img.n_tombstones;
    cd.stream_len = img.stream_elems;
    cd.n_chunks = static_cast<std::uint32_t>(img.chunk_index.size());
    cd.n_combos = static_cast<std::uint32_t>(img.combos.size() / 4);
  }
  pd.static_mark = dpu.mram_mark();
  return n;
}

UpAnnsEngine::ReplicaCounts UpAnnsEngine::sync_replicas(
    const std::vector<std::vector<ReplicaOp>>& ops,
    std::vector<std::size_t>& dpu_bytes) {
  std::vector<ReplicaCounts> per_dpu(options_.n_dpus);
  common::ThreadPool::global().parallel_for(
      0, options_.n_dpus,
      [&](std::size_t d) { per_dpu[d] = sync_dpu(d, ops[d]); }, 1);
  ReplicaCounts total;
  dpu_bytes.resize(options_.n_dpus);
  for (std::size_t d = 0; d < options_.n_dpus; ++d) {
    const ReplicaCounts& n = per_dpu[d];
    dpu_bytes[d] = n.bytes;
    total.bytes += n.bytes;
    total.loaded += n.loaded;
    total.synced += n.synced;
    total.retired += n.retired;
    total.regions_moved += n.regions_moved;
  }
  return total;
}

void UpAnnsEngine::upsert(std::span<const std::uint32_t> ids,
                          std::span<const float> vectors) {
  if (!mutable_index_) {
    throw std::logic_error("UpAnnsEngine::upsert: read-only engine");
  }
  // Upsert = tombstone any live previous version, then insert the new one.
  for (std::uint32_t id : ids) mutable_index_->remove(id);
  mutable_index_->insert(ids, vectors);
  if (metrics_) metrics_->counter("mutate.upserts").add(ids.size());
}

std::size_t UpAnnsEngine::remove(std::span<const std::uint32_t> ids) {
  if (!mutable_index_) {
    throw std::logic_error("UpAnnsEngine::remove: read-only engine");
  }
  std::size_t removed = 0;
  for (std::uint32_t id : ids) removed += mutable_index_->remove(id) ? 1 : 0;
  if (metrics_) metrics_->counter("mutate.removes").add(removed);
  return removed;
}

std::size_t UpAnnsEngine::compact(double min_tombstone_ratio) {
  if (!mutable_index_) {
    throw std::logic_error("UpAnnsEngine::compact: read-only engine");
  }
  const std::size_t n = mutable_index_->compact(min_tombstone_ratio);
  if (metrics_) metrics_->counter("mutate.compactions").add(n);
  return n;
}

bool UpAnnsEngine::needs_patch() const {
  return mutable_index_ != nullptr &&
         mutable_index_->mutation_epoch() != loaded_epoch_;
}

UpAnnsEngine::PatchStats UpAnnsEngine::patch_dpus() {
  PatchStats stats;
  if (!needs_patch()) return stats;

  // Re-sync every replica of each list whose generation drifted since the
  // last sync. The shared encodings are refreshed once for all replicas:
  // compactions force a re-encode, pure appends extend the stream.
  obs::Histogram* ratios =
      metrics_ ? &metrics_->histogram(
                     "mutate.tombstone_ratio",
                     {0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0})
               : nullptr;
  std::vector<std::vector<ReplicaOp>> ops(options_.n_dpus);
  for (std::uint32_t c = 0; c < index_.n_clusters(); ++c) {
    if (index_.list(c).generation == loaded_gen_[c]) continue;
    refresh_encoding(c);
    if (ratios) ratios->observe(index_.list(c).tombstone_ratio());
    for (std::uint32_t d : placement_.cluster_dpus[c]) {
      ops[d].push_back({ReplicaOp::Kind::kSync, c});
    }
  }

  std::vector<std::size_t> dpu_bytes;
  const ReplicaCounts synced = sync_replicas(ops, dpu_bytes);
  stats.bytes_written = synced.bytes;
  stats.lists_patched = synced.synced;
  stats.regions_moved = synced.regions_moved;
  // Charged like every other host->DPU push: non-uniform per-DPU sizes take
  // the serialized path (paper Sec 2.2) unless the deltas happen to match.
  const pim::TransferStats xfer = pim::TransferEngine::batch(dpu_bytes);
  stats.seconds = xfer.seconds;

  patch_bytes_total_ += stats.bytes_written;
  snapshot_loaded_state();

  if (metrics_) {
    metrics_->counter("mutate.patches").add(1);
    metrics_->counter("mutate.patch_bytes").add(stats.bytes_written);
    metrics_->counter("mutate.patched_lists").add(stats.lists_patched);
    metrics_->counter("mutate.regions_moved").add(stats.regions_moved);
    metrics_->histogram("mutate.patch.seconds").observe(stats.seconds);
    pim::TransferEngine::record(obs::MetricsSink(metrics_), "patch", xfer);
  }
  common::log_debug("mram-patch: ", stats.lists_patched, " lists, ",
                    stats.bytes_written, " bytes, ", stats.regions_moved,
                    " regions moved, ", stats.seconds, " s");
  return stats;
}

UpAnnsEngine::AdaptStats UpAnnsEngine::apply_copy_adjustments(
    const std::vector<CopyAdjustment>& adjustments,
    const std::vector<double>& frequencies) {
  AdaptStats stats;
  if (adjustments.empty()) return stats;

  const std::vector<CopyDelta> deltas =
      adjust_replicas(placement_, index_, adjustments, index_.list_sizes(),
                      frequencies, PlacementOptions{options_.n_dpus});
  if (deltas.empty()) return stats;

  // New replicas render from the shared encodings, so pending mutations for
  // the touched clusters must land there first. Their *other* replicas stay
  // stale until the next patch_dpus() (loaded_gen_ is untouched here), which
  // then finds the freshly loaded copy byte-identical and skips it.
  std::vector<std::vector<ReplicaOp>> ops(options_.n_dpus);
  for (const CopyDelta& d : deltas) {
    if (d.add && updatable()) refresh_encoding(d.cluster);
    ops[d.dpu].push_back(
        {d.add ? ReplicaOp::Kind::kLoad : ReplicaOp::Kind::kRetire,
         d.cluster});
  }

  std::vector<std::size_t> dpu_bytes;
  const ReplicaCounts applied = sync_replicas(ops, dpu_bytes);
  stats.replicas_added = applied.loaded;
  stats.replicas_retired = applied.retired;
  stats.bytes_written = applied.bytes;
  // Charged like every other host->DPU push. A pure-retire pass ships
  // nothing and costs nothing — the regions just return to the free list.
  pim::TransferStats xfer;
  if (stats.bytes_written > 0) {
    xfer = pim::TransferEngine::batch(dpu_bytes);
    stats.seconds = xfer.seconds;
  }

  if (metrics_) {
    metrics_->counter("adapt.patches").add(1);
    metrics_->counter("adapt.patch_bytes").add(stats.bytes_written);
    metrics_->counter("adapt.replicas_added").add(stats.replicas_added);
    metrics_->counter("adapt.replicas_retired").add(stats.replicas_retired);
    metrics_->histogram("adapt.patch.seconds").observe(stats.seconds);
    if (stats.bytes_written > 0) {
      pim::TransferEngine::record(obs::MetricsSink(metrics_), "adapt", xfer);
    }
  }
  common::log_debug("adapt-patch: +", stats.replicas_added, " replicas, -",
                    stats.replicas_retired, " replicas, ",
                    stats.bytes_written, " bytes, ", stats.seconds, " s");
  return stats;
}

}  // namespace upanns::core
