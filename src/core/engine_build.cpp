// Offline half of UpAnnsEngine: codebook quantization, cluster encoding
// (Opt3), replica placement (Opt1) and MRAM image construction. The online
// query path lives in core/pipeline.cpp.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/fastround.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "pim/transfer.hpp"

namespace upanns::core {

UpAnnsEngine::UpAnnsEngine(ivf::IvfIndex& index, const ivf::ClusterStats& stats,
                           UpAnnsOptions options)
    : UpAnnsEngine(static_cast<const ivf::IvfIndex&>(index), stats,
                   std::move(options)) {
  mutable_index_ = &index;
}

UpAnnsEngine::UpAnnsEngine(const ivf::IvfIndex& index,
                           const ivf::ClusterStats& stats,
                           UpAnnsOptions options)
    : index_(index), options_(std::move(options)) {
  if (options_.n_dpus == 0) throw std::invalid_argument("n_dpus == 0");
  options_.placement.n_dpus = options_.n_dpus;

  mode_ = options_.naive_raw_codes
              ? KernelMode::kNaiveRaw
              : (options_.opt_cae ? KernelMode::kCae
                                  : KernelMode::kDirectTokens);

  // --- Quantize the PQ codebooks to int8 (the WRAM-resident form; paper
  // Sec 4.2.1 budgets D x 256 bytes). One scale per subspace.
  const auto& pq = index_.pq();
  const std::size_t m = pq.m();
  const std::size_t dsub = pq.dsub();
  codebook_q_.resize(m * 256 * dsub);
  codebook_scales_.resize(m);
  const std::span<const float> cb = pq.codebooks();
  for (std::size_t s = 0; s < m; ++s) {
    float mx = 0.f;
    for (std::size_t i = 0; i < 256 * dsub; ++i) {
      mx = std::max(mx, std::abs(cb[s * 256 * dsub + i]));
    }
    const float scale = mx > 0.f ? mx / 127.f : 1.f;
    codebook_scales_[s] = scale;
    for (std::size_t i = 0; i < 256 * dsub; ++i) {
      // round_nonneg on |r| == lround's round-half-away-from-zero here
      // (|r| <= 127 by the scale construction), minus the libm call.
      const float r = cb[s * 256 * dsub + i] / scale;
      codebook_q_[s * 256 * dsub + i] = static_cast<std::int8_t>(
          r < 0.f ? -common::round_nonneg(-r) : common::round_nonneg(r));
    }
  }
  codebook_prescaled_ =
      prescale_codebook(codebook_q_, codebook_scales_, dsub);

  // --- Encode every cluster once (replicas share the encoding).
  encodings_.resize(index_.n_clusters());
  double weighted_reduction = 0;
  std::size_t total_records = 0;
  common::ThreadPool::global().parallel_for(
      0, index_.n_clusters(), [&](std::size_t c) { encode_cluster(c); }, 1);
  for (std::size_t c = 0; c < index_.n_clusters(); ++c) {
    weighted_reduction += encodings_[c].length_reduction() *
                          static_cast<double>(encodings_[c].n_records);
    total_records += encodings_[c].n_records;
  }
  build_length_reduction_ =
      total_records > 0 ? weighted_reduction / static_cast<double>(total_records)
                        : 0;

  // --- Place and load.
  placement_ = options_.opt_placement
                   ? place_clusters(index_, stats, options_.placement)
                   : place_random(index_, stats, options_.placement,
                                  options_.seed);
  set_placement_frequencies(stats.frequencies);
  load_dpus(stats);
}

void UpAnnsEngine::set_placement_frequencies(
    const std::vector<double>& frequencies) {
  placement_frequencies_ = frequencies;
  placement_frequencies_.resize(index_.n_clusters(), 0.0);
  double total = 0;
  for (double f : placement_frequencies_) total += f;
  if (total > 0) {
    for (double& f : placement_frequencies_) f /= total;
  }
}

void UpAnnsEngine::set_k(std::size_t k) {
  if (k == 0) throw std::invalid_argument("set_k: k == 0");
  options_.k = k;
}

void UpAnnsEngine::set_nprobe(std::size_t nprobe) {
  if (nprobe == 0) throw std::invalid_argument("set_nprobe: nprobe == 0");
  options_.nprobe = nprobe;
}

void UpAnnsEngine::set_mram_read_vectors(std::size_t vectors) {
  // 0 is valid: one maximal DMA per chunk (Fig 17 rightmost point).
  options_.mram_read_vectors = vectors;
}

void UpAnnsEngine::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (system_) system_->set_metrics(registry);
}

UpAnnsEngine::PatchStats UpAnnsEngine::relocate(const ivf::ClusterStats& stats) {
  // A relocate rebuilds every MRAM image from the shared encodings, so any
  // pending index mutations must land in the encodings first.
  if (updatable()) {
    for (std::size_t c = 0; c < index_.n_clusters(); ++c) {
      refresh_encoding(c);
    }
  }
  placement_ = options_.opt_placement
                   ? place_clusters(index_, stats, options_.placement)
                   : place_random(index_, stats, options_.placement,
                                  options_.seed);
  set_placement_frequencies(stats.frequencies);
  const std::vector<std::size_t> dpu_bytes = load_dpus(stats);

  // Charge the reload like every other host->DPU push so the online
  // pipelines can fold a drain-point relocation into a batch slot.
  PatchStats out;
  out.bytes_written = load_image_bytes_;
  out.lists_patched = placement_.total_replicas;
  out.seconds = pim::TransferEngine::batch(dpu_bytes).seconds;
  return out;
}

void UpAnnsEngine::encode_cluster(std::size_t c) {
  const ivf::InvertedList& list = index_.list(c);
  const std::size_t m = index_.pq_m();
  switch (mode_) {
    case KernelMode::kCae:
      encodings_[c] = cae_encode_cluster(list, m, options_.cae);
      break;
    case KernelMode::kDirectTokens:
      encodings_[c] = direct_encode_cluster(list, m);
      break;
    case KernelMode::kNaiveRaw:
      // Raw mode streams the original codes; keep only bookkeeping.
      encodings_[c] = CaeClusterEncoding{};
      encodings_[c].m = m;
      encodings_[c].n_records = list.size();
      encodings_[c].total_tokens = list.size() * m;
      break;
  }
}

void UpAnnsEngine::refresh_encoding(std::size_t c) {
  const ivf::InvertedList& list = index_.list(c);
  CaeClusterEncoding& enc = encodings_[c];
  if (list.compact_epoch != enc_compact_[c]) {
    // Slots physically moved — the stream must be rebuilt (which also
    // re-mines CAE combos over the surviving codes).
    encode_cluster(c);
    enc_compact_[c] = list.compact_epoch;
    return;
  }
  if (list.size() <= enc.n_records) return;  // removes only: stream unchanged
  const std::size_t m = index_.pq_m();
  if (mode_ == KernelMode::kNaiveRaw) {
    enc.total_tokens += (list.size() - enc.n_records) * m;
    enc.n_records = list.size();
    return;
  }
  // Append direct-address tokens for the new records. Mixing direct tokens
  // into a CAE stream is exact: a distance is an order-independent u32 sum
  // of LUT entries, so an appended record scores bit-identically to the
  // combo-compressed form a full re-encode might choose.
  for (std::size_t r = enc.n_records; r < list.size(); ++r) {
    const std::uint8_t* code = list.code(r, m);
    enc.tokens.push_back(static_cast<std::uint16_t>(m));
    for (std::size_t pos = 0; pos < m; ++pos) {
      enc.tokens.push_back(static_cast<std::uint16_t>(pos * 256 + code[pos]));
    }
    enc.total_tokens += m;
    ++enc.n_records;
  }
}

std::size_t UpAnnsEngine::slack_bytes(std::size_t bytes) const {
  const double s = std::max(0.0, options_.mram_list_slack);
  const auto padded = static_cast<std::size_t>(
      std::ceil(static_cast<double>(bytes) * (1.0 + s)));
  return (padded + 7) / 8 * 8;
}

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

void UpAnnsEngine::snapshot_loaded_state() {
  loaded_gen_.resize(index_.n_clusters());
  enc_compact_.resize(index_.n_clusters());
  for (std::size_t c = 0; c < index_.n_clusters(); ++c) {
    loaded_gen_[c] = index_.list(c).generation;
    enc_compact_[c] = index_.list(c).compact_epoch;
  }
  loaded_epoch_ = index_.mutation_epoch();
}

std::vector<std::size_t> UpAnnsEngine::load_dpus(const ivf::ClusterStats&) {
  system_ = std::make_unique<pim::PimSystem>(options_.n_dpus);
  system_->set_metrics(metrics_);  // relocate() rebuilds the system
  per_dpu_.assign(options_.n_dpus, PerDpu{});

  const std::size_t m = index_.pq_m();
  const std::size_t dsub = index_.pq().dsub();
  const std::size_t dim = index_.dim();

  std::vector<std::size_t> dpu_bytes(options_.n_dpus, 0);
  common::ThreadPool::global().parallel_for(
      0, options_.n_dpus,
      [&](std::size_t d) {
        pim::Dpu& dpu = system_->dpu(d);
        PerDpu& pd = per_dpu_[d];
        std::uint64_t bytes = 0;
        pd.cluster_slot.assign(index_.n_clusters(), -1);
        pd.layout.dim = dim;
        pd.layout.m = m;
        pd.layout.dsub = dsub;
        pd.layout.cb_prescaled = codebook_prescaled_;

        pd.layout.codebook_off =
            dpu.mram_alloc(codebook_q_.size(), "codebook");
        dpu.host_write(pd.layout.codebook_off, codebook_q_.data(),
                       codebook_q_.size());
        bytes += codebook_q_.size();
        pd.layout.cb_scale_off =
            dpu.mram_alloc(codebook_scales_.size() * sizeof(float), "cb-scales");
        dpu.host_write(pd.layout.cb_scale_off, codebook_scales_.data(),
                       codebook_scales_.size() * sizeof(float));
        bytes += codebook_scales_.size() * sizeof(float);

        // List regions are over-allocated by mram_list_slack so streaming
        // inserts patch in place. The slack is pure address-space: DMA costs
        // are charged per byte moved, never per offset, so read-only results
        // are unchanged by it.
        ClusterImage img;
        for (std::uint32_t c : placement_.dpu_clusters[d]) {
          build_cluster_image(c, img);
          DpuClusterData cd;
          cd.cluster_id = c;
          cd.n_records = img.n_records;
          cd.n_tombstones = img.n_tombstones;

          const std::size_t ids_bytes = img.ids.size() * sizeof(std::uint32_t);
          cd.ids_cap = slack_bytes(ids_bytes);
          cd.ids_off = dpu.mram_alloc(cd.ids_cap, "ids");
          if (ids_bytes > 0) {
            dpu.host_write(cd.ids_off, img.ids.data(), ids_bytes);
          }
          bytes += ids_bytes;

          cd.stream_cap = slack_bytes(img.stream.size());
          cd.stream_off = dpu.mram_alloc(
              cd.stream_cap, mode_ == KernelMode::kNaiveRaw ? "codes" : "tokens");
          if (!img.stream.empty()) {
            dpu.host_write(cd.stream_off, img.stream.data(), img.stream.size());
          }
          cd.stream_len = img.stream_elems;
          bytes += img.stream.size();

          const std::size_t chunk_bytes =
              img.chunk_index.size() * sizeof(std::uint32_t);
          cd.n_chunks = static_cast<std::uint32_t>(img.chunk_index.size());
          if (chunk_bytes > 0) {
            cd.chunk_cap = slack_bytes(chunk_bytes);
            cd.chunk_index_off = dpu.mram_alloc(cd.chunk_cap, "chunk-index");
            dpu.host_write(cd.chunk_index_off, img.chunk_index.data(),
                           chunk_bytes);
            bytes += chunk_bytes;
          }

          cd.n_combos = static_cast<std::uint32_t>(img.combos.size() / 4);
          if (!img.combos.empty()) {
            cd.combos_cap = slack_bytes(img.combos.size());
            cd.combos_off = dpu.mram_alloc(cd.combos_cap, "combos");
            dpu.host_write(cd.combos_off, img.combos.data(), img.combos.size());
            bytes += img.combos.size();
          }

          cd.centroid_off = dpu.mram_alloc(dim * sizeof(float), "centroid");
          dpu.host_write(cd.centroid_off, index_.centroid(c),
                         dim * sizeof(float));
          bytes += dim * sizeof(float);

          pd.cluster_slot[c] =
              static_cast<std::int32_t>(pd.layout.clusters.size());
          pd.layout.clusters.push_back(cd);
        }
        pd.static_mark = dpu.mram_mark();
        dpu_bytes[d] = static_cast<std::size_t>(bytes);
      },
      1);

  load_image_bytes_ = 0;
  for (std::size_t b : dpu_bytes) load_image_bytes_ += b;
  snapshot_loaded_state();
  return dpu_bytes;
}

}  // namespace upanns::core
