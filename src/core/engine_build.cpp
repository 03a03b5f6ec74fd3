// Offline half of UpAnnsEngine: codebook quantization, cluster encoding
// (Opt3), replica placement (Opt1) and the full MRAM load, which writes the
// codebook and hands every placed replica to the replica writer, sync_dpu()
// (engine_mutate.cpp). The online query path lives in core/pipeline.cpp.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/fastround.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "pim/transfer.hpp"

namespace upanns::core {

namespace {

/// Seed of the PIM-naive random placement (Opt1 off).
constexpr std::uint64_t kRandomPlacementSeed = 11;

/// Opt1's placement (Algorithm 1), or PIM-naive's random one.
Placement place(const ivf::IvfIndex& index, const ivf::ClusterStats& stats,
                const UpAnnsOptions& options) {
  const PlacementOptions popts{options.n_dpus};
  return options.opt_placement
             ? place_clusters(index, stats, popts)
             : place_random(index, stats, popts, kRandomPlacementSeed);
}

}  // namespace

UpAnnsEngine::UpAnnsEngine(ivf::IvfIndex& index, const ivf::ClusterStats& stats,
                           UpAnnsOptions options)
    : UpAnnsEngine(static_cast<const ivf::IvfIndex&>(index), stats,
                   std::move(options)) {
  mutable_index_ = &index;
}

UpAnnsEngine::UpAnnsEngine(const ivf::IvfIndex& index,
                           const ivf::ClusterStats& stats,
                           UpAnnsOptions options)
    : index_(index),
      options_(std::move(options)),
      pipeline_(std::make_unique<QueryPipeline>(*this)) {
  if (options_.n_dpus == 0) throw std::invalid_argument("n_dpus == 0");

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
  common::ThreadPool::global().parallel_for(
      0, index_.n_clusters(), [&](std::size_t c) { encode_cluster(c); }, 1);

  // --- Place and load.
  placement_ = place(index_, stats, options_);
  set_placement_frequencies(stats.frequencies);
  load_dpus();
}

UpAnnsEngine::~UpAnnsEngine() = default;

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
  placement_ = place(index_, stats, options_);
  set_placement_frequencies(stats.frequencies);
  const std::vector<std::size_t> dpu_bytes = load_dpus();
  pipeline_->reset_kernels();  // pooled kernels referenced the old layouts

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
      encodings_[c] = cae_encode_cluster(list, m, CaeOptions{});
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

void UpAnnsEngine::snapshot_loaded_state() {
  loaded_gen_.resize(index_.n_clusters());
  enc_compact_.resize(index_.n_clusters());
  for (std::size_t c = 0; c < index_.n_clusters(); ++c) {
    loaded_gen_[c] = index_.list(c).generation;
    enc_compact_[c] = index_.list(c).compact_epoch;
  }
  loaded_epoch_ = index_.mutation_epoch();
}

std::vector<std::size_t> UpAnnsEngine::load_dpus() {
  system_ = std::make_unique<pim::PimSystem>(options_.n_dpus);
  system_->set_metrics(metrics_);  // relocate() rebuilds the system
  per_dpu_.assign(options_.n_dpus, PerDpu{});

  const std::size_t scales_bytes = codebook_scales_.size() * sizeof(float);
  std::vector<std::size_t> dpu_bytes(options_.n_dpus, 0);
  common::ThreadPool::global().parallel_for(
      0, options_.n_dpus,
      [&](std::size_t d) {
        pim::Dpu& dpu = system_->dpu(d);
        PerDpu& pd = per_dpu_[d];
        pd.cluster_slot.assign(index_.n_clusters(), -1);
        pd.layout.dim = index_.dim();
        pd.layout.m = index_.pq_m();
        pd.layout.dsub = index_.pq().dsub();
        pd.layout.cb_prescaled = codebook_prescaled_;
        pd.layout.codebook_off =
            dpu.mram_alloc(codebook_q_.size(), "codebook");
        dpu.host_write(pd.layout.codebook_off, codebook_q_.data(),
                       codebook_q_.size());
        pd.layout.cb_scale_off = dpu.mram_alloc(scales_bytes, "cb-scales");
        dpu.host_write(pd.layout.cb_scale_off, codebook_scales_.data(),
                       scales_bytes);
        pd.static_mark = dpu.mram_mark();

        // Replicas load in the codebook's task, so each DPU's MRAM vector
        // grows on one thread (a separate pass raised peak RSS).
        std::vector<ReplicaOp> ops;
        for (std::uint32_t c : placement_.dpu_clusters[d]) {
          ops.push_back({ReplicaOp::Kind::kLoad, c});
        }
        dpu_bytes[d] =
            codebook_q_.size() + scales_bytes + sync_dpu(d, ops).bytes;
      },
      1);

  load_image_bytes_ = 0;
  for (std::size_t b : dpu_bytes) load_image_bytes_ += b;
  snapshot_loaded_state();
  return dpu_bytes;
}

}  // namespace upanns::core
