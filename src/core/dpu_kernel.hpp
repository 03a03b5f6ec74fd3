// The UpANNS per-DPU query kernel (paper Fig 6) — Opt2 and Opt4 live here.
//
// For every (query, cluster) assignment the kernel executes the
// barrier-separated stages of Fig 6 on up to 24 tasklets:
//   S0  residual + float LUT construction  (tasklets split PQ subspaces;
//       codebook segments stream MRAM->WRAM)               [Barrier 1]
//   S1  LUT scale reduction (tasklet 0)                     [barrier]
//   S2  LUT quantization to u16, compacted in place         [Barrier 2 prep]
//   S3  co-occurrence partial sums into the WRAM cache      [Barrier 2]
//   S4  distance calculation: tasklets stream encoded-point
//       chunks from MRAM, accumulate LUT entries, maintain
//       thread-local bounded max-heaps                      [Barrier 3]
// and, once per query (after its last assigned cluster):
//   S5  pruned merge of thread-local heaps into the DPU
//       top-k heap + result write to MRAM                   [Barrier 0]
//
// WRAM reuse (paper 4.2.2): the codebook region is the *last* fixed
// allocation; before S4 the kernel rewinds the WRAM allocator to the
// codebook mark and reuses that space for the per-tasklet MRAM read buffers.
// The allocator throws if a configuration would not fit real WRAM.
//
// The kernel runs in three modes:
//   kNaiveRaw     - PIM-naive: raw u8 PQ codes, per-element address
//                   arithmetic, unpruned top-k merge.
//   kDirectTokens - UpANNS without CAE: u16 direct-address tokens.
//   kCae          - full UpANNS: CAE token streams + partial-sum cache.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/simd_dispatch.hpp"
#include "common/topk.hpp"
#include "core/cae.hpp"
#include "pim/dpu.hpp"

namespace upanns::core {

enum class KernelMode { kNaiveRaw, kDirectTokens, kCae };

/// Records per chunk of the streamed encoded-point data; each chunk carries
/// a token-offset entry in the chunk index so tasklets can start mid-stream.
inline constexpr std::size_t kChunkRecords = 16;

/// Id sentinel marking a tombstoned slot in a cluster's MRAM id array. The
/// distance scan drops matching records with a branchless select; real ids
/// never collide with it (the result packer already reserves 0xFFFFFFFF for
/// "no neighbor").
inline constexpr std::uint32_t kTombstoneId = 0xFFFFFFFFu;

/// MRAM layout of one resident cluster replica (built by the engine).
/// The *_cap fields record the bytes reserved at each offset — the engine
/// over-allocates each region by a fixed 25% slack (kMramListSlack in
/// engine_mutate.cpp) so a list that grows a little patches in place
/// instead of relocating.
struct DpuClusterData {
  std::uint32_t cluster_id = 0;
  std::uint32_t n_records = 0;
  std::uint32_t n_tombstones = 0; ///< sentinel slots in the id array
  std::size_t ids_off = 0;        ///< u32 x n_records
  std::size_t ids_cap = 0;        ///< bytes reserved at ids_off
  std::size_t stream_off = 0;     ///< u16 tokens (or u8 codes in kNaiveRaw)
  std::size_t stream_len = 0;     ///< element count (u16s, or bytes if raw)
  std::size_t stream_cap = 0;     ///< bytes reserved at stream_off
  std::size_t chunk_index_off = 0;///< u32 element offsets, one per chunk
  std::uint32_t n_chunks = 0;
  std::size_t chunk_cap = 0;      ///< bytes reserved at chunk_index_off
  std::size_t combos_off = 0;     ///< packed CaeCombo (4B each)
  std::uint32_t n_combos = 0;
  std::size_t combos_cap = 0;     ///< bytes reserved at combos_off
  std::size_t centroid_off = 0;   ///< float x dim
};

/// Static per-DPU layout shared by all launches.
struct DpuStaticLayout {
  std::size_t dim = 0;
  std::size_t m = 0;
  std::size_t dsub = 0;
  std::size_t codebook_off = 0;   ///< int8, m x 256 x dsub
  std::size_t cb_scale_off = 0;   ///< float x m (dequantization scales)
  /// Host mirror of the dequantized codebook, prescale_codebook() of the
  /// bytes at codebook_off/cb_scale_off. Owned by the engine (one table
  /// shared by every DPU); the kernel still charges the MRAM codebook DMA.
  std::span<const float> cb_prescaled;
  std::vector<DpuClusterData> clusters;  ///< resident replicas (slot order)
};

/// The query-independent half of S0: out[(s*dsub + d)*256 + c] =
/// scales[s] * float(codebook[(s*256 + c)*dsub + d]), i.e. per subspace a
/// dimension-major [d][c] table. The kernel's LUT row is then one load,
/// sub, mul and add per dimension, and every product is the same IEEE op
/// the per-query dequantization performed. m = scales.size().
std::vector<float> prescale_codebook(std::span<const std::int8_t> codebook,
                                     std::span<const float> scales,
                                     std::size_t dsub);

/// S2 quantization of n float LUT entries into the u32 token table:
/// out[i] = round(min(65535, lut[i] * inv)). The vector paths (16 lanes at
/// avx512, then 8 lanes from avx2, then 4 lanes above scalar) are
/// bit-identical to the scalar reference loop.
void quantize_lut(const float* lut, std::size_t n, float inv,
                  std::uint32_t* out);

/// S4 running prefix of the token table over one chunk span of n tokens:
/// prefix[0] = 0 and prefix[j + 1] = prefix[j] + table[tokens[j]], mod 2^32,
/// so prefix must hold n + 1 entries. At `simd` avx512 it gathers 16 tokens
/// at a time; u32 addition is exact in any order, so every level returns
/// the scalar loop's values. The caller passes the level it hoisted out of
/// its chunk loop.
void token_prefix(common::SimdLevel simd, const std::uint32_t* table,
                  const std::uint16_t* tokens, std::size_t n,
                  std::uint32_t* prefix);

/// Per-launch inputs, already pushed to MRAM by the host.
struct DpuLaunchInput {
  std::size_t queries_off = 0;    ///< float x dim per unique query
  /// Batch row of each unique query on this DPU, in local (query-table)
  /// order; the host reads result slot i back into query_rows[i].
  std::vector<std::uint32_t> query_rows;
  std::size_t results_off = 0;    ///< k x (u32 dist, u32 id) per query
  std::size_t k = 10;
  std::size_t mram_read_bytes = 0;///< DMA granularity for the stream (fig 17)
  /// Assignments in query-grouped order: (local query idx, cluster slot).
  struct Item {
    std::uint32_t query_local;
    std::uint32_t cluster_slot;
  };
  std::vector<Item> items;
};

/// Stage attribution of the kernel's phases, resolved after the run.
struct KernelStageCycles {
  std::uint64_t lut_build = 0;    ///< S0-S3 (paper folds partial sums here)
  std::uint64_t distance = 0;     ///< S4
  std::uint64_t topk = 0;         ///< S5
};

/// Monotonic count of hot-path buffer growth events (scratch-arena capacity
/// growth, kernel/heap construction). After a warm-up batch the serving hot
/// path must not grow any arena, which the allocation-behavior tier-1 test
/// pins by sampling this counter across batches.
std::uint64_t hot_path_allocations();

namespace detail {
/// Bump hot_path_allocations(). Called whenever a hot-path buffer grows.
void note_hot_path_allocation();
}  // namespace detail

/// Reusable per-kernel scratch arena: the functional mirrors of WRAM state
/// plus the S5 result image. Everything is resized or assigned (never
/// reconstructed) so capacity persists across phases, tasklets and launches;
/// capacity growth bumps hot_path_allocations(). Tasklets of one DPU run
/// sequentially in the simulator, so one arena per kernel suffices.
struct KernelScratch {
  std::vector<float> lut_f32;
  std::vector<float> tasklet_max;      ///< per-tasklet LUT max (S1 input)
  /// Unified token table: the u16 LUT widened to u32, followed by the combo
  /// partial sums — the host mirror of both WRAM tables. The distance scan
  /// resolves any token with one unconditional load, the functional twin of
  /// the DPU's direct-address tokens (no branch on real hardware either).
  std::vector<std::uint32_t> token_table;
  /// Running u32 prefix of token_table over one chunk span (S4); sized
  /// kChunkRecords * (m + 1) + 1, the longest span plus the leading zero.
  std::vector<std::uint32_t> prefix;
  std::vector<float> residual;
  std::vector<std::uint32_t> packed;   ///< MRAM result image (S5)

  /// assign() that records capacity growth in hot_path_allocations().
  template <typename T>
  static void assign(std::vector<T>& v, std::size_t n, const T& fill) {
    if (n > v.capacity()) detail::note_hot_path_allocation();
    v.assign(n, fill);
  }
  /// resize() that records capacity growth in hot_path_allocations(), for
  /// a buffer every launch writes before it reads: what a reused kernel
  /// left there from its previous launch is never read.
  template <typename T>
  static void resize(std::vector<T>& v, std::size_t n) {
    if (n > v.capacity()) detail::note_hot_path_allocation();
    v.resize(n);
  }
};

class QueryKernel final : public pim::DpuKernel {
 public:
  QueryKernel(const DpuStaticLayout& layout, const DpuLaunchInput& input,
              KernelMode mode, bool prune_topk);

  /// Rebind to a new launch input and rebuild the phase program in place.
  /// Mode, pruning and the static layout are fixed for the kernel's
  /// lifetime; every scratch buffer keeps its capacity, which is what makes
  /// per-batch kernel reuse (LaunchStage pool) allocation-free once warm.
  void rebind(const DpuLaunchInput& input);

  void setup(pim::Dpu& dpu, unsigned n_tasklets) override;
  unsigned n_phases() const override;
  void run_phase(unsigned phase, pim::TaskletCtx& ctx) override;

  /// Map phase cycles (from DpuRunStats) onto pipeline stages.
  KernelStageCycles attribute_stages(
      const std::vector<std::uint64_t>& phase_cycles) const;

  /// Aggregate comparison-pruning statistics (Fig 15's mechanism).
  std::uint64_t merge_insertions() const { return merge_insertions_; }
  std::uint64_t merge_pruned() const { return merge_pruned_; }
  /// Aggregate scanned stream elements (CAE length-reduction visibility).
  std::uint64_t scanned_elements() const { return scanned_elements_; }
  std::uint64_t scanned_records() const { return scanned_records_; }

 private:
  enum class Step : std::uint8_t {
    kLutBuild, kLutReduce, kLutQuantize, kComboSums, kDistance, kMerge
  };
  struct Phase {
    Step step;
    std::uint32_t item;   ///< assignment index (kMerge: first item of query)
  };

  void phase_lut_build(const Phase& p, pim::TaskletCtx& ctx);
  void phase_lut_reduce(pim::TaskletCtx& ctx);
  void phase_lut_quantize(pim::TaskletCtx& ctx);
  void phase_combo_sums(const Phase& p, pim::TaskletCtx& ctx);
  void phase_distance(const Phase& p, pim::TaskletCtx& ctx);
  void phase_merge(const Phase& p, pim::TaskletCtx& ctx);

  const DpuClusterData& cluster_of(std::uint32_t item) const {
    return layout_.clusters[input_->items[item].cluster_slot];
  }

  const DpuStaticLayout& layout_;
  const DpuLaunchInput* input_;  ///< rebindable per batch (see rebind())
  KernelMode mode_;
  bool prune_topk_;
  pim::Dpu* dpu_ = nullptr;

  std::vector<Phase> program_;

  // --- WRAM-resident state (offsets into the DPU's WRAM arena). The float
  // and u16 LUTs share one region (quantization compacts in place).
  std::size_t wram_lut_off = 0;
  std::size_t wram_combo_off = 0;
  std::size_t wram_query_off = 0;     ///< residual, float x dim
  std::size_t wram_codebook_mark = 0; ///< rewind point for stage reuse
  std::size_t wram_codebook_off = 0;
  std::size_t per_tasklet_buf_bytes_ = 0;

  // Functional state mirroring WRAM contents lives in the scratch arena.
  // The modelled tasklet and DPU heaps are mirrored by sorted TopK buffers
  // that accept exactly what the heaps would; the heaps' WRAM footprint is
  // charged in setup(). All of it keeps capacity across launches.
  KernelScratch scratch_;
  float lut_scale_ = 1.f;
  std::vector<common::TopK> local_topk_;  ///< one per tasklet (S4)
  common::TopK global_topk_;              ///< DPU-wide (S5)

  std::uint64_t merge_insertions_ = 0;
  std::uint64_t merge_pruned_ = 0;
  std::uint64_t scanned_elements_ = 0;
  std::uint64_t scanned_records_ = 0;
};

}  // namespace upanns::core
