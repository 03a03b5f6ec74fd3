#include "core/dpu_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/fastround.hpp"
#include "common/simd_dispatch.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace upanns::core {

namespace {

#if defined(__SSE2__)
constexpr __mmask16 kAll16 = 0xFFFF;
#endif

// Instruction-cost constants (per-element issue slots). Derived from the
// DPU ISA: loads/stores/ALU ops are single-issue; there is no hardware
// 32-bit multiply, which is why direct-address tokens save the 2-op address
// arithmetic the raw-code path pays per element.
constexpr std::uint64_t kInstrLutPerDim = 3;      // load cb, dequant-sub, fma
constexpr std::uint64_t kInstrLutPerEntry = 3;    // max-track, store, loop
constexpr std::uint64_t kInstrQuantPerEntry = 3;  // load, scale, store
constexpr std::uint64_t kInstrComboPerSlot = 8;   // 3 loads + 2 adds + store + addr
constexpr std::uint64_t kInstrTokenScan = 3;      // load token, LUT load, add
constexpr std::uint64_t kInstrRawScan = 4;        // + running-base addressing
constexpr std::uint64_t kInstrRecordOverhead = 5; // header, loop, compare, scale
constexpr std::uint64_t kInstrResidualPerDim = 3; // load, sub, store
constexpr std::uint64_t kInstrTombstoneMask = 1;  // id-vs-sentinel select

std::uint64_t heap_push_cost(std::size_t k) {
  std::uint64_t lg = 1;
  while ((1ull << lg) < k + 1) ++lg;
  return 2 * lg + 4;
}

std::atomic<std::uint64_t> g_hot_path_allocations{0};

}  // namespace

std::uint64_t hot_path_allocations() {
  return g_hot_path_allocations.load(std::memory_order_relaxed);
}

namespace detail {
void note_hot_path_allocation() {
  g_hot_path_allocations.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

QueryKernel::QueryKernel(const DpuStaticLayout& layout,
                         const DpuLaunchInput& input, KernelMode mode,
                         bool prune_topk)
    : layout_(layout),
      input_(&input),
      mode_(mode),
      prune_topk_(prune_topk),
      global_topk_(input.k) {
  // Constructing a kernel (LaunchStage pool growth) is a hot-path
  // allocation event; a warm serving loop rebinds instead.
  detail::note_hot_path_allocation();
  rebind(input);
}

void QueryKernel::rebind(const DpuLaunchInput& input) {
  input_ = &input;
  // Rebuild the phase program in place: items arrive grouped by query; each
  // item gets the per-cluster stages, and each query closes with one merge
  // phase. program_ keeps its capacity across batches.
  program_.clear();
  for (std::uint32_t i = 0; i < input_->items.size(); ++i) {
    program_.push_back({Step::kLutBuild, i});
    program_.push_back({Step::kLutReduce, i});
    program_.push_back({Step::kLutQuantize, i});
    if (mode_ == KernelMode::kCae && cluster_of(i).n_combos > 0) {
      program_.push_back({Step::kComboSums, i});
    }
    program_.push_back({Step::kDistance, i});
    const bool last_of_query =
        i + 1 == input_->items.size() ||
        input_->items[i + 1].query_local != input_->items[i].query_local;
    if (last_of_query) {
      program_.push_back({Step::kMerge, i});
    }
  }
}

void QueryKernel::setup(pim::Dpu& dpu, unsigned n_tasklets) {
  dpu_ = &dpu;
  pim::WramAllocator& wram = dpu.wram();
  wram.reset();

  const std::size_t m = layout_.m;
  const std::size_t k = input_->k;

  // Fixed-region layout (paper Fig 6). Heaps and the partial-sum cache live
  // below the LUT; the codebook is last so it can be rewound and reused as
  // per-tasklet read buffers during the distance stage.
  const std::size_t heap_bytes = (n_tasklets + 1) * k * 8;
  wram.alloc(heap_bytes, "topk-heaps");

  std::uint32_t max_combos = 0;
  for (const auto& item : input_->items) {
    max_combos = std::max(max_combos,
                          layout_.clusters[item.cluster_slot].n_combos);
  }
  if (mode_ == KernelMode::kCae && max_combos > 0) {
    wram_combo_off = wram.alloc(max_combos * sizeof(std::uint32_t),
                                "combo-partial-sums");
  }
  wram_query_off = wram.alloc(layout_.dim * sizeof(float), "query-residual");
  // Float LUT region; the u16 LUT compacts into its first half in place.
  wram_lut_off = wram.alloc(m * 256 * sizeof(float), "lut");
  wram_codebook_mark = wram.mark();
  wram_codebook_off = wram.alloc(m * 256 * layout_.dsub, "codebook");

  // Per-tasklet stream buffers must hold a full chunk (plus its ids) so
  // records never straddle buffers; verify the reuse region can host them.
  const std::size_t elem_size = mode_ == KernelMode::kNaiveRaw ? 1 : 2;
  const std::size_t chunk_stream_bytes =
      kChunkRecords * (m + (mode_ == KernelMode::kNaiveRaw ? 0 : 1)) *
      elem_size;
  per_tasklet_buf_bytes_ =
      (chunk_stream_bytes + kChunkRecords * sizeof(std::uint32_t) + 7) / 8 * 8;
  {
    // Probe: rewind to the codebook mark and check the distance-stage
    // working set fits, then restore the codebook allocation.
    wram.rewind(wram_codebook_mark);
    for (unsigned t = 0; t < n_tasklets; ++t) {
      wram.alloc(per_tasklet_buf_bytes_, "stream-buffer");
    }
    wram.rewind(wram_codebook_mark);
    wram.alloc(m * 256 * layout_.dsub, "codebook");
  }

  // Functional mirrors, reused from the scratch arena across launches and
  // written before they are read: S0 writes the residual, every LUT row and
  // every tasklet's max; S2 and the combo phase write every token-table
  // entry a token of the item can address; token_prefix writes the prefix
  // span S4 reads.
  assert(layout_.cb_prescaled.size() == m * layout_.dsub * 256);
  KernelScratch::resize(scratch_.lut_f32, m * 256);
  KernelScratch::resize(scratch_.token_table, m * 256 + max_combos);
  KernelScratch::resize(scratch_.prefix, kChunkRecords * (m + 1) + 1);
  KernelScratch::resize(scratch_.residual, layout_.dim);
  KernelScratch::resize(scratch_.tasklet_max,
                        static_cast<std::size_t>(n_tasklets));
  if (local_topk_.size() != n_tasklets ||
      (!local_topk_.empty() && local_topk_.front().capacity() != k)) {
    detail::note_hot_path_allocation();
    local_topk_.assign(n_tasklets, common::TopK(k));
  } else {
    for (auto& t : local_topk_) t.clear();
  }
  if (global_topk_.capacity() != k) {
    detail::note_hot_path_allocation();
    global_topk_ = common::TopK(k);
  } else {
    global_topk_.clear();
  }

  // Per-launch statistics restart with every run — reused kernel objects
  // must report exactly what a freshly constructed one would.
  merge_insertions_ = 0;
  merge_pruned_ = 0;
  scanned_elements_ = 0;
  scanned_records_ = 0;
}

unsigned QueryKernel::n_phases() const {
  return static_cast<unsigned>(program_.size());
}

void QueryKernel::run_phase(unsigned phase, pim::TaskletCtx& ctx) {
  const Phase& p = program_[phase];
  switch (p.step) {
    case Step::kLutBuild: return phase_lut_build(p, ctx);
    case Step::kLutReduce: return phase_lut_reduce(ctx);
    case Step::kLutQuantize: return phase_lut_quantize(ctx);
    case Step::kComboSums: return phase_combo_sums(p, ctx);
    case Step::kDistance: return phase_distance(p, ctx);
    case Step::kMerge: return phase_merge(p, ctx);
  }
}

std::vector<float> prescale_codebook(std::span<const std::int8_t> codebook,
                                     std::span<const float> scales,
                                     std::size_t dsub) {
  const std::size_t m = scales.size();
  assert(codebook.size() == m * 256 * dsub);
  std::vector<float> out(m * dsub * 256);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t c = 0; c < 256; ++c) {
      for (std::size_t d = 0; d < dsub; ++d) {
        out[(s * dsub + d) * 256 + c] =
            scales[s] * static_cast<float>(codebook[(s * 256 + c) * dsub + d]);
      }
    }
  }
  return out;
}

namespace {

// One 256-entry LUT row from a pre-scaled [d][c] codebook segment:
// out[c] = sum over d ascending of (res[d] - pre[d][c])^2. Every variant
// runs that exact IEEE sub/mul/add sequence per entry (no FMA contraction:
// SSE2 and AVX2 have no fused ops, and the AVX-512 body is built with
// contraction off), so rows are bit-identical across levels; the vector
// ones keep four independent accumulators per 16/32/64 entries to hide the
// add latency. Returns the row max, which is order-insensitive for the
// non-NaN sums involved.
float lut_row_scalar(const float* pre, const float* res, std::size_t dsub,
                     float* out) {
  float row_max = 0.f;
  for (std::size_t c = 0; c < 256; ++c) {
    float acc = 0.f;
    for (std::size_t d = 0; d < dsub; ++d) {
      const float diff = res[d] - pre[d * 256 + c];
      acc += diff * diff;
    }
    out[c] = acc;
    row_max = std::max(row_max, acc);
  }
  return row_max;
}

#if defined(__SSE2__)
float lut_row_sse2(const float* pre, const float* res, std::size_t dsub,
                   float* out) {
  __m128 mx = _mm_setzero_ps();
  for (std::size_t c = 0; c < 256; c += 16) {
    __m128 acc[4] = {_mm_setzero_ps(), _mm_setzero_ps(), _mm_setzero_ps(),
                     _mm_setzero_ps()};
    for (std::size_t d = 0; d < dsub; ++d) {
      const __m128 r = _mm_set1_ps(res[d]);
      const float* p = pre + d * 256 + c;
      for (std::size_t u = 0; u < 4; ++u) {
        const __m128 diff = _mm_sub_ps(r, _mm_loadu_ps(p + 4 * u));
        acc[u] = _mm_add_ps(acc[u], _mm_mul_ps(diff, diff));
      }
    }
    for (std::size_t u = 0; u < 4; ++u) {
      _mm_storeu_ps(out + c + 4 * u, acc[u]);
      mx = _mm_max_ps(mx, acc[u]);
    }
  }
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, mx);
  return std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
}

__attribute__((target("avx2"))) float lut_row_avx2(const float* pre,
                                                   const float* res,
                                                   std::size_t dsub,
                                                   float* out) {
  __m256 mx = _mm256_setzero_ps();
  for (std::size_t c = 0; c < 256; c += 32) {
    __m256 acc[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                     _mm256_setzero_ps(), _mm256_setzero_ps()};
    for (std::size_t d = 0; d < dsub; ++d) {
      const __m256 r = _mm256_set1_ps(res[d]);
      const float* p = pre + d * 256 + c;
      for (std::size_t u = 0; u < 4; ++u) {
        const __m256 diff = _mm256_sub_ps(r, _mm256_loadu_ps(p + 8 * u));
        acc[u] = _mm256_add_ps(acc[u], _mm256_mul_ps(diff, diff));
      }
    }
    for (std::size_t u = 0; u < 4; ++u) {
      _mm256_storeu_ps(out + c + 8 * u, acc[u]);
      mx = _mm256_max_ps(mx, acc[u]);
    }
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, mx);
  float row_max = lanes[0];
  for (std::size_t j = 1; j < 8; ++j) row_max = std::max(row_max, lanes[j]);
  return row_max;
}

// The AVX2 body at 16 lanes. AVX-512F has fused multiply-adds, and GCC
// contracts the sub/mul/add into one by default (-ffp-contract=fast), which
// would round each entry differently from every other level.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
UPANNS_AVX512 float lut_row_avx512(const float* pre, const float* res,
                                   std::size_t dsub, float* out) {
  __m512 mx = _mm512_setzero_ps();
  for (std::size_t c = 0; c < 256; c += 64) {
    __m512 acc[4] = {_mm512_setzero_ps(), _mm512_setzero_ps(),
                     _mm512_setzero_ps(), _mm512_setzero_ps()};
    for (std::size_t d = 0; d < dsub; ++d) {
      const __m512 r = _mm512_set1_ps(res[d]);
      const float* p = pre + d * 256 + c;
      for (std::size_t u = 0; u < 4; ++u) {
        const __m512 diff = _mm512_sub_ps(r, _mm512_loadu_ps(p + 16 * u));
        acc[u] = _mm512_add_ps(acc[u], _mm512_mul_ps(diff, diff));
      }
    }
    for (std::size_t u = 0; u < 4; ++u) {
      _mm512_storeu_ps(out + c + 16 * u, acc[u]);
      mx = _mm512_mask_max_ps(mx, kAll16, mx, acc[u]);
    }
  }
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, mx);
  float row_max = lanes[0];
  for (std::size_t j = 1; j < 16; ++j) row_max = std::max(row_max, lanes[j]);
  return row_max;
}
#pragma GCC pop_options
#endif  // __SSE2__

float lut_row(common::SimdLevel simd, const float* pre, const float* res,
              std::size_t dsub, float* out) {
#if defined(__SSE2__)
  if (simd >= common::SimdLevel::kAvx512) {
    return lut_row_avx512(pre, res, dsub, out);
  }
  if (simd >= common::SimdLevel::kAvx2) {
    return lut_row_avx2(pre, res, dsub, out);
  }
  if (simd >= common::SimdLevel::kSse2) {
    return lut_row_sse2(pre, res, dsub, out);
  }
#endif
  (void)simd;
  return lut_row_scalar(pre, res, dsub, out);
}

}  // namespace

void QueryKernel::phase_lut_build(const Phase& p, pim::TaskletCtx& ctx) {
  const DpuClusterData& cl = cluster_of(p.item);
  const std::size_t dim = layout_.dim;
  const std::size_t dsub = layout_.dsub;
  const std::size_t m = layout_.m;

  // Tasklet 0 materializes the residual first (it is the first to run and
  // the work is tiny relative to the LUT itself). Query and centroid are
  // read-only, so borrowed MRAM views replace the staging copies.
  if (ctx.id() == 0) {
    const std::size_t q_off =
        input_->queries_off +
        static_cast<std::size_t>(input_->items[p.item].query_local) * dim *
            sizeof(float);
    const float* query = ctx.mram_view_as<float>(q_off, dim * sizeof(float));
    const float* centroid =
        ctx.mram_view_as<float>(cl.centroid_off, dim * sizeof(float));
    for (std::size_t d = 0; d < dim; ++d) {
      scratch_.residual[d] = query[d] - centroid[d];
    }
    ctx.instr(dim * kInstrResidualPerDim);
  }

  // Tasklets split PQ subspaces. On the modeled DPU each streams its int8
  // codebook segment and the scale table MRAM->WRAM and dequantizes per
  // entry; those DMAs and instructions are charged exactly so. The host
  // reads the engine's pre-scaled mirror instead (the products do not
  // depend on the query), so a row is one load/sub/mul/add per dimension.
  ctx.mram_view(layout_.cb_scale_off, m * sizeof(float));
  const common::SimdLevel simd = common::simd_active_level();
  float local_max = 0.f;
  for (std::size_t s = ctx.id(); s < m; s += ctx.n_tasklets()) {
    ctx.mram_view(layout_.codebook_off + s * 256 * dsub, 256 * dsub);
    const float* pre = layout_.cb_prescaled.data() + s * dsub * 256;
    const float* res = scratch_.residual.data() + s * dsub;
    float* lut_out = scratch_.lut_f32.data() + s * 256;
    local_max = std::max(local_max, lut_row(simd, pre, res, dsub, lut_out));
    ctx.instr(256 * (dsub * kInstrLutPerDim + kInstrLutPerEntry));
  }
  scratch_.tasklet_max[ctx.id()] = local_max;
}

void QueryKernel::phase_lut_reduce(pim::TaskletCtx& ctx) {
  if (ctx.id() != 0) return;
  float mx = 0.f;
  for (float v : scratch_.tasklet_max) mx = std::max(mx, v);
  lut_scale_ = mx > 0.f ? mx / 65000.f : 1.f;
  ctx.instr(scratch_.tasklet_max.size() + 6);
}

namespace {

#if defined(__SSE2__)
// The 8-lane S2 body: the SSE2 loop's lane ops at twice the width. minps's
// NaN rule (return the second operand) and the ordered compare carry over
// unchanged, so every entry rounds exactly as the scalar reference does.
// Returns the first index it did not quantize.
__attribute__((target("avx2"))) std::size_t quantize_lut_avx2(
    const float* lut, std::size_t n, float inv, std::uint32_t* out) {
  const __m256 inv_v = _mm256_set1_ps(inv);
  const __m256 cap = _mm256_set1_ps(65535.f);
  const __m256 half = _mm256_set1_ps(0.5f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x =
        _mm256_min_ps(_mm256_mul_ps(_mm256_loadu_ps(lut + i), inv_v), cap);
    const __m256i t = _mm256_cvttps_epi32(_mm256_add_ps(x, half));
    const __m256 over = _mm256_cmp_ps(
        _mm256_sub_ps(_mm256_cvtepi32_ps(t), half), x, _CMP_GT_OQ);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi32(t, _mm256_castps_si256(over)));
  }
  return i;
}

// The 16-lane S2 body: the same lane ops, with the step-down as a masked
// subtract of one under the compare mask.
UPANNS_AVX512 std::size_t quantize_lut_avx512(const float* lut, std::size_t n,
                                              float inv, std::uint32_t* out) {
  const __m512 inv_v = _mm512_set1_ps(inv);
  const __m512 cap = _mm512_set1_ps(65535.f);
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512i one = _mm512_set1_epi32(1);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 x = _mm512_mask_min_ps(
        cap, kAll16, _mm512_mul_ps(_mm512_loadu_ps(lut + i), inv_v), cap);
    const __m512i t =
        _mm512_mask_cvttps_epi32(one, kAll16, _mm512_add_ps(x, half));
    const __mmask16 over = _mm512_cmp_ps_mask(
        _mm512_sub_ps(_mm512_mask_cvtepi32_ps(half, kAll16, t), half), x,
        _CMP_GT_OQ);
    _mm512_storeu_si512(out + i, _mm512_mask_sub_epi32(t, over, t, one));
  }
  return i;
}
#endif  // __SSE2__

}  // namespace

void quantize_lut(const float* lut, std::size_t n, float inv,
                  std::uint32_t* out) {
  std::size_t i = 0;
#if defined(__SSE2__)
  const common::SimdLevel simd = common::simd_active_level();
  if (simd >= common::SimdLevel::kAvx512) {
    i = quantize_lut_avx512(lut, n, inv, out);
  }
  if (simd >= common::SimdLevel::kAvx2) {
    i += quantize_lut_avx2(lut + i, n - i, inv, out + i);
  }
  if (simd != common::SimdLevel::kScalar) {
    // round_nonneg lane-wise: truncate x + 0.5, then step down by one where
    // float(t) - 0.5 > x (the compare mask is all-ones, i.e. -1). minps
    // returns its second operand on NaN, exactly like std::min(65535, x).
    const __m128 inv_v = _mm_set1_ps(inv);
    const __m128 cap = _mm_set1_ps(65535.f);
    const __m128 half = _mm_set1_ps(0.5f);
    for (; i + 4 <= n; i += 4) {
      const __m128 x =
          _mm_min_ps(_mm_mul_ps(_mm_loadu_ps(lut + i), inv_v), cap);
      const __m128i t = _mm_cvttps_epi32(_mm_add_ps(x, half));
      const __m128 over = _mm_cmpgt_ps(_mm_sub_ps(_mm_cvtepi32_ps(t), half), x);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                       _mm_add_epi32(t, _mm_castps_si128(over)));
    }
  }
#endif
  for (; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(
        common::round_nonneg(std::min(65535.f, lut[i] * inv)));
  }
}

void QueryKernel::phase_lut_quantize(pim::TaskletCtx& ctx) {
  // Compact f32 -> u16 in place on the modeled DPU (front-to-back is safe);
  // each tasklet takes a contiguous slice. The host writes the entries
  // straight into the widened token_table, its mirror of the u16 LUT, so
  // the charge is the DPU's u16 store either way.
  const std::size_t total = scratch_.lut_f32.size();
  const std::size_t per = (total + ctx.n_tasklets() - 1) / ctx.n_tasklets();
  const std::size_t lo = ctx.id() * per;
  const std::size_t hi = std::min(total, lo + per);
  if (hi <= lo) return;
  quantize_lut(scratch_.lut_f32.data() + lo, hi - lo, 1.f / lut_scale_,
               scratch_.token_table.data() + lo);
  ctx.instr((hi - lo) * kInstrQuantPerEntry);
}

void QueryKernel::phase_combo_sums(const Phase& p, pim::TaskletCtx& ctx) {
  const DpuClusterData& cl = cluster_of(p.item);
  const std::size_t n = cl.n_combos;
  const std::size_t per = (n + ctx.n_tasklets() - 1) / ctx.n_tasklets();
  const std::size_t lo = ctx.id() * per;
  const std::size_t hi = std::min(n, lo + per);
  if (lo >= hi) return;

  // Combo sums land right after the m*256 LUT entries, where the combo
  // tokens (m*256 + slot) address them.
  std::uint32_t* table = scratch_.token_table.data();
  std::uint32_t* sums = table + layout_.m * 256;
  const std::uint8_t* defs =
      ctx.mram_view(cl.combos_off + lo * 4, (hi - lo) * 4);
  for (std::size_t s = lo; s < hi; ++s) {
    const std::uint8_t* d = defs + (s - lo) * 4;
    const std::size_t pos = d[0];
    sums[s] = table[pos * 256 + d[1]] + table[(pos + 1) * 256 + d[2]] +
              table[(pos + 2) * 256 + d[3]];
  }
  ctx.instr((hi - lo) * kInstrComboPerSlot);
}

namespace {

#if defined(__SSE2__)
/// AVX2 raw-code scan: indices are pos*256 + code[pos] into the widened
/// token table, whose first m*256 entries mirror the u16 LUT exactly. u32
/// addition wraps mod 2^32 in any order, so the lane-parallel sum is
/// exactly the scalar loop's value.
__attribute__((target("avx2"))) std::uint32_t raw_sum_avx2(
    const std::uint32_t* table, const std::uint8_t* code, std::size_t m) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i lane_off =
      _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
  std::size_t pos = 0;
  for (; pos + 8 <= m; pos += 8) {
    const __m128i c8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(code + pos));
    const __m256i idx = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_cvtepu8_epi32(c8), lane_off),
        _mm256_set1_epi32(static_cast<int>(pos * 256)));
    acc = _mm256_add_epi32(acc, _mm256_i32gather_epi32(
                                    reinterpret_cast<const int*>(table), idx, 4));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
  std::uint32_t sum = static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
  for (; pos < m; ++pos) sum += table[pos * 256 + code[pos]];
  return sum;
}

/// The 16-token step of token_prefix: gather 16 table entries, scan them
/// in registers (four shifted adds, by 1, 2, 4 and 8 lanes), add the
/// running total and broadcast the new one. Masked lanes (the tail) load
/// and gather nothing and are not stored.
UPANNS_AVX512 void token_prefix_avx512(const std::uint32_t* table,
                                       const std::uint16_t* tokens,
                                       std::size_t n, std::uint32_t* prefix) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i lane15 = _mm512_set1_epi32(15);
  __m512i run = zero;
  for (std::size_t j = 0; j < n; j += 16) {
    const __mmask16 live =
        n - j >= 16 ? kAll16 : static_cast<__mmask16>((1u << (n - j)) - 1);
    const __m512i idx = _mm512_maskz_cvtepu16_epi32(
        kAll16, _mm256_maskz_loadu_epi16(live, tokens + j));
    __m512i v = _mm512_mask_i32gather_epi32(zero, live, idx, table, 4);
    v = _mm512_add_epi32(v, _mm512_maskz_alignr_epi32(kAll16, v, zero, 15));
    v = _mm512_add_epi32(v, _mm512_maskz_alignr_epi32(kAll16, v, zero, 14));
    v = _mm512_add_epi32(v, _mm512_maskz_alignr_epi32(kAll16, v, zero, 12));
    v = _mm512_add_epi32(v, _mm512_maskz_alignr_epi32(kAll16, v, zero, 8));
    v = _mm512_add_epi32(v, run);
    _mm512_mask_storeu_epi32(prefix + j + 1, live, v);
    run = _mm512_maskz_permutexvar_epi32(kAll16, lane15, v);
  }
}
#endif  // __SSE2__

}  // namespace

void token_prefix(common::SimdLevel simd, const std::uint32_t* table,
                  const std::uint16_t* tokens, std::size_t n,
                  std::uint32_t* prefix) {
  prefix[0] = 0;
#if defined(__SSE2__)
  if (simd >= common::SimdLevel::kAvx512) {
    return token_prefix_avx512(table, tokens, n, prefix);
  }
#endif
  (void)simd;
  std::uint32_t run = 0;
  for (std::size_t j = 0; j < n; ++j) {
    run += table[tokens[j]];
    prefix[j + 1] = run;
  }
}

void QueryKernel::phase_distance(const Phase& p, pim::TaskletCtx& ctx) {
  const DpuClusterData& cl = cluster_of(p.item);
  const std::size_t m = layout_.m;
  const std::size_t k = input_->k;
  const bool raw = mode_ == KernelMode::kNaiveRaw;
  const std::size_t elem_size = raw ? 1 : 2;
  const std::size_t read_bytes = input_->mram_read_bytes > 0
                                     ? pim::DpuCostModel::legalize_transfer(
                                           input_->mram_read_bytes)
                                     : hw::kMramMaxTransfer;
  const std::uint64_t push_cost = heap_push_cost(k);
  common::TopK& top = local_topk_[ctx.id()];
  // Tombstone masking is hoisted per cluster: fully live clusters (the
  // read-only serving case) take the exact pre-mutability path — no extra
  // branch, no extra instruction charge.
  const bool masked = cl.n_tombstones != 0;

  // Mode-correct chunk working set: raw mode streams m u8 codes per record;
  // token mode adds the u16 length prefix. This is the per-tasklet WRAM
  // buffer the cost model charges — it must agree with setup()'s budget.
  [[maybe_unused]] const std::size_t chunk_capacity_bytes =
      kChunkRecords * (m + (raw ? 0 : 1)) * elem_size;
  assert((chunk_capacity_bytes + kChunkRecords * sizeof(std::uint32_t) + 7) /
             8 * 8 ==
         per_tasklet_buf_bytes_);

  const std::uint32_t* chunk_index = nullptr;
  if (!raw && cl.n_chunks > 0) {
    // Chunk-index accounting: each tasklet is charged one DMA for the slice
    // of offsets it owns — there is no separate tasklet-0 staging pass (the
    // seed double-charged here: a 4-instruction stage on tasklet 0 *and* the
    // per-tasklet slice DMA). The borrowed view spans the whole table
    // because strided chunk starts read beyond the slice functionally.
    // test_hot_path.cpp pins the charged dma_cycles. See DESIGN.md §9.
    const std::size_t own =
        (cl.n_chunks + ctx.n_tasklets() - 1) / ctx.n_tasklets();
    const std::size_t own_bytes =
        std::min<std::size_t>(own * sizeof(std::uint32_t),
                              cl.n_chunks * sizeof(std::uint32_t));
    chunk_index = reinterpret_cast<const std::uint32_t*>(
        ctx.mram_view(cl.chunk_index_off, own_bytes));
  }

  // Hoisted table pointers: ctx.instr / top-k pushes store through other
  // members, so without locals the compiler must conservatively reload the
  // vector data pointers on every token.
  const std::uint32_t* token_table = scratch_.token_table.data();
  std::uint32_t* prefix = scratch_.prefix.data();
  const float dist_scale = lut_scale_;
  const common::SimdLevel simd = common::simd_active_level();

  std::uint64_t scanned_elems = 0;
  std::uint64_t scanned_recs = 0;
  for (std::uint32_t ci = ctx.id(); ci * kChunkRecords < cl.n_records;
       ci += ctx.n_tasklets()) {
    const std::size_t rec_lo = static_cast<std::size_t>(ci) * kChunkRecords;
    const std::size_t rec_hi =
        std::min<std::size_t>(cl.n_records, rec_lo + kChunkRecords);
    const std::size_t n_rec = rec_hi - rec_lo;

    // Ids for this chunk: one DMA, borrowed in place.
    const std::uint32_t* ids = reinterpret_cast<const std::uint32_t*>(
        ctx.mram_view(cl.ids_off + rec_lo * sizeof(std::uint32_t),
                      n_rec * sizeof(std::uint32_t)));

    // Stream span of this chunk.
    std::size_t elem_lo, elem_hi;
    if (raw) {
      elem_lo = rec_lo * m;
      elem_hi = rec_hi * m;
    } else {
      elem_lo = chunk_index[ci];
      elem_hi = (static_cast<std::size_t>(ci) + 1 < cl.n_chunks)
                    ? chunk_index[ci + 1]
                    : cl.stream_len;
    }
    const std::size_t n_elems = elem_hi - elem_lo;
    const std::size_t span_bytes = n_elems * elem_size;
    assert(span_bytes <= chunk_capacity_bytes);
    // View the span at the configured read granularity (fig 17's knob):
    // smaller reads => more DMA setups => higher latency. The pieces are
    // contiguous in MRAM, so the first view covers the whole span.
    const std::uint8_t* chunk_stream = nullptr;
    {
      std::size_t done = 0;
      while (done < span_bytes) {
        const std::size_t piece = std::min(read_bytes, span_bytes - done);
        const std::uint8_t* piece_view =
            ctx.mram_view(cl.stream_off + elem_lo * elem_size + done, piece);
        if (done == 0) chunk_stream = piece_view;
        done += piece;
      }
    }

    // Scan records, offering each to the tasklet's top-k in record order;
    // the key computation runs inside TopK::push_each's loop. Instruction
    // charges accumulate in locals and are flushed once per chunk — the
    // charge is an additive sum, so the phase totals are identical to the
    // per-record flushes of the original loop.
    // Tombstoned slots still stream (their tokens are in the chunk) but
    // never enter a heap: on hardware this is a compare-and-select on the
    // id, charged once per record only when the cluster has tombstones.
    // The offer callbacks capture by value and keep the cursor inside: a
    // callback that referenced this frame's locals would make them escape
    // into the out-of-line avx512 loop, and the push() loop of the other
    // levels would then store and reload the cursor around every insert.
    const auto offer = [=](std::size_t r, std::uint32_t acc,
                           std::uint64_t& key) {
      const std::uint32_t id = ids[r];
      key = common::TopK::pack(static_cast<float>(acc) * dist_scale, id);
      return !masked || id != kTombstoneId;
    };
    std::uint64_t chunk_pushes = 0;
    std::size_t chunk_elems = 0;
    if (raw) {
      chunk_pushes = top.push_each(simd, n_rec, [=](std::size_t r,
                                                    std::uint64_t& key) {
        const std::uint8_t* code = chunk_stream + r * m;
        std::uint32_t acc = 0;
#if defined(__SSE2__)
        if (simd >= common::SimdLevel::kAvx2) {
          acc = raw_sum_avx2(token_table, code, m);
        } else
#endif
        {
          for (std::size_t pos = 0; pos < m; ++pos) {
            acc += token_table[pos * 256 + code[pos]];
          }
        }
        return offer(r, acc, key);
      });
      chunk_elems = n_rec * m;
    } else {
      // One running u32 prefix of token_table over the whole span, length
      // prefixes included; a record's distance is the prefix difference
      // across its tokens. u32 sums wrap mod 2^32, so the difference is
      // exactly the per-record sum. One unconditional load per token: base
      // and combo tokens land in adjacent halves of token_table, exactly
      // like the direct WRAM addresses they model — no range branch.
      const std::uint16_t* tokens =
          reinterpret_cast<const std::uint16_t*>(chunk_stream);
      token_prefix(simd, token_table, tokens, n_elems, prefix);
      chunk_pushes = top.push_each(
          simd, n_rec,
          [=, cursor = std::size_t{0}](std::size_t r,
                                       std::uint64_t& key) mutable {
            const std::size_t first = cursor + 1;
            cursor = first + tokens[cursor];
            assert(r + 1 < n_rec || cursor == n_elems);
            return offer(r, prefix[cursor] - prefix[first], key);
          });
      chunk_elems = n_elems - n_rec;  // tokens scanned, length prefixes aside
    }
    ctx.instr(chunk_elems * (raw ? kInstrRawScan : kInstrTokenScan) +
              n_rec * (kInstrRecordOverhead +
                       (masked ? kInstrTombstoneMask : 0)) +
              chunk_pushes * push_cost);
    scanned_elems += chunk_elems;
    scanned_recs += n_rec;
  }
  // Shared counters: tasklets run sequentially in the simulator, so plain
  // accumulation is deterministic.
  scanned_elements_ += scanned_elems;
  scanned_records_ += scanned_recs;
}

void QueryKernel::phase_merge(const Phase& p, pim::TaskletCtx& ctx) {
  const std::size_t k = input_->k;
  const std::uint64_t push_cost = heap_push_cost(k);

  // The modelled tasklet converts its max-heap to ascending (min-first)
  // order — the paper's min-heap trick that enables pruning — then feeds
  // the DPU heap under the semaphore. The host buffer is already ascending
  // and is read in place; the conversion is still charged.
  const std::span<const std::uint64_t> local = local_topk_[ctx.id()].keys();
  const std::size_t n = local.size();
  if (n > 1) {
    std::uint64_t lg = 1;
    while ((1ull << lg) < n) ++lg;
    ctx.instr(2 * n * lg);  // heapsort into min order
  }
  // Without pruning (PIM-naive), every local element enters the critical
  // section with full insert-call overhead — sem_take, call, root compare,
  // sem_give — whether or not it survives. The pruned path checks the
  // threshold first (2 ops) and, thanks to the min-first order, abandons the
  // whole remainder of the heap at the first failure; this is the "68% of
  // redundant comparisons" Opt4 skips.
  constexpr std::uint64_t kNaiveInsertOverhead = 8;
  for (std::size_t i = 0; i < n; ++i) {
    if (prune_topk_) {
      ctx.critical_instr(2);  // sem_take + threshold compare
      if (global_topk_.full() && !(local[i] < global_topk_.worst())) {
        // `local` is ascending in the same key order the DPU buffer rejects
        // by, so everything after the first failing entry prunes wholesale.
        merge_pruned_ += n - i;
        break;
      }
    } else {
      ctx.critical_instr(kNaiveInsertOverhead);
    }
    if (global_topk_.push(local[i])) {
      ctx.critical_instr(push_cost);
    }
    ++merge_insertions_;
  }

  // The last tasklet (runs last in the simulator's deterministic order)
  // flushes the aggregated top-k to MRAM for the host to gather.
  if (ctx.id() + 1 == ctx.n_tasklets()) {
    KernelScratch::assign(scratch_.packed, 2 * k, 0xFFFFFFFFu);
    const std::span<const std::uint64_t> top = global_topk_.keys();
    for (std::size_t i = 0; i < top.size(); ++i) {
      const common::Neighbor nb = common::TopK::unpack(top[i]);
      std::memcpy(&scratch_.packed[2 * i], &nb.dist, sizeof(nb.dist));
      scratch_.packed[2 * i + 1] = nb.id;
    }
    const std::size_t slot =
        input_->results_off +
        static_cast<std::size_t>(input_->items[p.item].query_local) * k * 8;
    ctx.mram_write(slot, scratch_.packed.data(),
                   scratch_.packed.size() * sizeof(std::uint32_t));
    ctx.instr(2 * k);
    global_topk_.clear();
    for (auto& t : local_topk_) t.clear();
  }
}

KernelStageCycles QueryKernel::attribute_stages(
    const std::vector<std::uint64_t>& phase_cycles) const {
  KernelStageCycles out;
  assert(phase_cycles.size() == program_.size());
  for (std::size_t i = 0; i < program_.size(); ++i) {
    switch (program_[i].step) {
      case Step::kLutBuild:
      case Step::kLutReduce:
      case Step::kLutQuantize:
      case Step::kComboSums:
        out.lut_build += phase_cycles[i];
        break;
      case Step::kDistance:
        out.distance += phase_cycles[i];
        break;
      case Step::kMerge:
        out.topk += phase_cycles[i];
        break;
    }
  }
  return out;
}

}  // namespace upanns::core
