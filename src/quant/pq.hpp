// Product Quantizer (Jégou et al., TPAMI 2011) — the PQ half of IVFPQ.
// Splits a D-dim vector into M subvectors of D/M dims, trains a 256-entry
// codebook per subspace, and encodes each subvector as a uint8 index.
// Queries compute an Asymmetric Distance Computation (ADC) lookup table of
// M x 256 partial squared distances; candidate distances are then M table
// additions. The PIM path stores the LUT quantized to uint16 (8 KB for M=16)
// exactly as the paper's WRAM budget assumes (Sec 4.2.1).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "quant/kmeans.hpp"

namespace upanns::quant {

inline constexpr std::size_t kPqKsub = 256;  ///< codes per sub-quantizer (uint8)

struct PqOptions {
  std::size_t m = 16;                ///< number of subspaces / code bytes
  std::size_t train_iters = 12;
  std::uint64_t seed = 123;
  std::size_t max_training_points = 65536;
  /// Fan the m independent subspace trainings out across the pool. The
  /// inner kmeans then runs serial, since the fan-out already fills the
  /// pool; output is identical either way because reductions use fixed
  /// chunks (DESIGN.md §13).
  bool use_threads = true;
  /// Pool to run on (nullptr = ThreadPool::global()).
  common::ThreadPool* pool = nullptr;
};

/// A LUT quantized to uint16, as held in DPU WRAM. `scale` maps a float
/// partial distance d to round(d / scale); the approximate float distance of
/// a code sequence is scale * sum(entries).
struct QuantizedLut {
  std::vector<std::uint16_t> table;  ///< m x 256
  float scale = 1.f;
  std::size_t m = 0;
};

class ProductQuantizer {
 public:
  ProductQuantizer() = default;

  /// Train codebooks on `n` training vectors (row-major, n x dim).
  /// dim must be divisible by opts.m.
  void train(std::span<const float> data, std::size_t n, std::size_t dim,
             const PqOptions& opts);

  bool trained() const { return dim_ != 0; }
  std::size_t dim() const { return dim_; }
  std::size_t m() const { return m_; }
  std::size_t dsub() const { return dsub_; }

  /// Codebooks, concatenated: m x 256 x dsub floats.
  std::span<const float> codebooks() const { return codebooks_; }

  /// Encode one vector into m uint8 codes.
  void encode(const float* vec, std::uint8_t* codes) const;

  /// Encode n vectors (row-major) into out (n x m codes), fanned out over
  /// `pool` (nullptr: serially). The codes equal encode()'s.
  void encode_batch(std::span<const float> data, std::size_t n,
                    std::uint8_t* out,
                    common::ThreadPool* pool = nullptr) const;

  /// Reconstruct an approximate vector from codes.
  void decode(const std::uint8_t* codes, float* out) const;

  /// Build the float ADC lookup table (m x 256) for a query vector:
  /// lut[sub*256 + c] = || query_sub - codebook[sub][c] ||^2.
  void compute_lut(const float* query, float* lut) const;

  /// Quantize a float LUT into uint16 entries, choosing the scale so the
  /// worst-case whole-vector sum (m * max_entry) stays within uint32 range
  /// while individual entries fit uint16.
  QuantizedLut quantize_lut(std::span<const float> lut) const;

  /// ADC distance of a code sequence under a float LUT.
  float adc_distance(const float* lut, const std::uint8_t* codes) const;

  /// ADC distance under a quantized LUT (integer accumulation, as on DPU).
  std::uint32_t adc_distance_q(const QuantizedLut& lut,
                               const std::uint8_t* codes) const;

  /// Binary (de)serialization; throws std::runtime_error on malformed input.
  void save(std::ostream& os) const;
  static ProductQuantizer load_from(std::istream& is);

 private:
  /// Rebuild the block-major codebook mirror (transpose_centroids per
  /// subspace) the blocked encode / LUT kernels scan. Called after train()
  /// and load_from().
  void rebuild_transposed();

  std::size_t dim_ = 0;
  std::size_t m_ = 0;
  std::size_t dsub_ = 0;
  std::vector<float> codebooks_;   // m x 256 x dsub
  BlockMajor tcodebooks_;  // m x 256 x dsub, block-major per subspace
};

}  // namespace upanns::quant
