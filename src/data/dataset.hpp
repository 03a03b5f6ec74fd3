// In-memory dataset representation plus the synthetic generator specs that
// stand in for SIFT1B / DEEP1B / SPACEV1B (see DESIGN.md section 1).
// The generators reproduce the three statistical properties the paper's
// mechanisms depend on:
//   1. log-normal cluster-size skew      (Fig 4b: ~10^6x spread),
//   2. Zipfian query access frequencies  (Fig 4a: ~500x spread),
//   3. correlated subvector patterns     (Sec 4.3: frequent code triplets,
//      e.g. (1,15,26) in 5.7% of SIFT1B vectors).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace upanns::data {

/// A row-major collection of float vectors.
struct Dataset {
  std::size_t dim = 0;
  std::size_t n = 0;
  std::vector<float> values;  ///< n x dim

  const float* row(std::size_t i) const { return values.data() + i * dim; }
  float* row(std::size_t i) { return values.data() + i * dim; }
  std::span<const float> span() const { return values; }
  bool empty() const { return n == 0; }
};

/// Which billion-scale benchmark a synthetic set mimics. Controls dimension,
/// value distribution and the default PQ code count (paper Sec 5.1: DEEP1B
/// 96d/M=12, SIFT1B 128d/M=16, SPACEV1B 100d/M=20).
enum class DatasetFamily { kSiftLike, kDeepLike, kSpacevLike };

const char* family_name(DatasetFamily f);
std::size_t family_dim(DatasetFamily f);
std::size_t family_pq_m(DatasetFamily f);
/// Log-normal sigma of the cluster-size distribution. DEEP1B exhibits the
/// strongest inverted-list imbalance (this is what drives the paper's
/// Faiss-GPU out-of-memory marks in Fig 12); SIFT1B is the mildest.
double family_size_sigma(DatasetFamily f);
/// Near-duplicate clump fraction per family (DEEP1B-like only).
double family_dense_core_frac(DatasetFamily f);

/// Zipf exponent of pattern selection inside a SyntheticSpec pattern pool.
constexpr double kPatternZipf = 1.1;

struct SyntheticSpec {
  DatasetFamily family = DatasetFamily::kSiftLike;
  std::size_t n = 100'000;
  /// Number of natural (generative) clusters; inverted-list skew follows from
  /// their log-normal size distribution.
  std::size_t n_natural_clusters = 256;
  /// Sigma of the log-normal cluster-size distribution (Fig 4b skew).
  double size_sigma = 1.6;
  /// Probability that a 3-subspace group of a residual is drawn from the
  /// cluster's shared pattern pool instead of fresh noise. Drives the code
  /// co-occurrence rate that Opt3 (CAE) exploits.
  double pattern_prob = 0.55;
  /// Patterns per cluster pool; fewer patterns -> stronger co-occurrence.
  std::size_t pattern_pool = 12;
  /// Fraction of points emitted as a single ultra-dense clump of
  /// near-duplicates. CNN-descriptor datasets like DEEP1B contain large
  /// near-duplicate groups; a dense clump survives IVF re-clustering as one
  /// oversized inverted list (the max-cluster skew behind the paper's
  /// Faiss-GPU OOM marks, Fig 12).
  double dense_core_frac = 0.0;
  /// Shuffle storage order so it carries no cluster information (the
  /// realistic default). False keeps points cluster-contiguous, which makes
  /// the region-based workload generator's popularity ranking — and its
  /// popularity_shift drift — line up with natural clusters; the CLI's
  /// drifting-workload demo (`gen --cluster-order`) relies on this.
  bool shuffle = true;
  std::uint64_t seed = 7;

  std::size_t dim() const { return family_dim(family); }
  std::size_t pq_m() const { return family_pq_m(family); }
};

/// Rows per checkpoint of generate_synthetic's serial replay pass; the
/// blocks are regenerated in parallel (DESIGN.md §13).
inline constexpr std::size_t kSyntheticBlockRows = 256;

/// Generate a synthetic dataset matching the spec. Deterministic in seed,
/// and the same at every pool size.
Dataset generate_synthetic(const SyntheticSpec& spec);

/// Convenience presets mirroring the paper's three benchmarks at reduced n.
SyntheticSpec sift1b_like(std::size_t n, std::uint64_t seed = 7);
SyntheticSpec deep1b_like(std::size_t n, std::uint64_t seed = 7);
SyntheticSpec spacev1b_like(std::size_t n, std::uint64_t seed = 7);

}  // namespace upanns::data
