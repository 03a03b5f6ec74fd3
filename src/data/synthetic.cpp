#include "data/dataset.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace upanns::data {

const char* family_name(DatasetFamily f) {
  switch (f) {
    case DatasetFamily::kSiftLike: return "SIFT1B-like";
    case DatasetFamily::kDeepLike: return "DEEP1B-like";
    case DatasetFamily::kSpacevLike: return "SPACEV1B-like";
  }
  return "?";
}

std::size_t family_dim(DatasetFamily f) {
  switch (f) {
    case DatasetFamily::kSiftLike: return 128;
    case DatasetFamily::kDeepLike: return 96;
    case DatasetFamily::kSpacevLike: return 100;
  }
  return 0;
}

std::size_t family_pq_m(DatasetFamily f) {
  switch (f) {
    case DatasetFamily::kSiftLike: return 16;   // 128d -> 16 codes
    case DatasetFamily::kDeepLike: return 12;   // 96d  -> 12 codes
    case DatasetFamily::kSpacevLike: return 20; // 100d -> 20 codes
  }
  return 0;
}

double family_size_sigma(DatasetFamily f) {
  switch (f) {
    case DatasetFamily::kSiftLike: return 1.3;
    case DatasetFamily::kDeepLike: return 2.3;
    case DatasetFamily::kSpacevLike: return 1.8;
  }
  return 1.6;
}

double family_dense_core_frac(DatasetFamily f) {
  // Only DEEP1B-like data carries the near-duplicate clump (see
  // SyntheticSpec::dense_core_frac).
  return f == DatasetFamily::kDeepLike ? 0.04 : 0.0;
}

namespace {

// Value post-processing so the three families have distinct distributions:
// SIFT descriptors are non-negative byte-ish magnitudes, DEEP vectors are
// L2-normalized floats, SPACEV entries are small signed integers.
void family_postprocess(DatasetFamily family, float* vec, std::size_t dim) {
  switch (family) {
    case DatasetFamily::kSiftLike:
      // SIFT descriptors are byte-valued magnitudes.
      for (std::size_t d = 0; d < dim; ++d) {
        vec[d] = std::round(std::clamp(vec[d], 0.f, 255.f));
      }
      break;
    case DatasetFamily::kDeepLike: {
      double norm = 0;
      for (std::size_t d = 0; d < dim; ++d) norm += vec[d] * vec[d];
      const float inv = norm > 0 ? static_cast<float>(1.0 / std::sqrt(norm)) : 0.f;
      for (std::size_t d = 0; d < dim; ++d) vec[d] *= inv;
      break;
    }
    case DatasetFamily::kSpacevLike:
      for (std::size_t d = 0; d < dim; ++d) {
        vec[d] = std::round(std::clamp(vec[d], -127.f, 127.f));
      }
      break;
  }
}

// Base scale of centroids / residuals per family (pre-postprocessing).
struct FamilyScales {
  float centroid_lo, centroid_hi, residual_sigma;
};

FamilyScales family_scales(DatasetFamily family) {
  switch (family) {
    case DatasetFamily::kSiftLike: return {20.f, 200.f, 18.f};
    case DatasetFamily::kDeepLike: return {-1.f, 1.f, 0.25f};
    case DatasetFamily::kSpacevLike: return {-80.f, 80.f, 14.f};
  }
  return {0.f, 1.f, 1.f};
}

/// Everything one generated row reads besides its rng.
struct RowInputs {
  const SyntheticSpec& spec;
  std::size_t dim, n_groups, group_dims;
  FamilyScales scales;
  const float* centroids;
  const float* core_center;
  const float* pools;
  const common::ZipfSampler& pattern_picker;
};

/// Emit one row of the dense core into `out`.
void emit_core_row(const RowInputs& in, common::Rng& rng, float* out) {
  for (std::size_t d = 0; d < in.dim; ++d) {
    out[d] = in.core_center[d] + static_cast<float>(rng.gaussian(
                                     0.0, in.scales.residual_sigma * 1e-3));
  }
  family_postprocess(in.spec.family, out, in.dim);
}

/// Emit one row of natural cluster c into `out`.
void emit_cluster_row(const RowInputs& in, std::size_t c, common::Rng& rng,
                      float* out) {
  const std::size_t dim = in.dim;
  const float* ctr = in.centroids + c * dim;
  // Start from fresh Gaussian noise everywhere...
  for (std::size_t d = 0; d < dim; ++d) {
    out[d] = ctr[d] +
             static_cast<float>(rng.gaussian(0.0, in.scales.residual_sigma));
  }
  // ...then overwrite pattern groups from the shared pool with small
  // jitter. The jitter must stay well below the PQ cell size so the
  // group still encodes to the same code triplet.
  const std::size_t gd = in.group_dims;
  for (std::size_t g = 0; g < in.n_groups; ++g) {
    if (rng.uniform() >= in.spec.pattern_prob) continue;
    const std::size_t p = in.pattern_picker.sample(rng);
    const float* pat =
        in.pools + ((c * in.n_groups + g) * in.spec.pattern_pool + p) * gd;
    for (std::size_t d = 0; d < gd; ++d) {
      out[g * gd + d] = ctr[g * gd + d] + pat[d] +
                        static_cast<float>(rng.gaussian(
                            0.0, in.scales.residual_sigma * 0.02));
    }
  }
  family_postprocess(in.spec.family, out, dim);
}

/// The draws of one emitted row alone: the same raw steps, with no libm
/// and no output. It must stay in step with the two emitters; the
/// serial-reference tests in tests/test_dataset.cpp fail when it does not.
void replay_row(const RowInputs& in, bool core, common::RngReplay& rng) {
  for (std::size_t d = 0; d < in.dim; ++d) rng.gaussian();
  if (core) return;
  for (std::size_t g = 0; g < in.n_groups; ++g) {
    if (rng.uniform() >= in.spec.pattern_prob) continue;
    rng();  // ZipfSampler::sample: one uniform
    for (std::size_t d = 0; d < in.group_dims; ++d) rng.gaussian();
  }
}

}  // namespace

Dataset generate_synthetic(const SyntheticSpec& spec) {
  const std::size_t dim = spec.dim();
  const std::size_t m = spec.pq_m();
  if (dim == 0 || spec.n == 0) throw std::invalid_argument("empty spec");
  const std::size_t dsub = dim / m;
  common::Rng rng(spec.seed);
  const FamilyScales scales = family_scales(spec.family);

  // 1. Natural cluster centroids.
  const std::size_t nc = std::min(spec.n_natural_clusters, spec.n);
  std::vector<float> centroids(nc * dim);
  for (auto& v : centroids) {
    v = rng.uniform(scales.centroid_lo, scales.centroid_hi);
  }

  // 2. Log-normal cluster sizes, normalized to sum to n (Fig 4b skew).
  common::LogNormalSampler sizer(0.0, spec.size_sigma);
  std::vector<double> weights(nc);
  double total = 0;
  for (auto& w : weights) {
    w = sizer.sample(rng);
    total += w;
  }
  std::vector<std::size_t> sizes(nc);
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < nc; ++c) {
    sizes[c] = static_cast<std::size_t>(weights[c] / total * spec.n);
    assigned += sizes[c];
  }
  // Hand out the rounding remainder one point each, in cluster index order.
  for (std::size_t c = 0; assigned < spec.n; c = (c + 1) % nc) {
    ++sizes[c];
    ++assigned;
  }

  // 3. Per-cluster residual pattern pools over 3-subspace groups. A "group"
  //    covers 3 consecutive PQ subspaces (3 * dsub dims) so that pool reuse
  //    shows up as position-aligned code triplets after PQ encoding.
  const std::size_t group_dims = 3 * dsub;
  const std::size_t n_groups = dim / group_dims;  // remainder handled as noise
  std::vector<float> pools(nc * n_groups * spec.pattern_pool * group_dims);
  for (auto& v : pools) {
    v = static_cast<float>(rng.gaussian(0.0, scales.residual_sigma));
  }
  common::ZipfSampler pattern_picker(spec.pattern_pool, kPatternZipf);

  // Dense near-duplicate core (see SyntheticSpec::dense_core_frac): one
  // clump whose internal spread is negligible, so k-means cannot profitably
  // split it and it stays one oversized inverted list. Its rows come first;
  // the regular clusters shrink to keep the total at n.
  const std::size_t core_points =
      static_cast<std::size_t>(spec.dense_core_frac * static_cast<double>(spec.n));
  std::vector<float> core_center;
  if (core_points > 0) {
    core_center.resize(dim);
    for (auto& v : core_center) {
      v = rng.uniform(scales.centroid_lo, scales.centroid_hi);
    }
    std::size_t to_remove = core_points;
    for (std::size_t c = 0; to_remove > 0; c = (c + 1) % nc) {
      if (sizes[c] > 0) {
        --sizes[c];
        --to_remove;
      }
    }
  }
  // Rows [0, core_points) are the core; cluster c's rows end at ends[c].
  std::vector<std::size_t> ends(nc);
  std::size_t end = core_points;
  for (std::size_t c = 0; c < nc; ++c) ends[c] = end += sizes[c];
  assert(end == spec.n);

  const RowInputs in{spec,
                     dim,
                     n_groups,
                     group_dims,
                     scales,
                     centroids.data(),
                     core_center.data(),
                     pools.data(),
                     pattern_picker};

  // 4. Points are emitted core first, then cluster by cluster, and their ids
  //    shuffled so storage order carries no cluster information. Pass 1
  //    replays every row's draws serially without libm (a few percent of
  //    the cost) and checkpoints the stream at each block of rows; pass 2
  //    regenerates the blocks from their checkpoints on the pool, writing
  //    each row straight into its shuffled slot. Every value is the serial
  //    loop's, at any pool size.
  const std::size_t n_blocks =
      (spec.n + kSyntheticBlockRows - 1) / kSyntheticBlockRows;
  std::vector<common::RngState> checkpoints(n_blocks);
  common::RngReplay replay(rng.state());
  for (std::size_t row = 0; row < spec.n; ++row) {
    if (row % kSyntheticBlockRows == 0) {
      checkpoints[row / kSyntheticBlockRows] = replay.state();
    }
    replay_row(in, row < core_points, replay);
  }

  std::vector<std::uint32_t> slot;  // output row of generated row r
  if (spec.shuffle) {
    common::Rng tail(replay.state());
    const auto perm = common::random_permutation(spec.n, tail);
    slot.resize(spec.n);
    for (std::size_t i = 0; i < spec.n; ++i) {
      slot[perm[i]] = static_cast<std::uint32_t>(i);
    }
  }

  Dataset ds;
  ds.dim = dim;
  ds.n = spec.n;
  ds.values.resize(spec.n * dim);
  common::ThreadPool::global().parallel_for(
      0, n_blocks,
      [&](std::size_t b) {
        common::Rng block_rng(checkpoints[b]);
        const std::size_t lo = b * kSyntheticBlockRows;
        const std::size_t hi = std::min(spec.n, lo + kSyntheticBlockRows);
        std::size_t c = static_cast<std::size_t>(
            std::upper_bound(ends.begin(), ends.end(), lo) - ends.begin());
        for (std::size_t row = lo; row < hi; ++row) {
          float* out = ds.row(spec.shuffle ? slot[row] : row);
          if (row < core_points) {
            emit_core_row(in, block_rng, out);
            continue;
          }
          while (row >= ends[c]) ++c;
          emit_cluster_row(in, c, block_rng, out);
        }
      },
      1);
  return ds;
}

namespace {
SyntheticSpec family_spec(DatasetFamily f, std::size_t n, std::uint64_t seed) {
  SyntheticSpec s;
  s.family = f;
  s.n = n;
  s.seed = seed;
  s.size_sigma = family_size_sigma(f);
  s.dense_core_frac = family_dense_core_frac(f);
  return s;
}
}  // namespace

SyntheticSpec sift1b_like(std::size_t n, std::uint64_t seed) {
  return family_spec(DatasetFamily::kSiftLike, n, seed);
}

SyntheticSpec deep1b_like(std::size_t n, std::uint64_t seed) {
  return family_spec(DatasetFamily::kDeepLike, n, seed);
}

SyntheticSpec spacev1b_like(std::size_t n, std::uint64_t seed) {
  return family_spec(DatasetFamily::kSpacevLike, n, seed);
}

}  // namespace upanns::data
