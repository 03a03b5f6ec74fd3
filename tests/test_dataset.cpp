#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <string>

#include "common/rng.hpp"

namespace upanns::data {
namespace {

TEST(Family, DimsMatchPaper) {
  EXPECT_EQ(family_dim(DatasetFamily::kSiftLike), 128u);
  EXPECT_EQ(family_dim(DatasetFamily::kDeepLike), 96u);
  EXPECT_EQ(family_dim(DatasetFamily::kSpacevLike), 100u);
}

TEST(Family, PqMMatchPaper) {
  // Paper Sec 5.1: DEEP1B -> 12 codes, SIFT1B -> 16, SPACEV1B -> 20.
  EXPECT_EQ(family_pq_m(DatasetFamily::kSiftLike), 16u);
  EXPECT_EQ(family_pq_m(DatasetFamily::kDeepLike), 12u);
  EXPECT_EQ(family_pq_m(DatasetFamily::kSpacevLike), 20u);
}

TEST(Family, DimDivisibleByM) {
  for (auto f : {DatasetFamily::kSiftLike, DatasetFamily::kDeepLike,
                 DatasetFamily::kSpacevLike}) {
    EXPECT_EQ(family_dim(f) % family_pq_m(f), 0u) << family_name(f);
  }
}

TEST(Synthetic, ShapeMatchesSpec) {
  const auto ds = generate_synthetic(sift1b_like(5000));
  EXPECT_EQ(ds.n, 5000u);
  EXPECT_EQ(ds.dim, 128u);
  EXPECT_EQ(ds.values.size(), 5000u * 128);
}

TEST(Synthetic, DeterministicUnderSeed) {
  const auto a = generate_synthetic(deep1b_like(2000, 42));
  const auto b = generate_synthetic(deep1b_like(2000, 42));
  EXPECT_EQ(a.values, b.values);
}

TEST(Synthetic, DifferentSeedsDiffer) {
  const auto a = generate_synthetic(deep1b_like(1000, 1));
  const auto b = generate_synthetic(deep1b_like(1000, 2));
  EXPECT_NE(a.values, b.values);
}

TEST(Synthetic, SiftValuesInByteRange) {
  const auto ds = generate_synthetic(sift1b_like(3000));
  for (float v : ds.values) {
    EXPECT_GE(v, 0.f);
    EXPECT_LE(v, 255.f);
  }
}

TEST(Synthetic, DeepVectorsUnitNorm) {
  const auto ds = generate_synthetic(deep1b_like(500));
  for (std::size_t i = 0; i < ds.n; ++i) {
    double norm = 0;
    const float* row = ds.row(i);
    for (std::size_t d = 0; d < ds.dim; ++d) norm += row[d] * row[d];
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4);
  }
}

TEST(Synthetic, SpacevValuesSignedSmall) {
  const auto ds = generate_synthetic(spacev1b_like(2000));
  bool has_negative = false;
  for (float v : ds.values) {
    EXPECT_GE(v, -127.f);
    EXPECT_LE(v, 127.f);
    EXPECT_EQ(v, std::round(v));  // integer-valued
    has_negative = has_negative || v < 0;
  }
  EXPECT_TRUE(has_negative);
}

TEST(Synthetic, SizeSigmaPerFamily) {
  // DEEP1B-like carries the strongest skew (drives the Fig 12 OOM marks).
  EXPECT_GT(family_size_sigma(DatasetFamily::kDeepLike),
            family_size_sigma(DatasetFamily::kSpacevLike));
  EXPECT_GT(family_size_sigma(DatasetFamily::kSpacevLike),
            family_size_sigma(DatasetFamily::kSiftLike));
}

TEST(Synthetic, ThrowsOnEmptySpec) {
  SyntheticSpec spec;
  spec.n = 0;
  EXPECT_THROW(generate_synthetic(spec), std::invalid_argument);
}

TEST(Synthetic, PatternsCreateDuplicateSubvectorGroups) {
  // With pattern_prob near 1 and a tiny pool, many points must share their
  // first 3-subspace group almost exactly — the raw material for CAE.
  SyntheticSpec spec = sift1b_like(2000, 5);
  spec.n_natural_clusters = 4;
  spec.pattern_prob = 0.95;
  spec.pattern_pool = 2;
  const auto ds = generate_synthetic(spec);

  // Count near-duplicate group prefixes (first 24 dims for SIFT m=16).
  const std::size_t group_dims = 3 * (ds.dim / 16);
  std::size_t near_dups = 0;
  const std::size_t probe = 200;
  for (std::size_t i = 0; i < probe; ++i) {
    for (std::size_t j = i + 1; j < probe; ++j) {
      double d = 0;
      for (std::size_t g = 0; g < group_dims; ++g) {
        const double diff = ds.row(i)[g] - ds.row(j)[g];
        d += diff * diff;
      }
      if (d < 50.0) ++near_dups;  // jitter-level distance
    }
  }
  EXPECT_GT(near_dups, 50u);
}

// ---------------------------------------------------------------------------
// The serial generator as it stood before the two-pass one: one Rng stream
// drawn row by row, then a shuffle copy. generate_synthetic must reproduce
// it byte for byte. Both sides call the same libm, so this holds on any C
// library, which a recorded hash would not.

void reference_postprocess(DatasetFamily family, float* vec, std::size_t dim) {
  switch (family) {
    case DatasetFamily::kSiftLike:
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

struct ReferenceScales {
  float centroid_lo, centroid_hi, residual_sigma;
};

ReferenceScales reference_scales(DatasetFamily family) {
  switch (family) {
    case DatasetFamily::kSiftLike: return {20.f, 200.f, 18.f};
    case DatasetFamily::kDeepLike: return {-1.f, 1.f, 0.25f};
    case DatasetFamily::kSpacevLike: return {-80.f, 80.f, 14.f};
  }
  return {0.f, 1.f, 1.f};
}

Dataset reference_generate(const SyntheticSpec& spec) {
  const std::size_t dim = spec.dim();
  const std::size_t dsub = dim / spec.pq_m();
  common::Rng rng(spec.seed);
  const ReferenceScales scales = reference_scales(spec.family);

  const std::size_t nc = std::min(spec.n_natural_clusters, spec.n);
  std::vector<float> centroids(nc * dim);
  for (auto& v : centroids) {
    v = rng.uniform(scales.centroid_lo, scales.centroid_hi);
  }

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
  for (std::size_t c = 0; assigned < spec.n; c = (c + 1) % nc) {
    ++sizes[c];
    ++assigned;
  }

  const std::size_t group_dims = 3 * dsub;
  const std::size_t n_groups = dim / group_dims;
  std::vector<float> pools(nc * n_groups * spec.pattern_pool * group_dims);
  for (auto& v : pools) {
    v = static_cast<float>(rng.gaussian(0.0, scales.residual_sigma));
  }
  common::ZipfSampler pattern_picker(spec.pattern_pool, kPatternZipf);

  Dataset ds;
  ds.dim = dim;
  ds.n = spec.n;
  ds.values.resize(spec.n * dim);
  std::size_t row = 0;

  const std::size_t core_points =
      static_cast<std::size_t>(spec.dense_core_frac * static_cast<double>(spec.n));
  if (core_points > 0) {
    std::vector<float> core_center(dim);
    for (auto& v : core_center) {
      v = rng.uniform(scales.centroid_lo, scales.centroid_hi);
    }
    for (std::size_t i = 0; i < core_points && row < spec.n; ++i, ++row) {
      float* out = ds.row(row);
      for (std::size_t d = 0; d < dim; ++d) {
        out[d] = core_center[d] +
                 static_cast<float>(rng.gaussian(0.0, scales.residual_sigma * 1e-3));
      }
      reference_postprocess(spec.family, out, dim);
    }
    std::size_t to_remove = core_points;
    for (std::size_t c = 0; to_remove > 0; c = (c + 1) % nc) {
      if (sizes[c] > 0) {
        --sizes[c];
        --to_remove;
      }
    }
  }

  for (std::size_t c = 0; c < nc; ++c) {
    const float* ctr = centroids.data() + c * dim;
    for (std::size_t i = 0; i < sizes[c]; ++i, ++row) {
      float* out = ds.row(row);
      for (std::size_t d = 0; d < dim; ++d) {
        out[d] = ctr[d] + static_cast<float>(rng.gaussian(0.0, scales.residual_sigma));
      }
      for (std::size_t g = 0; g < n_groups; ++g) {
        if (rng.uniform() >= spec.pattern_prob) continue;
        const std::size_t p = pattern_picker.sample(rng);
        const float* pat = pools.data() +
                           ((c * n_groups + g) * spec.pattern_pool + p) * group_dims;
        for (std::size_t d = 0; d < group_dims; ++d) {
          out[g * group_dims + d] =
              ctr[g * group_dims + d] + pat[d] +
              static_cast<float>(rng.gaussian(0.0, scales.residual_sigma * 0.02));
        }
      }
      reference_postprocess(spec.family, out, dim);
    }
  }
  assert(row == spec.n);

  if (spec.shuffle) {
    auto perm = common::random_permutation(spec.n, rng);
    std::vector<float> shuffled(spec.n * dim);
    for (std::size_t i = 0; i < spec.n; ++i) {
      std::copy_n(ds.row(perm[i]), dim, shuffled.begin() + i * dim);
    }
    ds.values = std::move(shuffled);
  }
  return ds;
}

void expect_matches_reference(const SyntheticSpec& spec,
                              const std::string& label) {
  const Dataset got = generate_synthetic(spec);
  const Dataset want = reference_generate(spec);
  ASSERT_EQ(got.n, want.n) << label;
  ASSERT_EQ(got.dim, want.dim) << label;
  ASSERT_EQ(got.values.size(), want.values.size()) << label;
  EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                        want.values.size() * sizeof(float)),
            0)
      << label;
}

// Every family, shuffled and cluster-ordered, at a row count that leaves a
// partial last checkpoint block and spans several blocks. DEEP carries the
// dense core; SPACEV's 15-dim pattern groups leave an odd number of
// Gaussians in some rows, so blocks start with a pending Box-Muller spare.
TEST(SyntheticReference, EveryFamilyMatchesTheSerialGenerator) {
  const std::size_t n = 5 * kSyntheticBlockRows + 37;
  for (const bool shuffle : {true, false}) {
    for (const SyntheticSpec& base :
         {sift1b_like(n, 11), deep1b_like(n, 12), spacev1b_like(n, 13)}) {
      SyntheticSpec spec = base;
      spec.shuffle = shuffle;
      expect_matches_reference(
          spec, std::string(family_name(spec.family)) +
                    (shuffle ? " shuffled" : " cluster-ordered"));
    }
  }
}

TEST(SyntheticReference, EdgeShapesMatchTheSerialGenerator) {
  // One row; fewer rows than natural clusters (nc = n, odd, so the
  // log-normal sizes leave a spare behind); exactly one block; one row
  // past it.
  for (const std::size_t n : {std::size_t{1}, std::size_t{101},
                              kSyntheticBlockRows, kSyntheticBlockRows + 1}) {
    for (const SyntheticSpec& spec :
         {sift1b_like(n, 3), deep1b_like(n, 4), spacev1b_like(n, 5)}) {
      expect_matches_reference(spec, std::string(family_name(spec.family)) +
                                         " n=" + std::to_string(n));
    }
  }
  // The pattern coin at both ends: never and always a pattern group.
  for (const double prob : {0.0, 1.0}) {
    for (SyntheticSpec spec :
         {sift1b_like(1500, 6), deep1b_like(1500, 7), spacev1b_like(1500, 8)}) {
      spec.pattern_prob = prob;
      expect_matches_reference(spec, std::string(family_name(spec.family)) +
                                         " pattern_prob=" +
                                         std::to_string(prob));
    }
  }
  // A dense core larger than one block, and one on a non-DEEP family.
  SyntheticSpec core = deep1b_like(2000, 9);
  core.dense_core_frac = 0.3;
  expect_matches_reference(core, "deep core 0.3");
  SyntheticSpec sift_core = sift1b_like(1000, 10);
  sift_core.dense_core_frac = 0.05;
  sift_core.shuffle = false;
  expect_matches_reference(sift_core, "sift core cluster-ordered");
}

// Checkpoints taken by the libm-free replay resume the stream exactly,
// whether or not a Box-Muller spare is pending.
TEST(RngReplay, CheckpointsResumeTheStreamExactly) {
  common::Rng rng(77);
  for (int step = 0; step < 200; ++step) {
    common::RngReplay replay(rng.state());
    // Replay an odd number of Gaussians and a few uniforms...
    const int gaussians = step % 7;
    for (int i = 0; i < gaussians; ++i) replay.gaussian();
    replay.uniform();
    // ...and check that the live stream lands on the same state.
    for (int i = 0; i < gaussians; ++i) rng.gaussian();
    rng.uniform();
    common::Rng resumed(replay.state());
    for (int i = 0; i < 5; ++i) {
      const double a = rng.gaussian();
      const double b = resumed.gaussian();
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "step " << step;
    }
    ASSERT_EQ(rng(), resumed()) << "step " << step;
  }
}

}  // namespace
}  // namespace upanns::data
