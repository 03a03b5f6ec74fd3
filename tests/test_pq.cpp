#include "quant/pq.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd_dispatch.hpp"
#include "common/thread_pool.hpp"

namespace upanns::quant {
namespace {

std::vector<float> random_data(std::size_t n, std::size_t dim,
                               std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> data(n * dim);
  for (auto& v : data) v = static_cast<float>(rng.gaussian(0.0, 1.0));
  return data;
}

ProductQuantizer train_pq(std::size_t n, std::size_t dim, std::size_t m,
                          std::uint64_t seed = 1) {
  const auto data = random_data(n, dim, seed);
  ProductQuantizer pq;
  PqOptions opts;
  opts.m = m;
  opts.train_iters = 6;
  opts.seed = seed;
  pq.train(data, n, dim, opts);
  return pq;
}

TEST(Pq, RejectsIndivisibleDim) {
  ProductQuantizer pq;
  PqOptions opts;
  opts.m = 5;
  const auto data = random_data(100, 16, 1);
  EXPECT_THROW(pq.train(data, 100, 16, opts), std::invalid_argument);
}

TEST(Pq, TrainedDimensions) {
  const auto pq = train_pq(2000, 16, 4);
  EXPECT_TRUE(pq.trained());
  EXPECT_EQ(pq.dim(), 16u);
  EXPECT_EQ(pq.m(), 4u);
  EXPECT_EQ(pq.dsub(), 4u);
  EXPECT_EQ(pq.codebooks().size(), 4u * 256 * 4);
}

TEST(Pq, EncodeDecodeReducesError) {
  const std::size_t n = 3000, dim = 16;
  const auto data = random_data(n, dim, 2);
  const auto pq = train_pq(n, dim, 8, 2);

  std::vector<std::uint8_t> codes(8);
  std::vector<float> rec(dim);
  double err = 0, norm = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    pq.encode(data.data() + i * dim, codes.data());
    pq.decode(codes.data(), rec.data());
    err += l2_sq(data.data() + i * dim, rec.data(), dim);
    for (std::size_t d = 0; d < dim; ++d) {
      norm += data[i * dim + d] * data[i * dim + d];
    }
  }
  // Quantization error well below signal energy.
  EXPECT_LT(err / norm, 0.35);
}

TEST(Pq, EncodeIsNearestCodeword) {
  const auto pq = train_pq(1000, 8, 2, 3);
  const auto data = random_data(10, 8, 4);
  std::vector<std::uint8_t> codes(2);
  for (std::size_t i = 0; i < 10; ++i) {
    pq.encode(data.data() + i * 8, codes.data());
    for (std::size_t s = 0; s < 2; ++s) {
      const float* cb = pq.codebooks().data() + s * 256 * 4;
      const auto [best, d] =
          nearest_centroid(data.data() + i * 8 + s * 4, cb, 256, 4);
      (void)d;
      EXPECT_EQ(codes[s], best);
    }
  }
}

TEST(Pq, AdcEqualsDecodedDistance) {
  // ADC(lut, codes) must equal ||q - decode(codes)||^2 exactly (same math).
  const auto pq = train_pq(2000, 16, 4, 5);
  const auto queries = random_data(5, 16, 6);
  const auto points = random_data(5, 16, 7);
  std::vector<float> lut(4 * 256), rec(16);
  std::vector<std::uint8_t> codes(4);
  for (std::size_t q = 0; q < 5; ++q) {
    pq.compute_lut(queries.data() + q * 16, lut.data());
    for (std::size_t p = 0; p < 5; ++p) {
      pq.encode(points.data() + p * 16, codes.data());
      pq.decode(codes.data(), rec.data());
      const float adc = pq.adc_distance(lut.data(), codes.data());
      const float direct = l2_sq(queries.data() + q * 16, rec.data(), 16);
      EXPECT_NEAR(adc, direct, 1e-3f * (1.f + direct));
    }
  }
}

TEST(Pq, QuantizedLutPreservesOrdering) {
  const auto pq = train_pq(3000, 16, 4, 8);
  const auto queries = random_data(3, 16, 9);
  const auto points = random_data(50, 16, 10);
  std::vector<float> lut(4 * 256);
  std::vector<std::uint8_t> codes(4);
  for (std::size_t q = 0; q < 3; ++q) {
    pq.compute_lut(queries.data() + q * 16, lut.data());
    const QuantizedLut qlut = pq.quantize_lut(lut);
    // Relative error of quantized distances is small.
    for (std::size_t p = 0; p < 50; ++p) {
      pq.encode(points.data() + p * 16, codes.data());
      const float f = pq.adc_distance(lut.data(), codes.data());
      const float g =
          static_cast<float>(pq.adc_distance_q(qlut, codes.data())) *
          qlut.scale;
      EXPECT_NEAR(g, f, 0.01f * (1.f + f));
    }
  }
}

TEST(Pq, QuantizedLutEntriesBounded) {
  const auto pq = train_pq(1000, 8, 2, 11);
  const auto q = random_data(1, 8, 12);
  std::vector<float> lut(2 * 256);
  pq.compute_lut(q.data(), lut.data());
  const QuantizedLut ql = pq.quantize_lut(lut);
  for (auto v : ql.table) EXPECT_LE(v, 65535);
  EXPECT_GT(ql.scale, 0.f);
}

TEST(Pq, ZeroLutQuantizes) {
  const auto pq = train_pq(500, 8, 2, 13);
  std::vector<float> lut(2 * 256, 0.f);
  const QuantizedLut ql = pq.quantize_lut(lut);
  for (auto v : ql.table) EXPECT_EQ(v, 0);
}

// Batch encoding (16-row point-lane groups for dsub <= 8, row by row above
// that) against encode() per vector, serially and on pools of 1 and 3
// workers, at every SIMD level. n leaves a short last lane group and a
// short last 256-row tile.
TEST(Pq, EncodeBatchMatchesSingle) {
  const std::size_t n = 600 + 37;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {7, 7}, {16, 4}, {100, 20}, {64, 8}, {48, 3}};  // dsub 1, 4, 5, 8, 16
  const common::SimdLevel entry = common::simd_active_level();
  common::ThreadPool pool1(1), pool3(3);
  for (const auto& [dim, m] : shapes) {
    const auto pq = train_pq(1000, dim, m, 14);
    const auto data = random_data(n, dim, 15);
    for (int l = 0; l <= static_cast<int>(common::simd_max_supported()); ++l) {
      common::set_simd_level(static_cast<common::SimdLevel>(l));
      std::vector<std::uint8_t> want(n * m);
      for (std::size_t i = 0; i < n; ++i) {
        pq.encode(data.data() + i * dim, want.data() + i * m);
      }
      common::ThreadPool* const pools[] = {nullptr, &pool1, &pool3};
      for (common::ThreadPool* pool : pools) {
        std::vector<std::uint8_t> got(n * m + 1, 0xAB);
        pq.encode_batch(data, n, got.data(), pool);
        EXPECT_EQ(std::vector<std::uint8_t>(got.begin(), got.end() - 1), want)
            << "dsub=" << dim / m << " level=" << l
            << " workers=" << (pool ? pool->size() : 0);
        EXPECT_EQ(got.back(), 0xAB) << "wrote past n";
      }
    }
  }
  common::set_simd_level(entry);
}

class PqMTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PqMTest, RoundTripAcrossM) {
  const std::size_t m = GetParam();
  const std::size_t dim = m * 4;
  const auto pq = train_pq(1500, dim, m, 20 + m);
  EXPECT_EQ(pq.m(), m);
  const auto data = random_data(8, dim, 21);
  std::vector<std::uint8_t> codes(m);
  std::vector<float> rec(dim);
  for (std::size_t i = 0; i < 8; ++i) {
    pq.encode(data.data() + i * dim, codes.data());
    pq.decode(codes.data(), rec.data());
    EXPECT_LT(l2_sq(data.data() + i * dim, rec.data(), dim),
              2.0f * static_cast<float>(dim));
  }
}

INSTANTIATE_TEST_SUITE_P(Ms, PqMTest, ::testing::Values(1, 2, 4, 8, 12, 16, 20));

// Concurrent subspace training fans the m kmeans() calls across a pool with
// the inner kmeans pinned serial (DESIGN.md §13).
// The codebooks must come out bit-identical to the fully serial train for
// any pool size.
TEST(Pq, ParallelTrainBitIdenticalToSerial) {
  const std::size_t n = 3000, dim = 32, m = 8;
  const auto data = random_data(n, dim, 3);
  PqOptions serial;
  serial.m = m;
  serial.train_iters = 5;
  serial.seed = 3;
  serial.use_threads = false;
  ProductQuantizer want;
  want.train(data, n, dim, serial);
  for (std::size_t workers = 1; workers <= 4; workers += 3) {
    common::ThreadPool pool(workers);
    PqOptions opts = serial;
    opts.use_threads = true;
    opts.pool = &pool;
    ProductQuantizer got;
    got.train(data, n, dim, opts);
    const auto ga = got.codebooks();
    const auto wa = want.codebooks();
    ASSERT_EQ(ga.size(), wa.size());
    EXPECT_EQ(std::vector<float>(ga.begin(), ga.end()),
              std::vector<float>(wa.begin(), wa.end()))
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace upanns::quant
