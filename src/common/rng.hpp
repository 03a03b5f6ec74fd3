// Deterministic random number generation and the samplers used throughout the
// reproduction: uniform, Gaussian, Zipf (query skew, Fig 4a) and log-normal
// (cluster-size skew, Fig 4b). All generators are seedable so every dataset,
// workload and experiment is reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <cmath>
#include <vector>

namespace upanns::common {

/// Everything that fixes an Rng's future output: the xoshiro256++ state and
/// a pending Box-Muller spare, held as the two uniforms of its pair so that
/// a replay can carry it without computing it (see RngReplay).
struct RngState {
  std::uint64_t s[4]{};
  bool has_spare = false;
  double u1 = 0.0;  ///< the pending pair's radius uniform, in (0, 1)
  double u2 = 0.0;  ///< its angle uniform, in [0, 1)
};

namespace detail {

/// xoshiro256++ step over a bare state.
inline std::uint64_t xoshiro_next(std::uint64_t (&s)[4]) {
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// Uniform double in [0, 1) from the top 53 bits of a raw draw.
inline double unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Advance `st` by one Box-Muller pair's draws: u1 is redrawn while it is
/// 0 (its log must stay finite), then u2; the pair becomes the pending spare.
inline void draw_gaussian_pair(RngState& st) {
  do {
    st.u1 = unit_double(xoshiro_next(st.s));
  } while (st.u1 <= 0.0);
  st.u2 = unit_double(xoshiro_next(st.s));
  st.has_spare = true;
}

}  // namespace detail

/// xoshiro256++ PRNG seeded through SplitMix64. Small, fast, and good enough
/// statistical quality for synthetic data generation; satisfies the
/// UniformRandomBitGenerator concept so it composes with <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Resume from a captured state; the output continues bit-identically.
  explicit Rng(const RngState& st);

  void reseed(std::uint64_t seed);

  const RngState& state() const { return st_; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() { return detail::xoshiro_next(st_.s); }

  /// Uniform double in [0, 1).
  double uniform() { return detail::unit_double((*this)()); }

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) {
    return lo + static_cast<float>(uniform()) * (hi - lo);
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) { return (*this)() % n; }

  /// Standard normal via Box-Muller (cached second value).
  double gaussian();

  /// Normal with the given mean / stddev.
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

 private:
  RngState st_;
  double spare_ = 0.0;  ///< the pending spare's value when st_.has_spare
};

/// Replays an Rng's draws without libm: gaussian() advances the state
/// exactly as Rng::gaussian() does but computes no value, and uniform() and
/// the raw draw are Rng's own. Rng(state()) then resumes where the replay
/// stands, so a serial replay can checkpoint a stream that parallel workers
/// regenerate (data::generate_synthetic).
class RngReplay {
 public:
  explicit RngReplay(const RngState& st) : st_(st) {}

  std::uint64_t operator()() { return detail::xoshiro_next(st_.s); }
  double uniform() { return detail::unit_double((*this)()); }
  void gaussian() {
    if (st_.has_spare) {
      st_.has_spare = false;
    } else {
      detail::draw_gaussian_pair(st_);
    }
  }

  const RngState& state() const { return st_; }

 private:
  RngState st_;
};

/// Zipf(s) sampler over ranks [0, n). Used to model the highly skewed cluster
/// access frequencies observed in SPACEV1B (popular clusters receive ~500x
/// more queries than unpopular ones, paper Fig 4a).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  /// Draw one rank; rank 0 is the most popular.
  std::size_t sample(Rng& rng) const;

  std::size_t size() const { return cdf_.size(); }

  /// Probability mass of a given rank.
  double pmf(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
  double exponent_;
};

/// Log-normal sampler for cluster sizes: real billion-scale inverted lists
/// span ~6 orders of magnitude in size (paper Fig 4b).
class LogNormalSampler {
 public:
  LogNormalSampler(double mu, double sigma) : mu_(mu), sigma_(sigma) {}
  double sample(Rng& rng) const { return std::exp(rng.gaussian(mu_, sigma_)); }

 private:
  double mu_;
  double sigma_;
};

/// Fisher-Yates shuffle of an index range, deterministic under the rng.
void shuffle_indices(std::vector<std::uint32_t>& idx, Rng& rng);

/// A random permutation [0, n).
std::vector<std::uint32_t> random_permutation(std::size_t n, Rng& rng);

}  // namespace upanns::common
