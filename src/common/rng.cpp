#include "common/rng.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace upanns::common {

namespace {
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  st_ = RngState{};
  for (auto& s : st_.s) s = splitmix64(sm);
}

namespace {
double box_muller_radius(double u1) { return std::sqrt(-2.0 * std::log(u1)); }
double box_muller_angle(double u2) { return 6.28318530717958647692 * u2; }
}  // namespace

Rng::Rng(const RngState& st) : st_(st) {
  // A pending spare is recomputed from its uniforms with gaussian()'s own
  // expressions, so it has the bits the interrupted stream would return.
  if (st_.has_spare) {
    spare_ = box_muller_radius(st_.u1) * std::sin(box_muller_angle(st_.u2));
  }
}

double Rng::gaussian() {
  if (st_.has_spare) {
    st_.has_spare = false;
    return spare_;
  }
  detail::draw_gaussian_pair(st_);
  const double r = box_muller_radius(st_.u1);
  const double theta = box_muller_angle(st_.u2);
  spare_ = r * std::sin(theta);
  return r * std::cos(theta);
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) : exponent_(exponent) {
  assert(n > 0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = acc;
  }
  for (auto& v : cdf_) v /= acc;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::pmf(std::size_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  const double hi = cdf_[rank];
  const double lo = rank == 0 ? 0.0 : cdf_[rank - 1];
  return hi - lo;
}

void shuffle_indices(std::vector<std::uint32_t>& idx, Rng& rng) {
  for (std::size_t i = idx.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    std::swap(idx[i - 1], idx[j]);
  }
}

std::vector<std::uint32_t> random_permutation(std::size_t n, Rng& rng) {
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  shuffle_indices(idx, rng);
  return idx;
}

}  // namespace upanns::common
