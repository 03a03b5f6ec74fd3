#include "data/ground_truth.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "common/thread_pool.hpp"
#include "quant/kmeans.hpp"

namespace upanns::data {

std::vector<std::vector<common::Neighbor>> exact_topk(const Dataset& base,
                                                      const Dataset& queries,
                                                      std::size_t k) {
  assert(base.dim == queries.dim);
  std::vector<std::vector<common::Neighbor>> out(queries.n);
  common::ThreadPool::global().parallel_for(
      0, queries.n,
      [&](std::size_t q) {
        common::TopK top(k);
        const float* qv = queries.row(q);
        for (std::size_t i = 0; i < base.n; ++i) {
          const float d = quant::l2_sq(qv, base.row(i), base.dim);
          top.push(d, static_cast<std::uint32_t>(i));
        }
        out[q] = top.sorted();
      },
      1);
  return out;
}

double recall_at_k(const std::vector<std::vector<common::Neighbor>>& exact,
                   const std::vector<std::vector<common::Neighbor>>& approx,
                   std::size_t k) {
  assert(exact.size() == approx.size());
  if (exact.empty() || k == 0) return 0.0;
  double hits = 0;
  for (std::size_t q = 0; q < exact.size(); ++q) {
    std::unordered_set<std::uint32_t> truth;
    for (std::size_t i = 0; i < std::min(k, exact[q].size()); ++i) {
      truth.insert(exact[q][i].id);
    }
    for (std::size_t i = 0; i < std::min(k, approx[q].size()); ++i) {
      if (truth.count(approx[q][i].id)) hits += 1;
    }
  }
  return hits / (static_cast<double>(exact.size()) * static_cast<double>(k));
}

}  // namespace upanns::data
