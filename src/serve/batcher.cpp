#include "serve/batcher.hpp"

namespace upanns::serve {

double batch_deadline(const BatchPolicy& policy, double oldest_arrival) {
  return oldest_arrival + policy.deadline_seconds;
}

BatchClose batch_close_decision(const BatchPolicy& policy, std::size_t depth,
                                double oldest_arrival, double now,
                                bool draining) {
  if (depth == 0) return BatchClose::kOpen;
  // "Full" wins over "deadline" when both hold: the batch ships at its
  // target size and the deadline was met anyway.
  if (depth >= policy.max_batch) return BatchClose::kFull;
  if (now >= batch_deadline(policy, oldest_arrival)) {
    return BatchClose::kDeadline;
  }
  if (draining) return BatchClose::kDrain;
  return BatchClose::kOpen;
}

}  // namespace upanns::serve
