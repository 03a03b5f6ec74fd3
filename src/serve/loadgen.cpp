#include "serve/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"

namespace upanns::serve {

namespace {

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  idx = std::min(std::max<std::size_t>(idx, 1), sorted.size()) - 1;
  return sorted[idx];
}

struct PendingReq {
  double arrival = 0;
  std::size_t row = 0;  ///< row in the query pool
};

}  // namespace

LoadgenResult simulate_load(const data::Dataset& queries,
                            const BatchExecutor& exec,
                            const LoadgenOptions& opts) {
  if (queries.n == 0 || queries.dim == 0) {
    throw std::invalid_argument("simulate_load: empty query pool");
  }
  if (!(opts.offered_qps > 0)) {
    throw std::invalid_argument("simulate_load: offered_qps <= 0");
  }
  if (opts.policy.max_batch == 0 || !(opts.policy.deadline_seconds > 0)) {
    throw std::invalid_argument("simulate_load: invalid BatchPolicy");
  }
  const BatchPolicy& policy = opts.policy;

  LoadgenResult res;
  res.offered_qps = opts.offered_qps;
  res.n_requests = opts.n_requests;

  std::deque<PendingReq> pending;
  double busy_until = 0;  ///< virtual time the single executor frees up
  std::vector<double> latencies;
  latencies.reserve(opts.n_requests);
  double queue_wait_sum = 0;
  double fill_sum = 0;
  double last_completion = 0;

  // Execute one batch of the first n pending requests at `dispatch`. The
  // service time is whatever the real pipeline reports as simulated seconds
  // for that batch — the executor runs inline on this thread.
  const auto run_batch = [&](std::size_t n, double dispatch,
                             BatchClose close) {
    data::Dataset batch;
    batch.dim = queries.dim;
    batch.n = n;
    batch.values.reserve(n * queries.dim);
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = queries.values.data() + pending[i].row * queries.dim;
      batch.values.insert(batch.values.end(), row, row + queries.dim);
    }
    const ExecResult r = exec(batch);
    busy_until = dispatch + r.sim_seconds;
    last_completion = std::max(last_completion, busy_until);
    for (std::size_t i = 0; i < n; ++i) {
      latencies.push_back(busy_until - pending[i].arrival);
      queue_wait_sum += dispatch - pending[i].arrival;
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(n));
    ++res.n_batches;
    fill_sum += static_cast<double>(n) / static_cast<double>(policy.max_batch);
    if (close == BatchClose::kFull) ++res.full_closes;
    if (close == BatchClose::kDeadline) ++res.deadline_closes;
  };

  // Dispatch every batch whose close trigger AND executor availability land
  // at or before `horizon` (the next arrival, or +inf for the final drain).
  // Mirrors Server::worker_loop: the batcher wakes at min(full, deadline)
  // once the executor is free, then pops up to max_batch.
  const auto flush_until = [&](double horizon) {
    for (;;) {
      if (pending.empty()) return;
      const double oldest = pending.front().arrival;
      const double deadline = batch_deadline(policy, oldest);
      double trigger;  // virtual time the batch-close condition holds
      if (pending.size() >= policy.max_batch) {
        // The max_batch-th request completed the batch when it arrived; the
        // deadline may have fired even earlier.
        trigger = std::min(pending[policy.max_batch - 1].arrival, deadline);
      } else {
        trigger = deadline;
      }
      const double dispatch = std::max({busy_until, oldest, trigger});
      // A later arrival (before this dispatch) may still join the batch or
      // be refused admission — let it into the simulation first.
      if (dispatch > horizon) return;
      const std::size_t n = std::min<std::size_t>(policy.max_batch,
                                                  pending.size());
      run_batch(n, dispatch,
                batch_close_decision(policy, n, oldest, dispatch,
                                     /*draining=*/false));
    }
  };

  common::Rng rng(opts.seed);
  double t = 0;
  for (std::size_t i = 0; i < opts.n_requests; ++i) {
    const double gap =
        opts.poisson ? -std::log1p(-rng.uniform()) / opts.offered_qps
                     : 1.0 / opts.offered_qps;
    t += gap;
    flush_until(t);
    if (opts.queue_capacity > 0 && pending.size() >= opts.queue_capacity) {
      ++res.n_rejected;
      continue;
    }
    pending.push_back({t, i % queries.n});
  }
  flush_until(std::numeric_limits<double>::infinity());

  res.n_completed = latencies.size();
  if (!latencies.empty()) {
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    res.p50 = sorted_quantile(sorted, 0.5);
    res.p99 = sorted_quantile(sorted, 0.99);
    res.max = sorted.back();
    double sum = 0;
    for (double v : sorted) sum += v;
    res.mean = sum / static_cast<double>(sorted.size());
    res.mean_queue_wait = queue_wait_sum / static_cast<double>(sorted.size());
  }
  res.mean_batch_fill =
      res.n_batches > 0 ? fill_sum / static_cast<double>(res.n_batches) : 0;
  res.makespan_seconds = last_completion;
  res.achieved_qps = last_completion > 0
                         ? static_cast<double>(res.n_completed) /
                               last_completion
                         : 0;
  return res;
}

}  // namespace upanns::serve
