// Deterministic open-loop load generation against the continuous batcher —
// the SLO-vs-QPS half of the serve layer.
//
// simulate_load() is a discrete-event twin of serve::Server: arrivals are
// drawn from a seeded Poisson (or fixed-rate) process, admission control,
// batch formation and the single busy executor follow exactly the
// serve::BatchPolicy semantics (same decision function), and service times
// are the *simulated* seconds of real pipeline executions — so a sweep over
// offered QPS yields reproducible latency curves with the classic queueing
// knee, free of host-machine timing noise. The real-threaded Server is for
// serving; this is for measuring the policy + pipeline under load.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "serve/batcher.hpp"
#include "serve/server.hpp"

namespace upanns::serve {

struct LoadgenOptions {
  double offered_qps = 1000;     ///< mean arrival rate
  std::size_t n_requests = 1000; ///< arrivals to generate
  BatchPolicy policy;
  /// Max waiting (admitted, undispatched) requests; arrivals beyond it are
  /// rejected. 0 = unbounded.
  std::size_t queue_capacity = 0;
  std::uint64_t seed = 42;
  bool poisson = true;  ///< false = fixed 1/qps interarrival
};

struct LoadgenResult {
  double offered_qps = 0;
  std::size_t n_requests = 0;
  std::size_t n_completed = 0;
  std::size_t n_rejected = 0;
  std::size_t n_batches = 0;
  std::size_t full_closes = 0;
  std::size_t deadline_closes = 0;
  // Arrival→completion latency over completed requests, simulated seconds.
  double p50 = 0, p99 = 0, mean = 0, max = 0;
  double mean_queue_wait = 0;
  double mean_batch_fill = 0;     ///< batch size / max_batch
  double makespan_seconds = 0;    ///< first arrival to last completion
  double achieved_qps = 0;        ///< completed / makespan
};

/// Run one offered-QPS point. Request i uses row i % queries.n of the
/// (typically Zipf-skewed, data::generate_workload) query pool. `exec` is
/// called once per formed batch on the caller's thread.
LoadgenResult simulate_load(const data::Dataset& queries,
                            const BatchExecutor& exec,
                            const LoadgenOptions& opts);

}  // namespace upanns::serve
