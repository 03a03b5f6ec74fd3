// Continuous-batch formation policy — the one decision rule shared by the
// real-threaded serve::Server (steady clock) and the deterministic
// discrete-event load simulator (serve/loadgen.hpp, virtual clock), so the
// two can never drift in semantics.
//
// A batch is anchored at the *oldest* waiting request: it closes the moment
// the queue holds max_batch requests ("full"), or when the oldest request
// has waited deadline_seconds ("deadline"), whichever comes first. Draining
// a shutting-down server closes immediately with whatever is waiting
// ("drain"). This is the same shape FusionANNS uses to keep its cooperative
// CPU/GPU pipeline fed, and the knob DRIM-ANN's batch-size/throughput
// tradeoff study sweeps.
#pragma once

#include <cstddef>

namespace upanns::serve {

/// When/why a forming batch closed.
enum class BatchClose { kOpen, kFull, kDeadline, kDrain };

struct BatchPolicy {
  std::size_t max_batch = 64;      ///< close as soon as this many wait
  double deadline_seconds = 2e-3;  ///< max wait of the oldest request
};

/// Absolute time at which a batch anchored at `oldest_arrival` must close
/// even if still short of max_batch.
double batch_deadline(const BatchPolicy& policy, double oldest_arrival);

/// Decide whether a batch should close at time `now` given `depth` waiting
/// requests whose oldest arrived at `oldest_arrival`. `draining` forces an
/// immediate close of any non-empty batch. Returns kOpen to keep waiting.
BatchClose batch_close_decision(const BatchPolicy& policy, std::size_t depth,
                                double oldest_arrival, double now,
                                bool draining);

}  // namespace upanns::serve
