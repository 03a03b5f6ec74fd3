// Adapter from the batch streams to serve::BatchExecutor. The serve layer
// stays ignorant of engines; this glue function is the only place the two
// meet. It runs on the caller's (batcher) thread.
#pragma once

#include "core/pipeline.hpp"
#include "serve/server.hpp"

namespace upanns::serve {

/// Executor over a batch stream — core::BatchStream on one host or
/// core::MultiHostBatchPipeline on a fleet — the standard online path
/// (MRAM patching, adaptation, slot metrics and spans included). The stream
/// keeps its slots alive until finish(), so neighbors are copied out. The
/// stream must outlive the returned executor.
template <class Target, class Report>
BatchExecutor stream_executor(core::BasicBatchStream<Target, Report>& stream) {
  return [&stream](const data::Dataset& batch) {
    const auto& slot = stream.run_batch(batch);
    ExecResult r;
    r.neighbors = slot.report.neighbors;
    r.sim_seconds = slot.pre_seconds + slot.device_seconds + slot.post_seconds;
    return r;
  };
}

}  // namespace upanns::serve
