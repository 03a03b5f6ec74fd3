// Adapters from the existing pipeline entry points to serve::BatchExecutor.
// The serve layer stays ignorant of engines; these glue functions are the
// only place the two meet. Both run on the caller's (batcher) thread.
#pragma once

#include <utility>

#include "core/backend.hpp"
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

/// Executor over any core::AnnsBackend::search (UpANNS, baselines). The
/// backend must outlive the returned executor.
inline BatchExecutor backend_executor(core::AnnsBackend& backend) {
  return [&backend](const data::Dataset& batch) {
    core::SearchReport rep = backend.search(batch);
    ExecResult r;
    r.neighbors = std::move(rep.neighbors);
    r.sim_seconds = rep.total_seconds();
    return r;
  };
}

}  // namespace upanns::serve
