// Extension bench: double-buffered batch pipeline (Fig 16 setup).
//
// Streams a SIFT1B-like query workload through core::BatchStream in both
// accounting modes. With overlap on, host filtering/scheduling of batch i+1
// hides behind simulated DPU execution of batch i, so end-to-end simulated
// time drops below the serial sum while per-query neighbors stay
// bit-identical (overlap changes time accounting only).
#include "bench_common.hpp"
#include "core/pipeline.hpp"

using namespace upanns;
using namespace upanns::bench;

int main() {
  metrics::banner("Pipeline", "Batch-stream double-buffering (SIFT1B-like)");
  metrics::Table table({"batch", "batches", "serial_ms", "pipelined_ms",
                        "speedup", "host_hidden%"});

  for (const std::size_t batch : {std::size_t{64}, std::size_t{128},
                                  std::size_t{256}}) {
    Config cfg;
    cfg.family = data::DatasetFamily::kSiftLike;
    cfg.n = 150'000;
    cfg.scaled_ivf = 256;
    cfg.paper_ivf = 4096;
    cfg.n_dpus = 64;
    cfg.n_queries = 1024;  // >= 4 batches at every batch size
    cfg.nprobe = 64;
    Context& ctx = context_for(cfg);
    auto backend = make_backend(core::BackendKind::kUpAnns, cfg);
    auto& up = static_cast<core::UpAnnsBackend&>(*backend);

    const auto batches =
        core::split_batches(ctx.workload.queries, batch);

    core::BatchStream serial(up.engine(), {.overlap = false});
    const auto off = serial.run(batches);
    core::BatchStream pipelined(up.engine(), {.overlap = true});
    const auto on = pipelined.run(batches);

    double host_total = 0;
    for (const auto& slot : on.slots) host_total += slot.pre_seconds;
    const double hidden =
        host_total > 0
            ? (off.elapsed_seconds - on.elapsed_seconds) / host_total * 100.0
            : 0;
    table.add_row({std::to_string(batch), std::to_string(batches.size()),
                   metrics::Table::fmt(off.elapsed_seconds * 1e3, 3),
                   metrics::Table::fmt(on.elapsed_seconds * 1e3, 3),
                   metrics::Table::fmt(off.elapsed_seconds / on.elapsed_seconds, 5),
                   metrics::Table::fmt(hidden, 1)});
  }
  table.print();
  std::printf("\nExpected shape: pipelined < serial at every batch size; the "
              "host prefix (filter+schedule) hides behind DPU execution.\n");
  return 0;
}
