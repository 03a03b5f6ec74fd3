// Chrome/Perfetto trace export of a batch stream run.
//
// The windows come from core::batch_timeline, the recurrence the stream's
// elapsed_seconds itself comes from (core/pipeline.hpp): batch 0's host
// prefix starts at t=0; each batch's device phase starts when both the
// device is free and its own host prefix is done; batch i+1's host prefix
// starts when batch i's device phase starts. Because IEEE rounding is
// monotone, max(fl(a+b), fl(a+c)) == fl(a + max(b, c)), so the final
// device-phase end equals h_0 + sum_i max(d_i, h_{i+1}) + d_last
// bit-for-bit for overlapped runs (asserted in test_obs).
//
// Lanes (Chrome trace "threads" of one process):
//   tid 0          host    — leading host stages of every batch
//   tid 1          device  — the device-bound remainder of every batch
//   tid 2+d        dpu-<d> — that DPU's kernel busy time, one slice per
//                            batch it participated in (from LaunchStats via
//                            PimExtras::dpu_busy_seconds)
//
// Load the file at ui.perfetto.dev (or chrome://tracing): batch i+1's host
// slices visibly overlap batch i's device slices.
// Multi-host runs (core::MultiHostBatchPipeline) export through the same
// slice/lane machinery and timeline with a different lane map:
//   tid 0          coordinator — cluster-filter + interhost-merge per batch
//   tid 1          network     — broadcast / gather fan-out transfers
//   tid 2+h        host-<h>    — that host's schedule + device phase
// so the last merge slice ends at elapsed_seconds for overlapped runs. Both
// maps append an mram-patch and an adapt-patch lane after the others when
// some batch patched or adapted.
#pragma once

#include <string>
#include <vector>

#include "core/multihost.hpp"
#include "core/pipeline.hpp"
#include "ivf/ivf_index.hpp"

namespace upanns::obs {

class SpanLog;

/// One "complete" (ph "X") slice on a lane.
struct TraceSlice {
  std::string name;
  std::string category;  ///< "host", "device" or "dpu"
  int lane = 0;          ///< Chrome trace tid
  double start_seconds = 0;
  double duration_seconds = 0;
  std::size_t batch = 0;
};

struct PipelineTrace {
  /// lane id -> display name ("host", "device", "dpu-3", ...).
  std::vector<std::pair<int, std::string>> lanes;
  std::vector<TraceSlice> slices;
};

/// Build the slice set: per batch, one slice per leading host stage on the
/// host lane and one per remaining stage on the device lane (stage names and
/// seconds straight from SearchReport::trace), plus one busy slice per
/// active DPU aligned with that batch's kernel-launch stage.
PipelineTrace pipeline_trace(const core::BatchPipelineReport& report);

/// Serialize to Chrome trace-event JSON ("traceEvents" array of X slices and
/// M thread-name metadata; ts/dur in microseconds). When `spans` is non-null
/// its forest is appended as async "b"/"e" event pairs (id = span id, parent
/// and query ids in args), so Perfetto nests per-query spans under their
/// batch; a null span log reproduces the span-free output byte-for-byte.
std::string trace_json(const PipelineTrace& trace,
                       const SpanLog* spans = nullptr);

/// Build the multi-host slice set (see file comment): per batch, the
/// coordinator filter and inter-host merge on the coordinator lane, the
/// broadcast/gather fan-out on the network lane, and one schedule + one
/// device slice per active host on that host's lane.
PipelineTrace multihost_trace(const core::MultiHostPipelineReport& report);

/// One-lane wall-clock trace of the offline build phase: the BuildStats
/// substages (coarse-kmeans, coarse-assign, residual, pq-train, encode)
/// laid back to back on a single "build" lane, so `upanns_cli build
/// --trace-out` shows where the build wall went in the same viewer as the
/// serve traces. Unlike the serve lanes these are host wall-clock seconds,
/// not simulated time.
PipelineTrace build_trace(const ivf::BuildStats& stats);

/// Write `content` to `path` (throws std::runtime_error on failure).
void write_text_file(const std::string& path, const std::string& content);

/// True when `path` exists (any file type).
bool file_exists(const std::string& path);

/// write_text_file, but refuse to clobber: when `path` already exists and
/// `force` is false, log a warning and throw std::runtime_error telling the
/// caller to pass --force. The CLI routes every telemetry output through
/// this so existing artifacts are never silently overwritten.
void write_text_file_guarded(const std::string& path,
                             const std::string& content, bool force);

}  // namespace upanns::obs
