// Per-query distributed spans — the "what did query #4812 cost, stage by
// stage?" half of the telemetry plane (obs/trace.hpp draws the per-lane
// batch view from the same lane-level spans).
//
// Spans form a forest: one root span per batch, with three kinds of
// children.
//
//   batch  ──┬── host / device / patch / coord / net / host
//            │                       (lane-level phases; the Perfetto
//            │                        lane slices are drawn from them)
//            └── query ──── query-stage   (per-query share of each phase)
//
// append_lane_spans lays a batch's lane-level spans out once per report
// type, for the forest and the Perfetto lanes alike. Spans are assembled
// *post hoc* from the batch stream reports and their deterministic timeline
// (core::batch_timeline) — nothing runs inside the stages, so a detached
// run stays byte-identical to main. The only run-time hook is
// SearchReport::query_costs, which the pipeline fills (when a SpanLog is
// attached to the engine) with the batch/query ids and the per-query share
// of the device phase derived from the Alg-2 schedule.
//
// Accounting identity (pinned in test_telemetry): per batch, the "query"
// span durations sum to times.total(), so across a run
//
//   sum(query spans) + sum(patch spans) == serial_seconds
//
// within floating-point accumulation error. Query ids are stable global
// ids: first_query_id + row index, in submission order across batches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/multihost.hpp"
#include "core/pipeline.hpp"

namespace upanns::obs {

/// One node of the span forest. ids are 1-based per SpanLog; parent == 0
/// marks a root. batch/query/host are -1 when the dimension does not apply.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  /// batch|host|device|patch|coord|net|query|query-stage (batch streams),
  /// request|serve (serve::append_request_spans)
  std::string category;
  std::int64_t batch = -1;
  std::int64_t query = -1;  ///< stable global query id
  std::int64_t host = -1;   ///< multi-host lane, -1 on single host
  double start_seconds = 0;
  double duration_seconds = 0;
};

/// Append-only span collection. Attach one to an engine (set_spans) to make
/// the pipeline record per-query cost shares, then assemble with the
/// append_spans builders below (the batch streams call them from finish()).
class SpanLog {
 public:
  /// Append a span with the next id; returns the stored span, so the
  /// caller can set its query or host.
  Span& push(std::uint64_t parent, std::string name, std::string category,
             std::int64_t batch, double start_seconds,
             double duration_seconds);

  /// Make room for `n` more spans (growing geometrically, so repeated
  /// calls stay amortized).
  void reserve_more(std::size_t n);

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }
  void clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
};

/// Lay batch `batch` of a single-host run on its timeline window `w`
/// (core::batch_timeline) as children of `parent`: the leading host stages
/// from w.pre_start (category "host"), then from w.device_start the
/// mram-patch / adapt-patch spans ("patch") and the device-bound remainder
/// ("device"). Returns where that remainder starts.
double append_lane_spans(SpanLog& log, std::uint64_t parent, std::size_t batch,
                         const core::PhaseWindows& w,
                         const core::BatchSlot& slot);

/// The same for a fleet batch: cluster-filter / interhost-merge ("coord"),
/// broadcast / gather ("net"), the patch spans ("patch") and each active
/// host's alg2-schedule + device-phase ("host", with its host index).
/// Returns where the host phases start.
double append_lane_spans(SpanLog& log, std::uint64_t parent, std::size_t batch,
                         const core::PhaseWindows& w,
                         const core::MultiHostBatchSlot& slot);

/// Build the span forest of a single-host stream run (see file comment).
/// Per-query device shares come from SearchReport::query_costs; batches
/// without it fall back to uniform shares, so the accounting identity holds
/// either way.
void append_spans(SpanLog& log, const core::BatchPipelineReport& report);

/// Build the span forest of a multi-host run: the lane-level spans, then
/// uniform per-query shares of the five serial phases.
void append_spans(SpanLog& log, const core::MultiHostPipelineReport& report);

/// Serialize to the SpanLog JSON schema: {"provenance": {...},
/// "n_spans": N, "spans": [...]} with round-trip doubles.
std::string span_log_json(const SpanLog& log);

}  // namespace upanns::obs
