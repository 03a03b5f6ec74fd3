#include "obs/span.hpp"

#include <algorithm>
#include <utility>

#include "obs/json.hpp"
#include "obs/provenance.hpp"

namespace upanns::obs {

Span& SpanLog::push(std::uint64_t parent, std::string name,
                    std::string category, std::int64_t batch,
                    double start_seconds, double duration_seconds) {
  spans_.push_back({static_cast<std::uint64_t>(spans_.size()) + 1, parent,
                    std::move(name), std::move(category), batch, -1, -1,
                    start_seconds, duration_seconds});
  return spans_.back();
}

void SpanLog::reserve_more(std::size_t n) {
  const std::size_t need = spans_.size() + n;
  if (need > spans_.capacity()) {
    spans_.reserve(std::max(need, 2 * spans_.capacity()));
  }
}

namespace {

/// The mram-patch / adapt-patch spans that lead a batch's device phase
/// (device_seconds already includes them) from `start`; returns where the
/// rest of the phase starts. Both share the "patch" category, so the span
/// accounting identity (query spans + patch spans == serial_seconds) keeps
/// holding.
template <class Report>
double push_patch_spans(SpanLog& log, std::uint64_t parent,
                        std::int64_t batch, double start,
                        const core::StreamSlot<Report>& slot) {
  if (slot.patch_seconds > 0) {
    log.push(parent, "mram-patch", "patch", batch, start, slot.patch_seconds);
  }
  start += slot.patch_seconds;
  // A replication patch from the drift controller (copy adjust or
  // relocate) follows the mutation patch.
  if (slot.adapt_seconds > 0) {
    log.push(parent, "adapt-patch", "patch", batch, start,
             slot.adapt_seconds);
  }
  return start + slot.adapt_seconds;
}

}  // namespace

double append_lane_spans(SpanLog& log, std::uint64_t parent, std::size_t batch,
                         const core::PhaseWindows& w,
                         const core::BatchSlot& slot) {
  const std::int64_t bi = static_cast<std::int64_t>(batch);
  const std::vector<core::StageStep>& trace = slot.report.trace;
  // Host prefix = the leading kHost trace entries, then the device-bound
  // remainder — the same split the stream uses for pre_seconds.
  std::size_t step = 0;
  double cursor = w.pre_start;
  for (; step < trace.size() && trace[step].side == core::StageSide::kHost;
       ++step) {
    log.push(parent, trace[step].name, "host", bi, cursor,
             trace[step].seconds);
    cursor += trace[step].seconds;
  }
  // The device stages start after any patch work and still end exactly at
  // w.device_end.
  const double device_start =
      push_patch_spans(log, parent, bi, w.device_start, slot);
  cursor = device_start;
  for (; step < trace.size(); ++step) {
    log.push(parent, trace[step].name, "device", bi, cursor,
             trace[step].seconds);
    cursor += trace[step].seconds;
  }
  return device_start;
}

double append_lane_spans(SpanLog& log, std::uint64_t parent, std::size_t batch,
                         const core::PhaseWindows& w,
                         const core::MultiHostBatchSlot& slot) {
  const std::int64_t bi = static_cast<std::int64_t>(batch);
  const core::MultiHostReport& r = slot.report;
  log.push(parent, "cluster-filter", "coord", bi, w.pre_start,
           r.coord_filter_seconds);
  log.push(parent, "broadcast", "net", bi,
           w.pre_start + r.coord_filter_seconds, r.broadcast_seconds);
  // The host phases start after any fleet-wide patch work and still end
  // exactly at w.device_end.
  const double fleet_start =
      push_patch_spans(log, parent, bi, w.device_start, slot);
  for (std::size_t h = 0; h < r.host_slots.size(); ++h) {
    const core::MultiHostHostSlot& hs = r.host_slots[h];
    if (!hs.active) continue;
    const std::int64_t host = static_cast<std::int64_t>(h);
    if (hs.host_seconds > 0) {
      log.push(parent, "alg2-schedule", "host", bi, fleet_start,
               hs.host_seconds)
          .host = host;
    }
    if (hs.device_seconds > 0) {
      log.push(parent, "device-phase", "host", bi,
               fleet_start + hs.host_seconds, hs.device_seconds)
          .host = host;
    }
  }
  log.push(parent, "gather", "net", bi, w.post_start, r.gather_seconds);
  log.push(parent, "interhost-merge", "coord", bi,
           w.post_start + r.gather_seconds, r.coord_merge_seconds);
  return fleet_start;
}

void append_spans(SpanLog& log, const core::BatchPipelineReport& report) {
  const std::vector<core::PhaseWindows> windows = core::batch_timeline(report);
  // Per batch: the root, a lane span per stage plus two patch spans, and a
  // query span with one span per stage for every query.
  std::size_t most = 0;
  for (const core::BatchSlot& slot : report.slots) {
    const std::size_t stages = slot.report.trace.size();
    most += 3 + stages + slot.report.neighbors.size() * (1 + stages);
  }
  log.reserve_more(most);
  std::uint64_t first_qid = 0;
  std::vector<double> stage_start;
  for (std::size_t b = 0; b < report.slots.size(); ++b) {
    const core::BatchSlot& slot = report.slots[b];
    const core::PhaseWindows& w = windows[b];
    const std::vector<core::StageStep>& trace = slot.report.trace;
    const std::size_t nq = slot.report.neighbors.size();
    const std::int64_t bi = static_cast<std::int64_t>(b);
    // Prefer the id the pipeline stamped at run time; a report assembled
    // without a span log attached falls back to the running base.
    if (slot.report.query_costs) {
      first_qid = slot.report.query_costs->first_query_id;
    }

    const std::uint64_t root =
        log.push(0, "batch", "batch", bi, w.pre_start, w.done - w.pre_start)
            .id;
    const std::size_t first = log.size();
    append_lane_spans(log, root, b, w, slot);

    if (nq == 0) continue;
    // The stage spans just laid out, in trace order (the patch spans sit
    // between the host and the device stages).
    stage_start.clear();
    for (std::size_t i = first; i < log.size(); ++i) {
      const Span& s = log.spans()[i];
      if (s.category != "patch") stage_start.push_back(s.start_seconds);
    }
    const double uniform = 1.0 / static_cast<double>(nq);
    const std::vector<double>* weight =
        slot.report.query_costs ? &slot.report.query_costs->device_weight
                                : nullptr;
    for (std::size_t q = 0; q < nq; ++q) {
      const std::int64_t gid =
          static_cast<std::int64_t>(first_qid + static_cast<std::uint64_t>(q));
      // Host-side stages split uniformly (filter/schedule/merge touch every
      // query alike); device stages split by the scheduled per-query work.
      const double dev_share =
          (weight != nullptr && q < weight->size()) ? (*weight)[q] : uniform;
      const auto share = [&](const core::StageStep& s) {
        return s.side == core::StageSide::kHost ? uniform : dev_share;
      };
      double total = 0;
      for (const core::StageStep& s : trace) total += s.seconds * share(s);
      Span& qs = log.push(root, "query", "query", bi, w.pre_start, total);
      qs.query = gid;
      const std::uint64_t qid = qs.id;
      for (std::size_t k = 0; k < trace.size(); ++k) {
        log.push(qid, trace[k].name, "query-stage", bi, stage_start[k],
                 trace[k].seconds * share(trace[k]))
            .query = gid;
      }
    }
    first_qid += nq;
  }
}

void append_spans(SpanLog& log, const core::MultiHostPipelineReport& report) {
  const std::vector<core::PhaseWindows> windows = core::batch_timeline(report);
  // Per batch: the root, six coordinator, network and patch spans, two per
  // host, and a query span with its five phase spans for every query.
  std::size_t most = 0;
  for (const core::MultiHostBatchSlot& slot : report.slots) {
    most += 7 + 2 * slot.report.host_slots.size() +
            6 * slot.report.neighbors.size();
  }
  log.reserve_more(most);
  std::uint64_t first_qid = 0;
  for (std::size_t b = 0; b < report.slots.size(); ++b) {
    const core::MultiHostBatchSlot& slot = report.slots[b];
    const core::MultiHostReport& r = slot.report;
    const core::PhaseWindows& w = windows[b];
    const std::int64_t bi = static_cast<std::int64_t>(b);
    const std::size_t nq = r.neighbors.size();

    const std::uint64_t root =
        log.push(0, "batch", "batch", bi, w.pre_start, w.done - w.pre_start)
            .id;
    const double fleet_start = append_lane_spans(log, root, b, w, slot);

    if (nq == 0) continue;
    // Every query crosses the same five serial phases, so per-query shares
    // are uniform; their durations sum to r.seconds across the batch.
    const double uniform = 1.0 / static_cast<double>(nq);
    struct Phase {
      const char* name;
      double start;
      double seconds;
    };
    const Phase phases[] = {
        {"cluster-filter", w.pre_start, r.coord_filter_seconds},
        {"broadcast", w.pre_start + r.coord_filter_seconds,
         r.broadcast_seconds},
        {"host-search", fleet_start, r.slowest_host_seconds},
        {"gather", w.post_start, r.gather_seconds},
        {"interhost-merge", w.post_start + r.gather_seconds,
         r.coord_merge_seconds},
    };
    for (std::size_t q = 0; q < nq; ++q) {
      const std::int64_t gid =
          static_cast<std::int64_t>(first_qid + static_cast<std::uint64_t>(q));
      double total = 0;
      for (const Phase& p : phases) total += p.seconds * uniform;
      Span& qs = log.push(root, "query", "query", bi, w.pre_start, total);
      qs.query = gid;
      const std::uint64_t qid = qs.id;
      for (const Phase& p : phases) {
        log.push(qid, p.name, "query-stage", bi, p.start, p.seconds * uniform)
            .query = gid;
      }
    }
    first_qid += nq;
  }
}

std::string span_log_json(const SpanLog& log) {
  JsonWriter w;
  w.begin_object();
  append_provenance(w);
  w.kv("n_spans", static_cast<std::uint64_t>(log.size()));
  w.key("spans").begin_array();
  // The writer has opened the array; the records and the closing brackets
  // go straight into its buffer.
  std::string out = w.take();
  const std::vector<Span>& spans = log.spans();
  append_records(
      out, spans.size(),
      [&spans](auto& c, std::size_t i) {
        const Span& s = spans[i];
        if (i > 0) c.raw(",");
        c.raw("{\"id\":")
            .num(s.id)
            .raw(",\"parent\":")
            .num(s.parent)
            .raw(",\"name\":")
            .str(s.name)
            .raw(",\"cat\":")
            .str(s.category)
            .raw(",\"batch\":")
            .num(s.batch)
            .raw(",\"query\":")
            .num(s.query)
            .raw(",\"host\":")
            .num(s.host)
            .raw(",\"start_seconds\":")
            .num(s.start_seconds)
            .raw(",\"duration_seconds\":")
            .num(s.duration_seconds)
            .raw("}");
      },
      "]}");
  return out;
}

}  // namespace upanns::obs
