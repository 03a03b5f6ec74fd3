#include "obs/span.hpp"

#include "obs/json.hpp"
#include "obs/provenance.hpp"

namespace upanns::obs {

Span& SpanLog::push(Span s) {
  s.id = static_cast<std::uint64_t>(spans_.size()) + 1;
  spans_.push_back(std::move(s));
  return spans_.back();
}

namespace {

Span make_span(std::uint64_t parent, const char* name, const char* category,
               std::int64_t batch, double start, double duration) {
  Span s;
  s.parent = parent;
  s.name = name;
  s.category = category;
  s.batch = batch;
  s.start_seconds = start;
  s.duration_seconds = duration;
  return s;
}

/// The mram-patch / adapt-patch spans that lead a batch's device phase from
/// `start`; returns where the rest of the phase starts. Both share the
/// "patch" category, so the span accounting identity (query spans + patch
/// spans == serial_seconds) keeps holding.
template <class Report>
double push_patch_spans(SpanLog& log, std::uint64_t root, std::int64_t batch,
                        double start, const core::StreamSlot<Report>& slot) {
  if (slot.patch_seconds > 0) {
    log.push(make_span(root, "mram-patch", "patch", batch, start,
                       slot.patch_seconds));
  }
  start += slot.patch_seconds;
  if (slot.adapt_seconds > 0) {
    log.push(make_span(root, "adapt-patch", "patch", batch, start,
                       slot.adapt_seconds));
  }
  return start + slot.adapt_seconds;
}

}  // namespace

void append_spans(SpanLog& log, const core::BatchPipelineReport& report) {
  const std::vector<core::PhaseWindows> windows = core::batch_timeline(report);
  std::uint64_t first_qid = 0;
  for (std::size_t b = 0; b < report.slots.size(); ++b) {
    const core::BatchSlot& slot = report.slots[b];
    const core::PhaseWindows& w = windows[b];
    const std::size_t nq = slot.report.neighbors.size();
    const std::int64_t bi = static_cast<std::int64_t>(b);
    // Prefer the id the pipeline stamped at run time; a report assembled
    // without a span log attached falls back to the running base.
    if (slot.report.query_costs) {
      first_qid = slot.report.query_costs->first_query_id;
    }

    const std::uint64_t root = log.push(make_span(0, "batch", "batch", bi,
                                                  w.pre_start,
                                                  w.done - w.pre_start))
                                   .id;

    // Lay the stages out exactly like the Perfetto exporter: host prefix
    // from pre_start, then (patch +) the remainder from device_start.
    struct Placed {
      const core::StageStep* step;
      double start;
    };
    std::vector<Placed> placed;
    std::size_t step = 0;
    double cursor = w.pre_start;
    for (; step < slot.report.trace.size(); ++step) {
      const core::StageStep& s = slot.report.trace[step];
      if (s.side != core::StageSide::kHost) break;
      placed.push_back({&s, cursor});
      cursor += s.seconds;
    }
    cursor = push_patch_spans(log, root, bi, w.device_start, slot);
    for (; step < slot.report.trace.size(); ++step) {
      const core::StageStep& s = slot.report.trace[step];
      placed.push_back({&s, cursor});
      cursor += s.seconds;
    }
    for (const Placed& p : placed) {
      log.push(make_span(root, p.step->name, "stage", bi, p.start,
                         p.step->seconds));
    }

    if (nq == 0) continue;
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
      double total = 0;
      for (const Placed& p : placed) {
        total += p.step->seconds *
                 (p.step->side == core::StageSide::kHost ? uniform : dev_share);
      }
      Span qs = make_span(root, "query", "query", bi, w.pre_start, total);
      qs.query = gid;
      const std::uint64_t qid = log.push(std::move(qs)).id;
      for (const Placed& p : placed) {
        const double share =
            p.step->side == core::StageSide::kHost ? uniform : dev_share;
        Span cs = make_span(qid, p.step->name, "query-stage", bi, p.start,
                            p.step->seconds * share);
        cs.query = gid;
        log.push(std::move(cs));
      }
    }
    first_qid += nq;
  }
}

void append_spans(SpanLog& log, const core::MultiHostPipelineReport& report) {
  const std::vector<core::PhaseWindows> windows = core::batch_timeline(report);
  std::uint64_t first_qid = 0;
  for (std::size_t b = 0; b < report.slots.size(); ++b) {
    const core::MultiHostBatchSlot& slot = report.slots[b];
    const core::MultiHostReport& r = slot.report;
    const core::PhaseWindows& w = windows[b];
    const std::int64_t bi = static_cast<std::int64_t>(b);
    const std::size_t nq = r.neighbors.size();

    const std::uint64_t root = log.push(make_span(0, "batch", "batch", bi,
                                                  w.pre_start,
                                                  w.done - w.pre_start))
                                   .id;

    log.push(make_span(root, "cluster-filter", "coord", bi, w.pre_start,
                       r.coord_filter_seconds));
    log.push(make_span(root, "broadcast", "net", bi,
                       w.pre_start + r.coord_filter_seconds,
                       r.broadcast_seconds));
    // The fleet-wide patch work leads the device phase (same position the
    // single-host stream gives it).
    const double fleet_start =
        push_patch_spans(log, root, bi, w.device_start, slot);
    for (std::size_t h = 0; h < r.host_slots.size(); ++h) {
      const core::MultiHostHostSlot& hs = r.host_slots[h];
      if (!hs.active) continue;
      if (hs.host_seconds > 0) {
        Span s = make_span(root, "alg2-schedule", "host", bi, fleet_start,
                           hs.host_seconds);
        s.host = static_cast<std::int64_t>(h);
        log.push(std::move(s));
      }
      if (hs.device_seconds > 0) {
        Span s = make_span(root, "device-phase", "host", bi,
                           fleet_start + hs.host_seconds, hs.device_seconds);
        s.host = static_cast<std::int64_t>(h);
        log.push(std::move(s));
      }
    }
    log.push(make_span(root, "gather", "net", bi, w.post_start,
                       r.gather_seconds));
    log.push(make_span(root, "interhost-merge", "coord", bi,
                       w.post_start + r.gather_seconds,
                       r.coord_merge_seconds));

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
      Span qs = make_span(root, "query", "query", bi, w.pre_start, total);
      qs.query = gid;
      const std::uint64_t qid = log.push(std::move(qs)).id;
      for (const Phase& p : phases) {
        Span cs = make_span(qid, p.name, "query-stage", bi, p.start,
                            p.seconds * uniform);
        cs.query = gid;
        log.push(std::move(cs));
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
  for (const Span& s : log.spans()) {
    w.begin_object()
        .kv("id", s.id)
        .kv("parent", s.parent)
        .kv("name", s.name)
        .kv("cat", s.category)
        .kv("batch", s.batch)
        .kv("query", s.query)
        .kv("host", s.host)
        .kv("start_seconds", s.start_seconds)
        .kv("duration_seconds", s.duration_seconds)
        .end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace upanns::obs
