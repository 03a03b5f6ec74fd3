#include "obs/report_json.hpp"

namespace upanns::obs {

void append_stage_times(JsonWriter& w, const baselines::StageTimes& t) {
  w.begin_object()
      .kv("cluster_filter", t.cluster_filter)
      .kv("lut_build", t.lut_build)
      .kv("distance_calc", t.distance_calc)
      .kv("topk", t.topk)
      .kv("transfer", t.transfer)
      .kv("total", t.total())
      .end_object();
}

void append_pim_extras(JsonWriter& w, const core::PimExtras& px) {
  w.begin_object();
  w.kv("n_dpus", px.n_dpus);
  w.kv("balance_ratio", px.balance_ratio);
  w.kv("schedule_balance", px.schedule_balance);
  w.kv("bytes_pushed", px.bytes_pushed);
  w.kv("bytes_gathered", px.bytes_gathered);
  w.kv("push_parallel", px.push_parallel);
  w.kv("length_reduction", px.length_reduction);
  w.kv("merge_insertions", px.merge_insertions);
  w.kv("merge_pruned", px.merge_pruned);
  w.kv("scanned_records", px.scanned_records);
  w.kv("total_instructions", px.total_instructions);
  w.kv("total_dma_cycles", px.total_dma_cycles);
  w.key("dpu_busy_seconds").begin_array();
  for (double s : px.dpu_busy_seconds) w.value(s);
  w.end_array();
  w.key("dpu_stage_seconds").begin_array();
  for (const auto& s : px.dpu_stage_seconds) {
    w.begin_object()
        .kv("lut", s.lut)
        .kv("dist", s.dist)
        .kv("topk", s.topk)
        .kv("total", s.total())
        .end_object();
  }
  w.end_array();
  w.end_object();
}

void append_search_report(JsonWriter& w, const core::SearchReport& r) {
  w.begin_object();
  w.kv("n_queries", r.neighbors.size());
  w.kv("qps", r.qps);
  w.kv("qps_per_watt", r.qps_per_watt);
  w.key("times");
  append_stage_times(w, r.times);
  w.key("trace").begin_array();
  for (const core::StageStep& s : r.trace) {
    w.begin_object()
        .kv("name", s.name)
        .kv("side", s.side == core::StageSide::kHost ? "host" : "device")
        .kv("seconds", s.seconds)
        .end_object();
  }
  w.end_array();
  if (r.pim.has_value()) {
    w.key("pim");
    append_pim_extras(w, *r.pim);
  }
  if (r.gpu.has_value()) {
    w.key("gpu").begin_object().kv("oom", r.gpu->oom).end_object();
  }
  w.end_object();
}

void append_multi_host_report(JsonWriter& w, const core::MultiHostReport& r) {
  w.begin_object();
  w.kv("n_queries", r.neighbors.size());
  w.kv("seconds", r.seconds);
  w.kv("qps", r.qps);
  w.kv("network_seconds", r.network_seconds);
  w.kv("broadcast_seconds", r.broadcast_seconds);
  w.kv("gather_seconds", r.gather_seconds);
  w.kv("coord_filter_seconds", r.coord_filter_seconds);
  w.kv("coord_merge_seconds", r.coord_merge_seconds);
  w.kv("slowest_host_seconds", r.slowest_host_seconds);
  w.key("host_times").begin_array();
  for (const auto& t : r.host_times) append_stage_times(w, t);
  w.end_array();
  w.key("host_slots").begin_array();
  for (const core::MultiHostHostSlot& s : r.host_slots) {
    w.begin_object()
        .kv("active", s.active)
        .kv("host_seconds", s.host_seconds)
        .kv("device_seconds", s.device_seconds)
        .kv("network_seconds", s.network_seconds)
        .end_object();
  }
  w.end_array();
  w.end_object();
}

namespace {

// The stream report envelope both schemas share; only the slot phase keys
// and the per-batch report differ between one host and a fleet.
void append_phases(JsonWriter& w, const core::BatchSlot& slot) {
  w.kv("host_seconds", slot.pre_seconds);
  w.kv("device_seconds", slot.device_seconds);
}

void append_phases(JsonWriter& w, const core::MultiHostBatchSlot& slot) {
  w.kv("pre_seconds", slot.pre_seconds);
  w.kv("device_seconds", slot.device_seconds);
  w.kv("post_seconds", slot.post_seconds);
}

void append_report(JsonWriter& w, const core::SearchReport& r) {
  append_search_report(w, r);
}

void append_report(JsonWriter& w, const core::MultiHostReport& r) {
  append_multi_host_report(w, r);
}

template <class Report>
void append_stream_report(JsonWriter& w,
                          const core::StreamReport<Report>& r) {
  w.begin_object();
  w.kv("overlapped", r.overlapped);
  w.kv("n_queries", r.n_queries);
  w.kv("qps", r.qps);
  w.kv("serial_seconds", r.serial_seconds);
  w.kv("elapsed_seconds", r.elapsed_seconds);
  w.key("slots").begin_array();
  for (const core::StreamSlot<Report>& slot : r.slots) {
    w.begin_object();
    append_phases(w, slot);
    // Patch keys only when a patch actually ran, so read-only runs stay
    // byte-identical to the pre-patch schema.
    if (slot.patch_seconds > 0) {
      w.kv("patch_seconds", slot.patch_seconds);
      w.kv("patch_bytes", slot.patch_bytes);
    }
    // Adapt keys likewise only when the drift controller acted, so runs
    // with --adapt=off (or a quiet controller) serialize byte-identically.
    if (slot.adapt_seconds > 0) {
      w.kv("adapt_seconds", slot.adapt_seconds);
      w.kv("adapt_bytes", slot.adapt_bytes);
      w.kv("adapt_action", core::adapt_action_name(slot.adapt_action));
      w.kv("adapt_drift", slot.adapt_drift);
    }
    w.key("report");
    append_report(w, slot.report);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void append_snapshot(JsonWriter& w, const MetricsSnapshot& s) {
  w.begin_object();
  w.key("counters").begin_array();
  for (const auto& c : s.counters) {
    w.begin_object().kv("name", c.name).kv("value", c.value).end_object();
  }
  w.end_array();
  w.key("gauges").begin_array();
  for (const auto& g : s.gauges) {
    w.begin_object().kv("name", g.name).kv("value", g.value).end_object();
  }
  w.end_array();
  w.key("histograms").begin_array();
  for (const auto& h : s.histograms) {
    w.begin_object();
    w.kv("name", h.name);
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.kv("min", h.min);
    w.kv("max", h.max);
    w.kv("p50", h.p50);
    w.kv("p90", h.p90);
    w.kv("p99", h.p99);
    w.key("bounds").begin_array();
    for (double b : h.bounds) w.value(b);
    w.end_array();
    w.key("bucket_counts").begin_array();
    for (std::uint64_t c : h.bucket_counts) w.value(c);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  // Windows section only when windowed instruments exist, keeping
  // pre-window consumers byte-compatible.
  if (!s.windows.empty()) {
    w.key("windows").begin_array();
    for (const auto& wi : s.windows) {
      w.begin_object();
      w.kv("name", wi.name);
      w.kv("width_seconds", wi.width_seconds);
      w.kv("slot_seconds", wi.slot_seconds);
      w.kv("now", wi.now);
      w.kv("count", wi.count);
      w.kv("rate", wi.rate);
      w.kv("p50", wi.p50);
      w.kv("p99", wi.p99);
      w.kv("p999", wi.p999);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

MetricsSnapshot snapshot_from_json(const JsonValue& v) {
  MetricsSnapshot s;
  for (const JsonValue& c : v.at("counters").array) {
    s.counters.push_back(
        {c.at("name").string,
         static_cast<std::uint64_t>(c.at("value").number)});
  }
  for (const JsonValue& g : v.at("gauges").array) {
    s.gauges.push_back({g.at("name").string, g.at("value").number});
  }
  for (const JsonValue& h : v.at("histograms").array) {
    MetricsSnapshot::HistogramValue hv;
    hv.name = h.at("name").string;
    hv.count = static_cast<std::uint64_t>(h.at("count").number);
    hv.sum = h.at("sum").number;
    hv.min = h.at("min").number;
    hv.max = h.at("max").number;
    hv.p50 = h.at("p50").number;
    hv.p90 = h.at("p90").number;
    hv.p99 = h.at("p99").number;
    for (const JsonValue& b : h.at("bounds").array) {
      hv.bounds.push_back(b.number);
    }
    for (const JsonValue& c : h.at("bucket_counts").array) {
      hv.bucket_counts.push_back(static_cast<std::uint64_t>(c.number));
    }
    s.histograms.push_back(std::move(hv));
  }
  if (v.has("windows")) {
    for (const JsonValue& wi : v.at("windows").array) {
      MetricsSnapshot::WindowValue wv;
      wv.name = wi.at("name").string;
      wv.width_seconds = wi.at("width_seconds").number;
      wv.slot_seconds = wi.at("slot_seconds").number;
      wv.now = wi.at("now").number;
      wv.count = static_cast<std::uint64_t>(wi.at("count").number);
      wv.rate = wi.at("rate").number;
      wv.p50 = wi.at("p50").number;
      wv.p99 = wi.at("p99").number;
      wv.p999 = wi.at("p999").number;
      s.windows.push_back(std::move(wv));
    }
  }
  return s;
}

namespace {
template <typename T, typename Fn>
std::string render(const T& v, Fn append) {
  JsonWriter w;
  append(w, v);
  return w.take();
}
}  // namespace

std::string stage_times_json(const baselines::StageTimes& t) {
  return render(t, append_stage_times);
}
std::string pim_extras_json(const core::PimExtras& px) {
  return render(px, append_pim_extras);
}
std::string search_report_json(const core::SearchReport& r) {
  return render(r, append_search_report);
}
std::string batch_pipeline_json(const core::BatchPipelineReport& r) {
  return render(r, append_stream_report<core::SearchReport>);
}
std::string multi_host_pipeline_json(const core::MultiHostPipelineReport& r) {
  return render(r, append_stream_report<core::MultiHostReport>);
}
std::string snapshot_json(const MetricsSnapshot& s) {
  return render(s, append_snapshot);
}

}  // namespace upanns::obs
