#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "common/log.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace upanns::obs {

namespace {

/// Draw lane-level span `s` (obs/span.hpp) as a slice on the lane that its
/// category names: 1 for the report type's second fixed category (device on
/// one host, net on a fleet), 2+h for fleet host h, 0 for the first fixed
/// category and for the patch spans until add_patch_lanes moves them.
void draw(PipelineTrace& t, const Span& s, std::string_view lane1) {
  const int lane = s.category == lane1 ? 1
                   : s.host >= 0       ? static_cast<int>(2 + s.host)
                                       : 0;
  t.slices.push_back({s.name, s.category, lane, s.start_seconds,
                      s.duration_seconds, static_cast<std::size_t>(s.batch)});
}

/// Move the patch slices onto mram-patch / adapt-patch lanes after all the
/// others. The lanes exist only when some batch used them, so read-only
/// (and adapt-off) runs export a byte-identical trace.
void add_patch_lanes(PipelineTrace& t) {
  for (const char* name : {"mram-patch", "adapt-patch"}) {
    const int lane = static_cast<int>(t.lanes.size());
    bool used = false;
    for (TraceSlice& s : t.slices) {
      if (s.name != name) continue;
      s.lane = lane;
      used = true;
    }
    if (used) t.lanes.emplace_back(lane, name);
  }
}

}  // namespace

PipelineTrace pipeline_trace(const core::BatchPipelineReport& report) {
  PipelineTrace t;
  t.lanes.emplace_back(0, "host");
  t.lanes.emplace_back(1, "device");
  std::size_t max_dpu_lane = 0;

  const std::vector<core::PhaseWindows> windows = core::batch_timeline(report);
  SpanLog batch;
  for (std::size_t b = 0; b < report.slots.size(); ++b) {
    const core::BatchSlot& slot = report.slots[b];
    batch.clear();
    // Without a kernel-launch span the DPU slices start with the device
    // stages.
    double launch_start = append_lane_spans(batch, 0, b, windows[b], slot);
    for (const Span& s : batch.spans()) {
      draw(t, s, "device");
      if (s.name == "kernel-launch") launch_start = s.start_seconds;
    }

    // Per-DPU busy slices under this batch's kernel-launch stage.
    if (slot.report.pim.has_value()) {
      const auto& busy = slot.report.pim->dpu_busy_seconds;
      for (std::size_t d = 0; d < busy.size(); ++d) {
        if (busy[d] <= 0) continue;
        t.slices.push_back({"dpu-kernel", "dpu", static_cast<int>(2 + d),
                            launch_start, busy[d], b});
        max_dpu_lane = std::max(max_dpu_lane, d);
      }
    }
  }

  for (std::size_t d = 0; d <= max_dpu_lane; ++d) {
    t.lanes.emplace_back(static_cast<int>(2 + d),
                         "dpu-" + std::to_string(d));
  }
  add_patch_lanes(t);
  return t;
}

std::string trace_json(const PipelineTrace& trace, const SpanLog* spans) {
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  w.begin_object()
      .kv("ph", "M")
      .kv("name", "process_name")
      .kv("pid", 0)
      .kv("tid", 0)
      .key("args")
      .begin_object()
      .kv("name", "upanns")
      .end_object()
      .end_object();
  for (const auto& [tid, name] : trace.lanes) {
    w.begin_object()
        .kv("ph", "M")
        .kv("name", "thread_name")
        .kv("pid", 0)
        .kv("tid", tid)
        .key("args")
        .begin_object()
        .kv("name", name)
        .end_object()
        .end_object();
  }
  for (const TraceSlice& s : trace.slices) {
    w.begin_object()
        .kv("ph", "X")
        .kv("name", s.name)
        .kv("cat", s.category)
        .kv("pid", 0)
        .kv("tid", s.lane)
        .kv("ts", s.start_seconds * 1e6)
        .kv("dur", s.duration_seconds * 1e6)
        .key("args")
        .begin_object()
        .kv("batch", static_cast<std::uint64_t>(s.batch))
        .end_object()
        .end_object();
  }
  // The async "b"/"e" event pairs of the span forest (matched by cat+id;
  // Perfetto renders them as nestable tracks above the lane slices) and
  // the closing brackets go straight into the writer's buffer. Each pair
  // opens with a comma: the process_name event always precedes it.
  std::string out = w.take();
  const std::vector<Span>* forest = spans ? &spans->spans() : nullptr;
  append_records(
      out, forest ? forest->size() : 0,
      [forest](auto& c, std::size_t i) {
        const Span& s = (*forest)[i];
        c.raw(",{\"ph\":\"b\",\"name\":")
            .str(s.name)
            .raw(",\"cat\":")
            .str(s.category)
            .raw(",\"id\":")
            .num(s.id)
            .raw(",\"pid\":0,\"tid\":0,\"ts\":")
            .num(s.start_seconds * 1e6)
            .raw(",\"args\":{\"parent\":")
            .num(s.parent)
            .raw(",\"batch\":")
            .num(s.batch)
            .raw(",\"query\":")
            .num(s.query)
            .raw("}},{\"ph\":\"e\",\"name\":")
            .str(s.name)
            .raw(",\"cat\":")
            .str(s.category)
            .raw(",\"id\":")
            .num(s.id)
            .raw(",\"pid\":0,\"tid\":0,\"ts\":")
            .num((s.start_seconds + s.duration_seconds) * 1e6)
            .raw("}");
      },
      "]}");
  return out;
}

PipelineTrace multihost_trace(const core::MultiHostPipelineReport& report) {
  PipelineTrace t;
  t.lanes.emplace_back(0, "coordinator");
  t.lanes.emplace_back(1, "network");
  std::size_t max_host_lane = 0;

  const std::vector<core::PhaseWindows> windows = core::batch_timeline(report);
  SpanLog batch;
  for (std::size_t b = 0; b < report.slots.size(); ++b) {
    const core::MultiHostBatchSlot& slot = report.slots[b];
    batch.clear();
    append_lane_spans(batch, 0, b, windows[b], slot);
    for (const Span& s : batch.spans()) draw(t, s, "net");
    for (std::size_t h = 0; h < slot.report.host_slots.size(); ++h) {
      if (slot.report.host_slots[h].active) {
        max_host_lane = std::max(max_host_lane, h);
      }
    }
  }

  for (std::size_t h = 0; h <= max_host_lane; ++h) {
    t.lanes.emplace_back(static_cast<int>(2 + h),
                         "host-" + std::to_string(h));
  }
  add_patch_lanes(t);
  return t;
}

PipelineTrace build_trace(const ivf::BuildStats& stats) {
  PipelineTrace t;
  t.lanes.emplace_back(0, "build");
  double cursor = 0;
  const auto slice = [&](const char* name, double seconds) {
    t.slices.push_back({name, "build", 0, cursor, seconds, 0});
    cursor += seconds;
  };
  slice("coarse-kmeans", stats.kmeans_seconds);
  slice("coarse-assign", stats.assign_seconds);
  slice("residual", stats.residual_seconds);
  slice("pq-train", stats.pq_train_seconds);
  slice("encode", stats.encode_seconds);
  return t;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  f.write(content.data(),
          static_cast<std::streamsize>(content.size()));
  if (!f) throw std::runtime_error("short write to " + path);
}

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

void write_text_file_guarded(const std::string& path,
                             const std::string& content, bool force) {
  if (!force && file_exists(path)) {
    common::log_warn("refusing to overwrite existing file " + path +
                     " (pass --force to overwrite)");
    throw std::runtime_error("refusing to overwrite existing file " + path +
                             " (pass --force to overwrite)");
  }
  write_text_file(path, content);
}

}  // namespace upanns::obs
