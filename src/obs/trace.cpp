#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "common/log.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace upanns::obs {

namespace {

/// The mram-patch / adapt-patch slices that lead a batch's device phase
/// (device_seconds already includes them), parked on lane 0 until every
/// other lane is known.
class PatchLanes {
 public:
  /// Lay the batch's patch slices from `start`; returns where the rest of
  /// its device phase starts.
  template <class Report>
  double add(PipelineTrace& t, std::size_t b, double start,
             const core::StreamSlot<Report>& slot) {
    if (slot.patch_seconds > 0) {
      patch_.push_back(t.slices.size());
      t.slices.push_back(
          {"mram-patch", "patch", 0, start, slot.patch_seconds, b});
    }
    start += slot.patch_seconds;
    // A replication patch from the drift controller (copy adjust or
    // relocate) follows the mutation patch.
    if (slot.adapt_seconds > 0) {
      adapt_.push_back(t.slices.size());
      t.slices.push_back(
          {"adapt-patch", "patch", 0, start, slot.adapt_seconds, b});
    }
    return start + slot.adapt_seconds;
  }

  /// Patch and adapt lanes only exist when some batch actually used them,
  /// so read-only (and adapt-off) runs export a byte-identical trace.
  void finish(PipelineTrace& t, int next_lane) const {
    if (!patch_.empty()) {
      for (std::size_t i : patch_) t.slices[i].lane = next_lane;
      t.lanes.emplace_back(next_lane, "mram-patch");
      ++next_lane;
    }
    if (!adapt_.empty()) {
      for (std::size_t i : adapt_) t.slices[i].lane = next_lane;
      t.lanes.emplace_back(next_lane, "adapt-patch");
    }
  }

 private:
  std::vector<std::size_t> patch_, adapt_;
};

}  // namespace

PipelineTrace pipeline_trace(const core::BatchPipelineReport& report) {
  PipelineTrace t;
  t.lanes.emplace_back(0, "host");
  t.lanes.emplace_back(1, "device");
  std::size_t max_dpu_lane = 0;
  PatchLanes patches;

  const std::vector<core::PhaseWindows> windows = core::batch_timeline(report);
  for (std::size_t b = 0; b < report.slots.size(); ++b) {
    const core::BatchSlot& slot = report.slots[b];
    const core::PhaseWindows& w = windows[b];

    // Host prefix = the leading kHost trace entries, then the device-bound
    // remainder — the same split the stream uses for pre_seconds.
    std::size_t step = 0;
    double cursor = w.pre_start;
    for (; step < slot.report.trace.size(); ++step) {
      const core::StageStep& s = slot.report.trace[step];
      if (s.side != core::StageSide::kHost) break;
      t.slices.push_back({s.name, "host", 0, cursor, s.seconds, b});
      cursor += s.seconds;
    }
    // The stage slices start after any patch work and still end exactly at
    // w.device_end.
    cursor = patches.add(t, b, w.device_start, slot);
    double launch_start = cursor;
    for (; step < slot.report.trace.size(); ++step) {
      const core::StageStep& s = slot.report.trace[step];
      t.slices.push_back({s.name, "device", 1, cursor, s.seconds, b});
      if (std::string_view(s.name) == "kernel-launch") launch_start = cursor;
      cursor += s.seconds;
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
  patches.finish(t, static_cast<int>(2 + max_dpu_lane + 1));
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
  if (spans != nullptr) {
    // Async event pairs ("b"/"e" matched by cat+id) — Perfetto renders them
    // as nestable tracks above the lane slices.
    for (const Span& s : spans->spans()) {
      w.begin_object()
          .kv("ph", "b")
          .kv("name", s.name)
          .kv("cat", s.category)
          .kv("id", s.id)
          .kv("pid", 0)
          .kv("tid", 0)
          .kv("ts", s.start_seconds * 1e6)
          .key("args")
          .begin_object()
          .kv("parent", s.parent)
          .kv("batch", s.batch)
          .kv("query", s.query)
          .end_object()
          .end_object();
      w.begin_object()
          .kv("ph", "e")
          .kv("name", s.name)
          .kv("cat", s.category)
          .kv("id", s.id)
          .kv("pid", 0)
          .kv("tid", 0)
          .kv("ts", (s.start_seconds + s.duration_seconds) * 1e6)
          .end_object();
    }
  }
  w.end_array();
  w.end_object();
  return w.take();
}

PipelineTrace multihost_trace(const core::MultiHostPipelineReport& report) {
  PipelineTrace t;
  t.lanes.emplace_back(0, "coordinator");
  t.lanes.emplace_back(1, "network");
  std::size_t max_host_lane = 0;
  PatchLanes patches;

  const std::vector<core::PhaseWindows> windows = core::batch_timeline(report);
  for (std::size_t b = 0; b < report.slots.size(); ++b) {
    const core::MultiHostBatchSlot& slot = report.slots[b];
    const core::MultiHostReport& r = slot.report;
    const core::PhaseWindows& w = windows[b];

    t.slices.push_back({"cluster-filter", "host", 0, w.pre_start,
                        r.coord_filter_seconds, b});
    t.slices.push_back({"broadcast", "network", 1,
                        w.pre_start + r.coord_filter_seconds,
                        r.broadcast_seconds, b});
    // The host slices start after any fleet-wide patch work and still end
    // exactly at w.device_end.
    const double fleet_start = patches.add(t, b, w.device_start, slot);
    for (std::size_t h = 0; h < r.host_slots.size(); ++h) {
      const core::MultiHostHostSlot& s = r.host_slots[h];
      if (!s.active) continue;
      const int lane = static_cast<int>(2 + h);
      if (s.host_seconds > 0) {
        t.slices.push_back({"alg2-schedule", "host", lane, fleet_start,
                            s.host_seconds, b});
      }
      if (s.device_seconds > 0) {
        t.slices.push_back({"device-phase", "device", lane,
                            fleet_start + s.host_seconds,
                            s.device_seconds, b});
      }
      max_host_lane = std::max(max_host_lane, h);
    }
    t.slices.push_back(
        {"gather", "network", 1, w.post_start, r.gather_seconds, b});
    t.slices.push_back({"interhost-merge", "host", 0,
                        w.post_start + r.gather_seconds,
                        r.coord_merge_seconds, b});
  }

  for (std::size_t h = 0; h <= max_host_lane; ++h) {
    t.lanes.emplace_back(static_cast<int>(2 + h),
                         "host-" + std::to_string(h));
  }
  patches.finish(t, static_cast<int>(2 + max_host_lane + 1));
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
