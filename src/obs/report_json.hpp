// Machine-readable JSON for the serving reports: SearchReport (stage times,
// trace, PIM extras including per-DPU stage seconds and balance ratios),
// the two stream reports (per-slot phase split + per-batch reports; one
// envelope, host/device keys on one host and pre/device/post on a fleet),
// MultiHostReport, and MetricsRegistry snapshots. Benches and CI consume
// these instead of scraping the stdout tables; doubles are written with
// round-trip precision so parsed values compare bit-equal (test_obs).
#pragma once

#include <string>

#include "core/backend.hpp"
#include "core/multihost.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace upanns::obs {

void append_stage_times(JsonWriter& w, const baselines::StageTimes& t);
void append_pim_extras(JsonWriter& w, const core::PimExtras& px);
void append_search_report(JsonWriter& w, const core::SearchReport& r);
void append_multi_host_report(JsonWriter& w, const core::MultiHostReport& r);
void append_snapshot(JsonWriter& w, const MetricsSnapshot& s);

/// Inverse of append_snapshot: rebuild a MetricsSnapshot from its parsed
/// JSON (`upanns_cli stats` renders metrics files through this). Throws
/// std::out_of_range / std::runtime_error on a malformed document.
MetricsSnapshot snapshot_from_json(const JsonValue& v);

std::string stage_times_json(const baselines::StageTimes& t);
std::string pim_extras_json(const core::PimExtras& px);
std::string search_report_json(const core::SearchReport& r);
std::string batch_pipeline_json(const core::BatchPipelineReport& r);
std::string multi_host_pipeline_json(const core::MultiHostPipelineReport& r);
std::string snapshot_json(const MetricsSnapshot& s);

}  // namespace upanns::obs
