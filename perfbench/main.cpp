// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload batch_paper|online_zipf|fleet_rw --seed N
//             --seconds S --trace 0|1 [--tiny]
//
// Prints progress and set-up lines, then one JSON record as the last line:
// provenance, the end-to-end and per-layer metrics by name, the correctness
// counts and the signature of values that must repeat exactly. run.py builds
// this program and turns the record into the benchmark result, taking the
// metric units from BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Workload {
  const char* name;
  void (*run)(const RunOptions& o, Result& r);
};

constexpr Workload kWorkloads[] = {
    {"batch_paper", run_batch_paper},
    {"online_zipf", run_online_zipf},
    {"fleet_rw", run_fleet_rw},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload batch_paper|online_zipf|fleet_rw "
               "--seed N --seconds S --trace 0|1 [--tiny]\n",
               argv0);
  return 2;
}

void write_metrics(obs::JsonWriter& w, const char* key,
                   const std::map<std::string, double>& m) {
  w.key(key).begin_object();
  for (const auto& [name, value] : m) w.kv(name, value);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], &end, 10);
      have_seed = *end == '\0';
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], &end);
      have_seconds = *end == '\0' && o.seconds > 0;
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      o.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage(argv[0]);

  const Workload* wl = find_workload(o.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return usage(argv[0]);
  }

  const std::string provenance = provenance_json();
  std::printf("provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  Result r;
  try {
    wl->run(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  r.e2e("peak_rss_mb", peak_rss_mb());

  obs::JsonWriter w;
  w.begin_object();
  w.kv("workload", o.workload);
  w.kv("seed", static_cast<std::uint64_t>(o.seed));
  w.kv("trace", o.trace);
  w.kv("tiny", o.tiny);
  w.key("provenance").raw(provenance);
  w.kv("correct", r.errors.empty());
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.key("errors").begin_array();
  for (const std::string& e : r.errors) w.value(e);
  w.end_array();
  write_metrics(w, "end_to_end", r.end_to_end);
  if (o.trace) write_metrics(w, "per_layer", r.per_layer);
  w.key("signature").begin_object();
  for (const auto& [name, value] : r.signature) w.kv(name, value);
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
