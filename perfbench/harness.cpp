#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/simd_dispatch.hpp"
#include "common/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/provenance.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

}  // namespace

const char* const kStageKeys[6] = {"filter", "schedule", "push",
                                   "launch", "gather",   "merge"};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Result::sign(const std::string& name, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  signature[name] = buf;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    errors.push_back(what);
  }
}

void Digest::add(const std::vector<common::Neighbor>& list) {
  for (const common::Neighbor& nb : list) {
    for (int b = 0; b < 4; ++b) {
      h_ ^= (nb.id >> (8 * b)) & 0xFFu;
      h_ *= 1099511628211ull;
    }
  }
  h_ ^= 0xFFu;  // list separator
  h_ *= 1099511628211ull;
}

void Digest::add(const std::vector<std::vector<common::Neighbor>>& lists) {
  for (const auto& l : lists) add(l);
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string provenance_json() {
  obs::JsonWriter w;
  w.begin_object();
  obs::append_provenance(w);
  w.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("cpu_model", cpu_model());
  w.kv("simd", common::simd_level_name(common::simd_active_level()));
  w.kv("pool_threads",
       static_cast<std::uint64_t>(common::ThreadPool::global().size()));
  w.end_object();
  return w.take();
}

BuiltIndex build_index(const IndexSpec& spec, SetupTimes& t) {
  const auto t_gen = Clock::now();
  data::SyntheticSpec s = data::sift1b_like(spec.n + spec.extra_rows, kDataSeed);
  data::Dataset all = data::generate_synthetic(s);
  BuiltIndex out;
  out.base.dim = out.extra.dim = all.dim;
  out.base.n = spec.n;
  out.extra.n = spec.extra_rows;
  out.base.values.assign(all.values.begin(),
                         all.values.begin() + spec.n * all.dim);
  out.extra.values.assign(all.values.begin() + spec.n * all.dim,
                          all.values.end());
  t.gen += seconds_since(t_gen);

  ivf::IvfBuildOptions b;
  b.n_clusters = spec.clusters;
  b.pq_m = s.pq_m();
  b.coarse_iters = 8;
  b.pq_iters = 8;
  b.coarse_train_points = std::min<std::size_t>(spec.n, 40'000);
  b.pq_train_points = std::min<std::size_t>(spec.n, 30'000);
  b.seed = kDataSeed + 1;
  ivf::BuildStats bs;
  out.index = ivf::IvfIndex::build(out.base, b, &bs);
  t.kmeans += bs.kmeans_seconds;
  t.assign += bs.assign_seconds;
  t.residual += bs.residual_seconds;
  t.pq_train += bs.pq_train_seconds;
  t.encode += bs.encode_seconds;
  return out;
}

ivf::ClusterStats history_stats(const ivf::IvfIndex& index,
                                const data::Dataset& history,
                                std::size_t nprobe, SetupTimes& t) {
  const auto t0 = Clock::now();
  ivf::ClusterStats s =
      ivf::collect_stats(index, ivf::filter_batch(index, history, nprobe));
  t.stats += seconds_since(t0);
  return s;
}

void report_setup(const std::vector<SetupTimes>& runs, Result& r) {
  std::vector<double> total, gen, kmeans, assign, pq, encode, engine;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SetupTimes& t = runs[i];
    std::printf(
        "setup[%zu] total %.3f s = gen %.3f + coarse_kmeans %.3f + "
        "coarse_assign %.3f + residual %.3f + pq_train %.3f + encode %.3f + "
        "stats %.3f + engine_load %.3f\n",
        i, t.total, t.gen, t.kmeans, t.assign, t.residual, t.pq_train,
        t.encode, t.stats, t.engine);
    total.push_back(t.total);
    gen.push_back(t.gen);
    kmeans.push_back(t.kmeans);
    assign.push_back(t.assign);
    pq.push_back(t.pq_train);
    encode.push_back(t.encode);
    engine.push_back(t.engine);
  }
  r.e2e("setup_s", median(total));
  r.layer("data.gen_s", median(gen));
  r.layer("quant.coarse_kmeans_s", median(kmeans));
  r.layer("ivf.coarse_assign_s", median(assign));
  r.layer("quant.pq_train_s", median(pq));
  r.layer("ivf.encode_s", median(encode));
  r.layer("core.engine_load_s", median(engine));
}

void SimLayers::add(const core::SearchReport& rep) {
  ++batches;
  queries += rep.neighbors.size();
  for (std::size_t i = 0; i < 6 && i < rep.trace.size(); ++i) {
    stage[i] += rep.trace[i].seconds;
  }
  lut += rep.times.lut_build;
  distance += rep.times.distance_calc;
  topk += rep.times.topk;
  if (rep.pim) {
    const core::PimExtras& px = *rep.pim;
    balance += px.balance_ratio;
    schedule_balance += px.schedule_balance;
    length_reduction += px.length_reduction;
    instructions += px.total_instructions;
    dma_cycles += px.total_dma_cycles;
    scanned += px.scanned_records;
    merge_pruned += px.merge_pruned;
    merge_insertions += px.merge_insertions;
    push_bytes += px.bytes_pushed;
    gather_bytes += px.bytes_gathered;
  }
}

void SimLayers::emit(Result& r, bool sign) const {
  if (batches == 0 || queries == 0) return;
  const double nb = static_cast<double>(batches);
  const double nq = static_cast<double>(queries);
  const auto put = [&](const std::string& name, double v) {
    r.layer(name, v);
    if (sign) r.sign(name, v);
  };
  for (int i = 0; i < 6; ++i) {
    put(std::string("sim.") + kStageKeys[i] + "_ms", stage[i] / nb * 1e3);
  }
  put("sim.lut_ms", lut / nb * 1e3);
  put("sim.distance_ms", distance / nb * 1e3);
  put("sim.topk_ms", topk / nb * 1e3);
  put("pim.balance_ratio", balance / nb);
  put("core.schedule_balance", schedule_balance / nb);
  put("pim.instr_per_query", static_cast<double>(instructions) / nq);
  put("pim.dma_cycles_per_query", static_cast<double>(dma_cycles) / nq);
  put("kernel.scanned_per_query", static_cast<double>(scanned) / nq);
  const double merges = static_cast<double>(merge_pruned + merge_insertions);
  put("kernel.merge_pruned_share",
      merges > 0 ? static_cast<double>(merge_pruned) / merges : 0.0);
  put("cae.length_reduction", length_reduction / nb);
  put("pim.push_bytes", static_cast<double>(push_bytes) / nb);
  put("pim.gather_bytes", static_cast<double>(gather_bytes) / nb);
}

core::SearchReport StagedPipeline::run(const data::Dataset& batch) {
  core::QueryStage* const stages[6] = {&filter_, &schedule_, &push_,
                                       &launch_, &gather_,   &merge_};
  core::BatchContext ctx;
  ctx.queries = &batch;
  ctx.report.pim.emplace();
  for (int i = 0; i < 6; ++i) {
    const auto t0 = Clock::now();
    stages[i]->run(qp_, ctx);
    stage_s_[i] += seconds_since(t0);
  }
  ++batches_;
  instructions_ += ctx.report.pim->total_instructions;
  return std::move(ctx.report);
}

void StagedPipeline::reset() {
  std::fill(stage_s_, stage_s_ + 6, 0.0);
  instructions_ = 0;
  batches_ = 0;
}

void StagedPipeline::emit(Result& r) const {
  if (batches_ == 0) return;
  for (int i = 0; i < 6; ++i) {
    const std::string name = i == 3 ? std::string("pim.launch_ms")
                                    : std::string("core.") + kStageKeys[i] +
                                          "_ms";
    r.layer(name, stage_s_[i] / static_cast<double>(batches_) * 1e3);
  }
  r.layer("pim.host_ns_per_instr",
          stage_s_[3] * 1e9 / static_cast<double>(instructions_));
}

}  // namespace perfbench
