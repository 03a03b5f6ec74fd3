// Figure 14: performance improvement from Co-occurrence Aware Encoding
// (CAE) as a function of the achieved vector-length reduction rate, per
// nprobe. The reduction rate is swept by varying the generator's subvector
// pattern density (real datasets differ in code correlation the same way).
// Expected shape: improvement grows with the length-reduction rate; LUT
// construction pays a small partial-sum overhead.
#include "bench_common.hpp"

using namespace upanns;
using namespace upanns::bench;

namespace {

/// LUT-stage seconds summed over every DPU. The overhead compares these
/// sums: the critical DPU, whose breakdown SearchReport::times holds, can
/// be a different DPU with and without CAE.
double summed_lut_seconds(const core::SearchReport& r) {
  double sum = 0;
  for (const auto& s : r.pim->dpu_stage_seconds) sum += s.lut;
  return sum;
}

}  // namespace

int main() {
  metrics::banner("Figure 14",
                  "CAE speedup vs length-reduction rate (SIFT1B-like)");
  metrics::Table table({"pattern_density", "nprobe", "len_reduction%",
                        "dist_speedup", "lut_overhead", "total_speedup"});
  for (const double density : {0.2, 0.45, 0.7, 0.9}) {
    Config cfg;
    cfg.family = data::DatasetFamily::kSiftLike;
    cfg.n = 150'000;
    cfg.scaled_ivf = 256;
    cfg.paper_ivf = 4096;
    cfg.n_dpus = 64;
    cfg.n_queries = 128;
    cfg.pattern_prob = density;
    for (const std::size_t nprobe : {std::size_t{64}, std::size_t{128}}) {
      cfg.nprobe = nprobe;
      core::UpAnnsOptions with = upanns_options(cfg);
      core::UpAnnsOptions without = upanns_options(cfg);
      without.opt_cae = false;
      const core::SearchReport on = run_upanns(cfg, &with);
      const core::SearchReport off = run_upanns(cfg, &without);
      table.add_row(
          {metrics::Table::fmt(density, 2), std::to_string(nprobe),
           metrics::Table::fmt(on.pim->length_reduction * 100.0, 1),
           metrics::Table::fmt(
               off.times.distance_calc / on.times.distance_calc, 2),
           metrics::Table::fmt(
               summed_lut_seconds(on) / summed_lut_seconds(off), 2),
           metrics::Table::fmt(off.times.total() / on.times.total(), 2)});
    }
    clear_context_cache();
  }
  table.print();
  std::printf("\nPaper shape: higher length reduction -> larger distance-"
              "stage speedup; slight LUT overhead (>1).\n");
  return 0;
}
