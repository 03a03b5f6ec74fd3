// The three benchmark workloads (see README.md for why each exists and
// which layers it exercises or bypasses).
#pragma once

#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

void run_batch_paper(const RunOptions& o, Result& r);
void run_online_zipf(const RunOptions& o, Result& r);
void run_fleet_rw(const RunOptions& o, Result& r);

/// The single-host set-up shared by batch_paper and online_zipf: a SIFT-like
/// index on 112 DPUs (512 clusters at full size, ~4.6 per DPU as in the
/// paper's 4096 on 896), placed from a separate Zipf query history.
struct SingleHost {
  BuiltIndex built;
  data::Dataset queries;  ///< region-Zipf query pool served by the workload
  data::Dataset heldout;  ///< recall set, disjoint seed from the pool
  ivf::ClusterStats stats;
  std::unique_ptr<core::UpAnnsEngine> engine;
};

std::unique_ptr<SingleHost> make_single_host(const RunOptions& o,
                                             std::size_t nprobe,
                                             std::size_t n_queries,
                                             std::size_t n_heldout,
                                             SetupTimes& t);

/// Set-up repetitions per run: setup_s is their median.
int setup_reps(const RunOptions& o);

}  // namespace perfbench
