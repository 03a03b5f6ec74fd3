#include "pim/cost_model.hpp"

#include <algorithm>

namespace upanns::pim {

std::uint64_t DpuCostModel::phase_cycles(std::span<const TaskletWork> work) {
  if (work.empty()) return 0;
  const unsigned gap = issue_gap(static_cast<unsigned>(work.size()));

  std::uint64_t sum_instr = 0;
  std::uint64_t sum_dma = 0;
  std::uint64_t sum_crit = 0;
  std::uint64_t max_path = 0;
  for (const TaskletWork& w : work) {
    sum_instr += w.instructions + w.critical_instructions;
    sum_dma += w.dma_cycles;
    sum_crit += w.critical_instructions;
    const std::uint64_t path =
        static_cast<std::uint64_t>(gap) * w.instructions + w.dma_cycles;
    max_path = std::max(max_path, path);
  }
  // Critical sections execute with at most one tasklet making progress, so
  // they add on top of the parallel portion at the saturated issue gap.
  const std::uint64_t crit_serial =
      sum_crit * static_cast<std::uint64_t>(hw::kPipelineSaturation);
  return std::max({sum_instr, sum_dma, max_path}) + crit_serial;
}

}  // namespace upanns::pim
