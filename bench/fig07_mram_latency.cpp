// Figure 7: MRAM read latency vs transfer size. Expected shape: latency
// grows slowly from 8 B to ~256 B (setup-dominated) and almost linearly
// beyond — the knee that motivates the 16-vector default read size.
#include "bench_common.hpp"
#include "pim/cost_model.hpp"

using namespace upanns;

int main() {
  metrics::banner("Figure 7", "MRAM read latency vs transfer size");
  metrics::Table table({"bytes", "latency_cycles", "latency_ns",
                        "cycles_per_byte"});
  for (std::size_t bytes = 8; bytes <= 2048; bytes *= 2) {
    const auto cycles =
        static_cast<double>(pim::DpuCostModel::mram_dma_cycles(bytes));
    table.add_row({std::to_string(bytes), metrics::Table::fmt(cycles, 1),
                   metrics::Table::fmt(cycles / hw::kDpuFreqHz * 1e9, 1),
                   metrics::Table::fmt(cycles / static_cast<double>(bytes), 2)});
  }
  table.print();
  const auto latency = [](std::size_t bytes) {
    return static_cast<double>(pim::DpuCostModel::mram_dma_cycles(bytes));
  };
  const double r_small = latency(256) / latency(8);
  const double r_large = latency(2048) / latency(256);
  std::printf("\n8B->256B latency ratio: %.2fx (setup-dominated); "
              "256B->2048B: %.2fx (near-linear)\n", r_small, r_large);
  return 0;
}
