// Cycle-level cost model of a single UPMEM DPU. The simulator runs kernels
// *functionally* (producing real search results) while this model converts
// the observed instruction and DMA traffic into cycles.
//
// Timing rules (Gómez-Luna et al. 2022; UPMEM SDK):
//  * The in-order 14-stage pipeline issues at most one instruction per cycle
//    across all tasklets; one tasklet's consecutive instructions are at
//    least max(#tasklets, 11) cycles apart (revolver dispatch). Hence with a
//    balanced load, throughput rises linearly up to 11 tasklets, then
//    flattens — exactly paper Fig 13.
//  * An MRAM DMA blocks only the issuing tasklet; concurrent DMAs from other
//    tasklets serialize on the single DMA engine.
//  * DMA latency = setup + per-byte cost, producing the Fig 7 curve.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/hw_specs.hpp"

namespace upanns::pim {

/// Work observed for one tasklet during one barrier-delimited phase.
struct TaskletWork {
  std::uint64_t instructions = 0;  ///< issued instruction slots
  std::uint64_t dma_cycles = 0;    ///< cycles spent blocked on MRAM DMA
  std::uint64_t critical_instructions = 0;  ///< under a semaphore/mutex
};

class DpuCostModel {
 public:
  /// Legalized transfer size (8-byte aligned, within [8, 2048]).
  static constexpr std::size_t legalize_transfer(std::size_t bytes) {
    bytes = std::clamp(bytes, hw::kMramMinTransfer, hw::kMramMaxTransfer);
    return (bytes + 7) / 8 * 8;
  }

  /// Latency in whole cycles of one MRAM<->WRAM DMA transfer of `bytes`:
  /// setup plus the per-byte cost of the legalized size (`bytes` clamped to
  /// the hardware's [8, 2048] range and rounded up to a multiple of 8,
  /// mirroring what the DMA engine actually moves). That is 77 + legal / 2,
  /// exact in integers for every legal size.
  static constexpr std::uint64_t mram_dma_cycles(std::size_t bytes) {
    constexpr auto kSetup = static_cast<std::uint64_t>(hw::kMramSetupCycles);
    constexpr auto kBytesPerCycle =
        static_cast<std::size_t>(1.0 / hw::kMramCyclesPerByte);
    static_assert(kSetup == hw::kMramSetupCycles &&
                  kBytesPerCycle * hw::kMramCyclesPerByte == 1.0 &&
                  hw::kMramMinTransfer % kBytesPerCycle == 0 &&
                  8 % kBytesPerCycle == 0);
    return kSetup + legalize_transfer(bytes) / kBytesPerCycle;
  }

  /// Cycles to move `bytes` the way mram_read loops do: maximal legal
  /// transfers of 2048 bytes, then one of the remainder. Zero bytes cost
  /// nothing.
  static constexpr std::uint64_t mram_transfer_cycles(std::size_t bytes) {
    const std::size_t rest = bytes % hw::kMramMaxTransfer;
    return bytes / hw::kMramMaxTransfer *
               mram_dma_cycles(hw::kMramMaxTransfer) +
           (rest > 0 ? mram_dma_cycles(rest) : 0);
  }

  /// Issue gap of the revolver pipeline for n active tasklets.
  static unsigned issue_gap(unsigned n_tasklets) {
    return n_tasklets > hw::kPipelineSaturation ? n_tasklets
                                                : hw::kPipelineSaturation;
  }

  /// Cycles for one barrier-delimited phase given per-tasklet work.
  /// Bounds combined:
  ///   issue bandwidth:  sum(instructions)
  ///   DMA engine:       sum(dma_cycles)
  ///   per-tasklet path: gap * instructions_t + dma_t
  ///   serialization:    critical sections execute one tasklet at a time.
  static std::uint64_t phase_cycles(std::span<const TaskletWork> work);

  /// Fixed cost of a barrier crossing (wake-up + bookkeeping).
  static constexpr std::uint64_t barrier_cycles() { return 64; }

  static double cycles_to_seconds(std::uint64_t cycles) {
    return static_cast<double>(cycles) / hw::kDpuFreqHz;
  }
};

}  // namespace upanns::pim
