// Functional + timed model of UPMEM DPUs.
//
// A kernel ("DPU program") is expressed as a sequence of *phases* separated
// by barriers — exactly how the UpANNS kernel is structured on real hardware
// (paper Fig 6: LUT build / partial-sum build / distance calc / top-k merge,
// synchronized by Barriers 0-3). The simulator executes each phase for every
// tasklet, accumulating the tasklet's instruction and DMA traffic, then
// charges the phase using DpuCostModel::phase_cycles. Tasklets within a phase
// run sequentially in tasklet-id order, which makes shared-WRAM updates
// deterministic; mutual exclusion on real hardware is accounted through
// TaskletCtx::critical_instr.
//
// DPU kernels on real UPMEM must be C. The kernels written against this API
// deliberately use a C-like subset (no allocation, no exceptions, explicit
// WRAM offsets, 8-byte-aligned DMA) so they port 1:1 to dpu-upmem-dpurte.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/hw_specs.hpp"
#include "pim/cost_model.hpp"
#include "pim/wram.hpp"

namespace upanns::obs {
class MetricsRegistry;
}  // namespace upanns::obs

namespace upanns::pim {

class Dpu;

/// Per-tasklet execution context handed to kernel phases.
class TaskletCtx {
 public:
  TaskletCtx(Dpu& dpu, unsigned id, unsigned n_tasklets)
      : dpu_(&dpu), id_(id), n_tasklets_(n_tasklets) {}

  unsigned id() const { return id_; }
  unsigned n_tasklets() const { return n_tasklets_; }
  Dpu& dpu() { return *dpu_; }

  /// DMA MRAM -> local buffer. Copies the bytes and charges DMA latency.
  /// `bytes` must respect the hardware limits (8-aligned, <= 2048); larger
  /// requests are split into maximal legal chunks like mram_read loops do
  /// in real DPU code.
  void mram_read(std::size_t mram_off, void* dst, std::size_t bytes);

  /// Borrowed read-only view of MRAM. Charges the *identical*
  /// DpuCostModel::mram_dma_cycles chunking as mram_read(mram_off, _, bytes)
  /// but returns a pointer into the DPU's MRAM backing store instead of
  /// copying — the zero-copy path for read-only codebook segments, id
  /// buffers and token-stream scans. On real hardware this is still a
  /// WRAM-staging DMA; only the host-side simulation skips the memcpy.
  ///
  /// Aliasing rules (see DESIGN.md §9): a view is invalidated by
  /// mram_alloc / mram_rewind / host_write on the same DPU; kernels must
  /// consume a view before issuing the next DMA charge against the region
  /// it covers and never retain one across phases.
  const std::uint8_t* mram_view(std::size_t mram_off, std::size_t bytes);

  /// mram_view typed shorthand. Alignment is guaranteed by mram_alloc's
  /// 8-byte granularity plus the kernels' power-of-two element sizes.
  template <typename T>
  const T* mram_view_as(std::size_t mram_off, std::size_t bytes) {
    return reinterpret_cast<const T*>(mram_view(mram_off, bytes));
  }

  /// DMA local buffer -> MRAM.
  void mram_write(std::size_t mram_off, const void* src, std::size_t bytes);

  /// Charge n issued instructions.
  void instr(std::uint64_t n) { work_.instructions += n; }

  /// Charge n instructions executed under a semaphore/mutex.
  void critical_instr(std::uint64_t n) { work_.critical_instructions += n; }

  const TaskletWork& work() const { return work_; }
  void reset_work() { work_.clear(); }

 private:
  Dpu* dpu_;
  unsigned id_;
  unsigned n_tasklets_;
  TaskletWork work_;
};

/// A barrier-phased DPU kernel.
class DpuKernel {
 public:
  virtual ~DpuKernel() = default;
  /// One-time setup before tasklets start (WRAM layout etc.). n_tasklets is
  /// the launch's thread count — WRAM budgets depend on it.
  virtual void setup(Dpu&, unsigned n_tasklets) { (void)n_tasklets; }
  virtual unsigned n_phases() const = 0;
  virtual void run_phase(unsigned phase, TaskletCtx& ctx) = 0;
};

struct DpuRunStats {
  std::uint64_t cycles = 0;
  std::vector<std::uint64_t> phase_cycles;
  std::uint64_t instructions = 0;
  std::uint64_t dma_cycles = 0;

  double seconds() const { return DpuCostModel::cycles_to_seconds(cycles); }
};

/// One DPU: 64 MB MRAM + 64 KB WRAM + up to 24 tasklets.
class Dpu {
 public:
  explicit Dpu(std::uint32_t id = 0) : id_(id), wram_(hw::kWramBytes) {}

  std::uint32_t id() const { return id_; }
  WramAllocator& wram() { return wram_; }

  // -------- MRAM management (host-side layout, like dpu_alloc symbols).
  /// Reserve `bytes` of MRAM; returns the offset. Throws when the 64 MB
  /// capacity is exceeded — the same constraint that forces billion-scale
  /// datasets across many DPUs.
  std::size_t mram_alloc(std::size_t bytes, const char* tag = "");
  std::size_t mram_used() const { return mram_.size(); }

  /// Mark/rewind for per-batch scratch regions (query tables, results):
  /// rewinding releases everything allocated after the mark so repeated
  /// search batches do not leak MRAM.
  std::size_t mram_mark() const { return mram_.size(); }
  void mram_rewind(std::size_t mark);

  /// Region reuse for updatable list images: mram_release returns a static
  /// region to a free list, and mram_alloc_reuse prefers a released region
  /// (first fit, splitting the remainder back) over growing the bump
  /// allocator — so a list that outgrows its slack relocates without leaking
  /// the abandoned region. Released regions below a rewind mark survive
  /// rewinds; regions at or past the mark are dropped with the tail.
  std::size_t mram_alloc_reuse(std::size_t bytes, const char* tag = "");
  void mram_release(std::size_t off, std::size_t bytes);
  /// Bytes currently sitting on the free list (reuse-visibility for tests).
  std::size_t mram_released_bytes() const;

  /// Untimed host-side MRAM access (timing belongs to the transfer engine).
  void host_write(std::size_t off, const void* src, std::size_t bytes);
  void host_read(std::size_t off, void* dst, std::size_t bytes) const;

  const std::uint8_t* mram_data(std::size_t off) const { return mram_.data() + off; }
  std::uint8_t* mram_data(std::size_t off) { return mram_.data() + off; }

  /// Execute a kernel with n_tasklets hardware threads; returns the timing.
  DpuRunStats run(DpuKernel& kernel, unsigned n_tasklets);

  /// Cumulative busy cycles across all runs (for utilization/energy stats).
  std::uint64_t busy_cycles() const { return busy_cycles_; }

 private:
  struct FreeRegion {
    std::size_t off;
    std::size_t bytes;
  };

  std::uint32_t id_;
  std::vector<std::uint8_t> mram_;
  std::vector<FreeRegion> free_regions_;  ///< sorted by offset, coalesced
  WramAllocator wram_;
  std::uint64_t busy_cycles_ = 0;
  // Launch-object pool: TaskletCtx/TaskletWork vectors reused across run()
  // calls (rebuilt only when n_tasklets changes) so repeated launches on the
  // serving path construct nothing. run() is per-DPU serial, so the pool
  // needs no synchronization.
  std::vector<TaskletCtx> run_ctxs_;
  std::vector<TaskletWork> run_works_;
};

/// A collection of DPUs driven by the host, e.g. 7 DIMMs x 128 DPUs.
/// Kernel launches are evaluated on the host thread pool (simulation speed)
/// while simulated launch time is max-over-DPUs (they run concurrently).
class PimSystem {
 public:
  explicit PimSystem(std::size_t n_dpus = hw::kDefaultDpus);

  std::size_t n_dpus() const { return dpus_.size(); }
  Dpu& dpu(std::size_t i) { return dpus_[i]; }
  const Dpu& dpu(std::size_t i) const { return dpus_[i]; }

  std::size_t n_dimms() const {
    return (dpus_.size() + hw::kDpusPerDimm - 1) / hw::kDpusPerDimm;
  }

  /// Launch `kernel_for(dpu_index)` on every DPU that has work (nullptr
  /// skips a DPU). Kernels are caller-owned so their outputs outlive the
  /// launch. Returns the simulated wall time: max over DPUs + fixed launch
  /// latency.
  ///
  /// Host threads claim active DPUs one at a time from a shared cursor,
  /// largest `expected_work` first (one finite entry per DPU, any unit; ties
  /// in index order), so the longest simulations start first and no thread
  /// idles behind a late long one. The order changes host time only: every
  /// DPU runs alone on its own state, so the returned stats are identical
  /// for any order. A kernel that throws makes launch() rethrow once every
  /// claimed DPU has finished.
  struct LaunchStats {
    double seconds = 0;             ///< simulated launch wall time
    std::vector<double> dpu_seconds;  ///< per-DPU busy time this launch
    std::vector<DpuRunStats> dpu_stats;  ///< per-DPU detail (phase cycles)
    std::uint64_t max_cycles = 0;
    std::size_t slowest_dpu = 0;
  };
  LaunchStats launch(const std::function<DpuKernel*(std::size_t)>& kernel_for,
                     unsigned n_tasklets,
                     std::span<const double> expected_work);

  /// Attach a metrics registry: every launch records per-DPU busy seconds,
  /// tasklet occupancy, per-phase cycle totals and instruction/DMA counters.
  /// nullptr (the default) keeps launch() untouched.
  void set_metrics(obs::MetricsRegistry* registry) { metrics_ = registry; }

 private:
  std::vector<Dpu> dpus_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace upanns::pim
