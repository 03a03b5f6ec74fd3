#include "pim/dpu.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <utility>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace upanns::pim {

void TaskletCtx::mram_read(std::size_t mram_off, void* dst, std::size_t bytes) {
  auto* out = static_cast<std::uint8_t*>(dst);
  std::size_t done = 0;
  while (done < bytes) {
    const std::size_t chunk = std::min(bytes - done, hw::kMramMaxTransfer);
    work_.dma_cycles += static_cast<std::uint64_t>(
        DpuCostModel::mram_dma_cycles(chunk));
    dpu_->host_read(mram_off + done, out + done, chunk);
    done += chunk;
  }
}

const std::uint8_t* TaskletCtx::mram_view(std::size_t mram_off,
                                          std::size_t bytes) {
  // Same per-chunk DMA charge as mram_read — a view still stages through
  // WRAM on real hardware; only the simulator's memcpy is elided.
  assert(mram_off + bytes <= dpu_->mram_used());
  std::size_t done = 0;
  while (done < bytes) {
    const std::size_t chunk = std::min(bytes - done, hw::kMramMaxTransfer);
    work_.dma_cycles += static_cast<std::uint64_t>(
        DpuCostModel::mram_dma_cycles(chunk));
    done += chunk;
  }
  return dpu_->mram_data(mram_off);
}

void TaskletCtx::mram_write(std::size_t mram_off, const void* src,
                            std::size_t bytes) {
  auto* in = static_cast<const std::uint8_t*>(src);
  std::size_t done = 0;
  while (done < bytes) {
    const std::size_t chunk = std::min(bytes - done, hw::kMramMaxTransfer);
    work_.dma_cycles += static_cast<std::uint64_t>(
        DpuCostModel::mram_dma_cycles(chunk));
    dpu_->host_write(mram_off + done, in + done, chunk);
    done += chunk;
  }
}

std::size_t Dpu::mram_alloc(std::size_t bytes, const char* tag) {
  const std::size_t aligned = (bytes + 7) / 8 * 8;
  if (mram_.size() + aligned > hw::kMramBytes) {
    throw std::runtime_error("MRAM overflow on DPU " + std::to_string(id_) +
                             " allocating " + std::to_string(bytes) +
                             " bytes for '" + tag + "'");
  }
  const std::size_t off = mram_.size();
  mram_.resize(mram_.size() + aligned);
  return off;
}

void Dpu::mram_rewind(std::size_t mark) {
  if (mark > mram_.size()) {
    throw std::logic_error("Dpu::mram_rewind past current size");
  }
  mram_.resize(mark);
  // Free regions in the discarded tail no longer exist; truncate any that
  // straddle the mark.
  while (!free_regions_.empty()) {
    FreeRegion& last = free_regions_.back();
    if (last.off >= mark) {
      free_regions_.pop_back();
    } else if (last.off + last.bytes > mark) {
      last.bytes = mark - last.off;
      break;
    } else {
      break;
    }
  }
}

std::size_t Dpu::mram_alloc_reuse(std::size_t bytes, const char* tag) {
  const std::size_t aligned = (bytes + 7) / 8 * 8;
  for (std::size_t i = 0; i < free_regions_.size(); ++i) {
    FreeRegion& r = free_regions_[i];
    if (r.bytes < aligned) continue;
    const std::size_t off = r.off;
    if (r.bytes == aligned) {
      free_regions_.erase(free_regions_.begin() +
                          static_cast<std::ptrdiff_t>(i));
    } else {
      r.off += aligned;
      r.bytes -= aligned;
    }
    return off;
  }
  return mram_alloc(bytes, tag);
}

void Dpu::mram_release(std::size_t off, std::size_t bytes) {
  const std::size_t aligned = (bytes + 7) / 8 * 8;
  if (aligned == 0) return;
  if (off + aligned > mram_.size()) {
    throw std::logic_error("Dpu::mram_release outside allocated MRAM");
  }
  // Insert sorted by offset, coalescing with adjacent free neighbors.
  auto it = std::lower_bound(
      free_regions_.begin(), free_regions_.end(), off,
      [](const FreeRegion& r, std::size_t o) { return r.off < o; });
  it = free_regions_.insert(it, {off, aligned});
  if (it + 1 != free_regions_.end() && it->off + it->bytes == (it + 1)->off) {
    it->bytes += (it + 1)->bytes;
    it = free_regions_.erase(it + 1) - 1;
  }
  if (it != free_regions_.begin() &&
      (it - 1)->off + (it - 1)->bytes == it->off) {
    (it - 1)->bytes += it->bytes;
    free_regions_.erase(it);
  }
}

std::size_t Dpu::mram_released_bytes() const {
  std::size_t total = 0;
  for (const FreeRegion& r : free_regions_) total += r.bytes;
  return total;
}

void Dpu::host_write(std::size_t off, const void* src, std::size_t bytes) {
  assert(off + bytes <= mram_.size());
  std::memcpy(mram_.data() + off, src, bytes);
}

void Dpu::host_read(std::size_t off, void* dst, std::size_t bytes) const {
  assert(off + bytes <= mram_.size());
  std::memcpy(dst, mram_.data() + off, bytes);
}

DpuRunStats Dpu::run(DpuKernel& kernel, unsigned n_tasklets) {
  n_tasklets = std::clamp(n_tasklets, 1u, hw::kMaxTasklets);
  kernel.setup(*this, n_tasklets);

  // Launch-object reuse: the per-tasklet contexts and work records persist
  // across run() calls and are rebuilt only when the tasklet count changes.
  if (run_ctxs_.size() != n_tasklets) {
    run_ctxs_.clear();
    run_ctxs_.reserve(n_tasklets);
    for (unsigned t = 0; t < n_tasklets; ++t) {
      run_ctxs_.emplace_back(*this, t, n_tasklets);
    }
    run_works_.assign(n_tasklets, TaskletWork{});
  }

  DpuRunStats stats;
  const unsigned phases = kernel.n_phases();
  stats.phase_cycles.reserve(phases);
  for (unsigned p = 0; p < phases; ++p) {
    for (unsigned t = 0; t < n_tasklets; ++t) {
      run_ctxs_[t].reset_work();
      kernel.run_phase(p, run_ctxs_[t]);
      run_works_[t] = run_ctxs_[t].work();
      stats.instructions += run_works_[t].instructions +
                            run_works_[t].critical_instructions;
      stats.dma_cycles += run_works_[t].dma_cycles;
    }
    const std::uint64_t pc =
        DpuCostModel::phase_cycles(run_works_) + DpuCostModel::barrier_cycles();
    stats.phase_cycles.push_back(pc);
    stats.cycles += pc;
  }
  busy_cycles_ += stats.cycles;
  return stats;
}

PimSystem::PimSystem(std::size_t n_dpus) {
  dpus_.reserve(n_dpus);
  for (std::size_t i = 0; i < n_dpus; ++i) {
    dpus_.emplace_back(static_cast<std::uint32_t>(i));
  }
}

PimSystem::LaunchStats PimSystem::launch(
    const std::function<DpuKernel*(std::size_t)>& kernel_for,
    unsigned n_tasklets, std::span<const double> expected_work) {
  assert(expected_work.size() == dpus_.size());
  LaunchStats out;
  out.dpu_seconds.assign(dpus_.size(), 0.0);
  out.dpu_stats.assign(dpus_.size(), DpuRunStats{});

  std::vector<std::pair<DpuKernel*, std::size_t>> order;
  for (std::size_t i = 0; i < dpus_.size(); ++i) {
    if (DpuKernel* kernel = kernel_for(i)) order.emplace_back(kernel, i);
  }
  // Largest first (LPT): the last DPUs claimed are the shortest, so the
  // threads finish within about one short DPU of each other.
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    const double wa = expected_work[a.second], wb = expected_work[b.second];
    return wa > wb || (wa == wb && a.second < b.second);
  });
  // One claiming loop per thread, the calling thread's included; one
  // active DPU, or a one-thread pool, runs a single loop inline.
  common::ThreadPool& pool = common::ThreadPool::global();
  std::atomic<std::size_t> cursor{0};
  pool.parallel_for(
      0, std::min(pool.size(), order.size()),
      [&](std::size_t) {
        for (std::size_t c; (c = cursor++) < order.size();) {
          const auto [kernel, i] = order[c];
          out.dpu_stats[i] = dpus_[i].run(*kernel, n_tasklets);
          out.dpu_seconds[i] = out.dpu_stats[i].seconds();
        }
      },
      1);

  for (std::size_t i = 0; i < out.dpu_stats.size(); ++i) {
    if (out.dpu_stats[i].cycles > out.max_cycles) {
      out.max_cycles = out.dpu_stats[i].cycles;
      out.slowest_dpu = i;
    }
  }
  out.seconds =
      DpuCostModel::cycles_to_seconds(out.max_cycles) + hw::kHostLaunchLatency;

  if (metrics_) {
    // Aggregate locally first so the registry lock is taken once per
    // instrument, not once per DPU.
    obs::Histogram& busy = metrics_->histogram("pim.dpu.busy_seconds");
    std::size_t active = 0;
    std::uint64_t instructions = 0, dma_cycles = 0;
    for (std::size_t i = 0; i < out.dpu_stats.size(); ++i) {
      const DpuRunStats& st = out.dpu_stats[i];
      if (st.cycles == 0 && st.phase_cycles.empty()) continue;
      ++active;
      busy.observe(out.dpu_seconds[i]);
      instructions += st.instructions;
      dma_cycles += st.dma_cycles;
    }
    metrics_->counter("pim.launches").add(1);
    metrics_->counter("pim.launch.active_dpus").add(active);
    metrics_->counter("pim.launch.instructions").add(instructions);
    metrics_->counter("pim.launch.dma_cycles").add(dma_cycles);
    metrics_->gauge("pim.launch.tasklets").set(static_cast<double>(
        std::clamp(n_tasklets, 1u, hw::kMaxTasklets)));
    metrics_->gauge("pim.launch.tasklet_occupancy")
        .set(static_cast<double>(std::clamp(n_tasklets, 1u, hw::kMaxTasklets)) /
             static_cast<double>(hw::kMaxTasklets));
    metrics_->histogram("pim.launch.seconds").observe(out.seconds);
  }
  return out;
}

}  // namespace upanns::pim
