// Manual WRAM (64 KB scratchpad) management. UPMEM DPUs have no MMU, so
// kernels address physical WRAM directly; UpANNS reuses regions across
// pipeline stages (paper Fig 6: the codebook region is overwritten by the
// per-tasklet read buffers once the LUT is built). This allocator makes that
// reuse explicit and *checked*: allocations beyond 64 KB throw, so any kernel
// that would not fit on real hardware fails loudly in the simulator. It is a
// budget only: it hands out offsets and holds no bytes, since the host
// kernel keeps its working data in its own buffers.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "common/hw_specs.hpp"

namespace upanns::pim {

class WramOverflow : public std::runtime_error {
 public:
  explicit WramOverflow(const std::string& what) : std::runtime_error(what) {}
};

/// Bump allocator over the 64 KB WRAM budget with mark/rewind reuse.
class WramAllocator {
 public:
  explicit WramAllocator(std::size_t capacity = hw::kWramBytes)
      : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return top_; }
  std::size_t high_water() const { return high_water_; }

  /// Allocate `bytes` (8-byte aligned, as DMA requires). Returns the WRAM
  /// offset. Throws WramOverflow when the budget is exhausted — the signal
  /// that a kernel's working set exceeds real hardware.
  std::size_t alloc(std::size_t bytes, const char* tag = "");

  /// Current position; pass to rewind() to release everything allocated
  /// after the mark. This is the mechanism behind stage-to-stage reuse.
  std::size_t mark() const { return top_; }
  void rewind(std::size_t mark);

  void reset() { top_ = 0; }

 private:
  std::size_t capacity_;
  std::size_t top_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace upanns::pim
