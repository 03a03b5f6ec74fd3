// The one top-k structure of every architecture path (DPU kernel S4/S5,
// host and fleet merges, cluster filter, CPU baseline, exact ground truth):
// a sorted array of u64 keys whose integer order is Neighbor order, so the
// Top-K Pruning merge (paper 4.4) walks it min-first in place.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "common/simd_dispatch.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace upanns::common {

/// A (distance, id) candidate. Lower distance is better.
struct Neighbor {
  float dist;
  std::uint32_t id;

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    // Tie-break on id for deterministic results across schedules.
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.dist == b.dist && a.id == b.id;
  }
};

/// Fixed-capacity buffer of the k best (smallest) candidates, ascending.
/// An accepted push costs O(size), which beats a heap's O(log k) moves for
/// the small k and short streams of the kernel; capacity never changes after
/// construction.
class TopK {
 public:
  /// Capacities up to this insert with a branch-free min/max pass over the
  /// buffer; larger ones shift only the keys above the new one. The pass
  /// costs size() steps per accepted key but never mispredicts, the shift
  /// only the keys it moves plus an exit that mispredicts on random input.
  /// It wins short fills at every k and loses most long streams (BM_HeapPush
  /// sweep, DESIGN.md §9), so the constant sits between the callers: the
  /// kernel's tasklet buffers fill briefly at the search k (default 10), the
  /// cluster filter streams every centroid at k = nprobe (default 64, and 16
  /// or more in the CLI and every benchmark workload).
  static constexpr std::size_t kBranchFreeCapacity = 15;

  explicit TopK(std::size_t k) : keys_(k) {}

  /// Sort key (float_bits(dist) << 32) | id. A float with a clear sign bit
  /// orders like its bits, so for the non-negative distances every caller
  /// produces (sums of squares, u32 x a positive scale) key order is
  /// Neighbor::operator<, id tie-break included. NaN keys sort after +inf
  /// whatever their sign bit (x86's default NaN has it set), so unchecked
  /// inputs still order deterministically.
  static std::uint64_t pack(float dist, std::uint32_t id) {
    assert(!std::signbit(dist) || std::isnan(dist));
    std::uint32_t bits;
    std::memcpy(&bits, &dist, sizeof(bits));
    return (std::uint64_t{bits} << 32) | id;
  }
  static Neighbor unpack(std::uint64_t key) {
    const auto bits = static_cast<std::uint32_t>(key >> 32);
    float dist;
    std::memcpy(&dist, &bits, sizeof(dist));
    return {dist, static_cast<std::uint32_t>(key)};
  }

  /// Capacities from 1 up to this keep their keys in two 8-lane registers
  /// through push_each() at the avx512 level.
  static constexpr std::size_t kRegisterCapacity = 16;

  std::size_t capacity() const { return keys_.size(); }
  std::size_t size() const { return n_; }
  bool full() const { return n_ == keys_.size(); }
  bool empty() const { return n_ == 0; }

  /// Retained keys, ascending.
  std::span<const std::uint64_t> keys() const { return {keys_.data(), n_}; }
  /// The worst retained key; only valid when non-empty. `key < worst()` is
  /// the exact acceptance test push() applies when full, so pruning by it
  /// stays result-identical.
  std::uint64_t worst() const { return keys_[n_ - 1]; }

  /// Retain the candidate if the buffer is not full or it beats worst().
  /// Returns true if the candidate was retained.
  bool push(std::uint64_t key) {
    std::size_t i = n_;
    if (i == keys_.size()) {
      if (i == 0 || !(key < keys_[i - 1])) return false;
      --i;  // the worst's slot is overwritten
    } else {
      ++n_;
    }
    if (keys_.size() <= kBranchFreeCapacity) {
      keys_[i] = ~std::uint64_t{0};  // the slot being filled reads as +inf
      merge_in(key);
    } else {
      insert(i, key);
    }
    return true;
  }
  bool push(float dist, std::uint32_t id) { return push(pack(dist, id)); }
  bool push(Neighbor n) { return push(pack(n.dist, n.id)); }

  /// Offer `count` candidates in order, each exactly as push() would:
  /// offer(i, key) stores candidate i's key and returns false to skip it.
  /// Returns how many were retained. The key computation runs inside the
  /// loop, so at the avx512 level a buffer of capacity 1 to
  /// kRegisterCapacity stays in registers across the whole run
  /// (push_each_avx512); anything else is a push() loop. Both loops are out
  /// of line and take their own copy of `offer`, so a callback that holds
  /// its state by value (a record cursor, say) keeps it in a register
  /// across the inserts.
  template <typename Offer>
  std::size_t push_each(SimdLevel simd, std::size_t count, Offer offer) {
#if defined(__SSE2__)
    if (simd >= SimdLevel::kAvx512 && !keys_.empty() &&
        keys_.size() <= kRegisterCapacity) {
      return keys_.size() > 8 ? push_each_avx512<true>(count, offer)
                              : push_each_avx512<false>(count, offer);
    }
#endif
    (void)simd;
    return push_each_scalar(count, offer);
  }

  /// Retained candidates, ascending.
  std::vector<Neighbor> sorted() const {
    std::vector<Neighbor> out;
    out.reserve(n_);
    for (const std::uint64_t key : keys()) out.push_back(unpack(key));
    return out;
  }

  void clear() { n_ = 0; }

 private:
  // Both inserts are out of line on purpose: inlined into a scan loop they
  // slow the reject path that dominates long streams (the shift loop by ~30%
  // on BM_AdcScanTokens/8192), for no gain on short ones.

  /// Shift the keys above `key` one slot back, from slot i down, and place
  /// it.
  __attribute__((noinline)) void insert(std::size_t i, std::uint64_t key) {
    for (; i > 0 && keys_[i - 1] > key; --i) keys_[i] = keys_[i - 1];
    keys_[i] = key;
  }

  /// Sorted insert of `key` into the first size() slots, whose last one
  /// holds +inf: slot j takes the j-th smallest of the old keys and `key`,
  /// max(old[j-1], min(old[j], key)), which compiles to conditional moves.
  __attribute__((noinline)) void merge_in(std::uint64_t key) {
    std::uint64_t* a = keys_.data();
    const std::size_t n = n_;  // the stores below may alias n_
    std::uint64_t prev = a[0];
    a[0] = std::min(prev, key);
    for (std::size_t j = 1; j < n; ++j) {
      const std::uint64_t cur = a[j];
      a[j] = std::max(prev, std::min(cur, key));
      prev = cur;
    }
  }

  template <typename Offer>
  __attribute__((noinline)) std::size_t push_each_scalar(std::size_t count,
                                                         Offer offer) {
    std::size_t retained = 0;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t key = 0;
      if (offer(i, key) && push(key)) ++retained;
    }
    return retained;
  }

#if defined(__SSE2__)
  /// push_each() with slots 0-7 in `lo` and, when kWide (capacity above 8),
  /// slots 8-15 in `hi`; slots from size() up hold all-ones, as merge_in's
  /// +inf. Every candidate runs merge_in's pass over all lanes,
  /// t = max(t shifted up one slot, min(t, key)), with no branch and no
  /// blend: while the buffer has room the pass inserts the key, and once
  /// it is full a key not below worst() leaves every slot as it was (the
  /// last slot keeps max(t[cap-2], min(worst, key)) = worst). A skipped
  /// candidate offers all-ones, which changes no slot either way. Lanes at
  /// and past the capacity never feed a lower one and are never stored.
  /// The accept test, `room || key < t[cap-1]` as in push(), is only
  /// counted, off the registers' dependency chain. Masked loads and stores
  /// touch no slot past size(); sanitizers do not see them, so
  /// TopKContractTest holds this path to push() directly.
  template <bool kWide, typename Offer>
  UPANNS_AVX512 std::size_t push_each_avx512(std::size_t count,
                                             Offer offer) {
    constexpr __mmask8 kAll8 = 0xFF;
    const std::size_t cap = keys_.size();
    const __m512i ones = _mm512_set1_epi64(-1);
    const __m512i zero = _mm512_setzero_si512();
    const unsigned held = (1u << n_) - 1;
    __m512i lo = _mm512_mask_loadu_epi64(ones, static_cast<__mmask8>(held),
                                         keys_.data());
    __m512i hi = ones;
    if constexpr (kWide) {
      hi = _mm512_mask_loadu_epi64(ones, static_cast<__mmask8>(held >> 8),
                                   keys_.data() + 8);
    }
    const auto worst_lane = static_cast<__mmask8>(1u << ((cap - 1) & 7));
    std::size_t n = n_;
    std::size_t retained = 0;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t key = 0;
      const bool live = offer(i, key);
      key |= std::uint64_t{0} - !live;
      const __m512i k = _mm512_set1_epi64(static_cast<long long>(key));
      const bool room = n < cap;
      const bool beats =
          _mm512_mask_cmplt_epu64_mask(worst_lane, k, kWide ? hi : lo) != 0;
      retained += live & (room | beats);
      n += live & room;
      if constexpr (kWide) {
        hi = _mm512_maskz_max_epu64(
            kAll8, _mm512_maskz_alignr_epi64(kAll8, hi, lo, 7),
            _mm512_maskz_min_epu64(kAll8, hi, k));
      }
      lo = _mm512_maskz_max_epu64(
          kAll8, _mm512_maskz_alignr_epi64(kAll8, lo, zero, 7),
          _mm512_maskz_min_epu64(kAll8, lo, k));
    }
    const unsigned keep = (1u << n) - 1;
    _mm512_mask_storeu_epi64(keys_.data(), static_cast<__mmask8>(keep), lo);
    if constexpr (kWide) {
      _mm512_mask_storeu_epi64(keys_.data() + 8,
                               static_cast<__mmask8>(keep >> 8), hi);
    }
    n_ = n;
    return retained;
  }
#endif

  std::vector<std::uint64_t> keys_;
  std::size_t n_ = 0;
};

/// Offer one ascending candidate list to `top`, in order: `read(j)` returns
/// the list's j-th key, or nothing once the list has ended. Stops at the
/// first key push() rejects: the buffer is then full and the key does not
/// beat worst(), so no later key of the list can either (the same early exit
/// the DPU merge uses). Both host merges, across DPUs and across hosts, run
/// their lists through here.
template <typename Read>
void merge_ascending(TopK& top, Read&& read) {
  for (std::size_t j = 0;; ++j) {
    const std::optional<std::uint64_t> key = read(j);
    if (!key || !top.push(*key)) return;
  }
}

/// Merge several ascending-sorted candidate lists into the k best overall.
/// This mirrors the host-side final aggregation across DPUs and hosts.
inline std::vector<Neighbor> merge_sorted_topk(
    const std::vector<std::vector<Neighbor>>& lists, std::size_t k) {
  TopK top(k);
  for (const auto& list : lists) {
    merge_ascending(top, [&](std::size_t j) -> std::optional<std::uint64_t> {
      if (j == list.size()) return std::nullopt;
      return TopK::pack(list[j].dist, list[j].id);
    });
  }
  return top.sorted();
}

}  // namespace upanns::common
