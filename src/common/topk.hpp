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
