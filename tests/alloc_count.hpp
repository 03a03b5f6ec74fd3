// Allocation counting for tests. Include this header once per test
// executable: it replaces global operator new/delete to count the blocks
// allocated, on any thread, while count_allocations() runs its argument.
// The nothrow new is replaced too: std::stable_sort's buffer takes it and
// frees it with the plain delete below, so it must come from malloc as well
// (the sanitizers' own nothrow new would read the free() as a mismatch).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

/// Blocks allocated by global operator new while `fn` runs.
template <typename Fn>
std::size_t count_allocations(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}
}  // namespace

// All out of line: inlined, GCC 12's -Wmismatched-new-delete reads the
// malloc() behind a new as mismatched with the free() of its delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
