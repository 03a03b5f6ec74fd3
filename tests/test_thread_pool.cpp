#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "alloc_count.hpp"

namespace upanns::common {
namespace {

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(0, 500, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(10, 10, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  int value = 0;
  pool.parallel_for(5, 6, [&](std::size_t i) { value = static_cast<int>(i); });
  EXPECT_EQ(value, 5);
}

TEST(ThreadPool, ParallelForChunksPartition) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for_chunks(
      0, 1000,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_LT(lo, hi);
        total.fetch_add(hi - lo);
      },
      16);
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, TinyRangeRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 5, [&](std::size_t) { total.fetch_add(1); },
                    /*min_chunk=*/64);
  EXPECT_EQ(total.load(), 5u);
}

TEST(ThreadPool, SumReduction) {
  ThreadPool pool(4);
  std::vector<long> values(10000);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<long> sum{0};
  pool.parallel_for(0, values.size(),
                    [&](std::size_t i) { sum.fetch_add(values[i]); }, 32);
  EXPECT_EQ(sum.load(), 10000L * 9999 / 2);
}

TEST(ThreadPool, GlobalPoolSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

// Every chunk of the outer call runs a whole inner call on the same pool.
// A pool whose callers sleep while its threads work the chunks hangs here
// once every thread holds an outer chunk.
void expect_nested_sum(ThreadPool& pool) {
  constexpr std::size_t kOuter = 16, kInner = 1000;
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(
      0, kOuter,
      [&](std::size_t i) {
        pool.parallel_for(
            0, kInner, [&](std::size_t j) { sum.fetch_add(i * kInner + j); },
            1);
      },
      1);
  const std::uint64_t n = kOuter * kInner;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ThreadPool, NestedParallelForOnTwoThreads) {
  ThreadPool pool(2);
  expect_nested_sum(pool);
}

TEST(ThreadPool, NestedParallelForOnTheGlobalPool) {
  expect_nested_sum(ThreadPool::global());
}

TEST(ThreadPool, ThrowingChunkRethrowsAfterEveryOtherChunk) {
  ThreadPool pool(4);
  constexpr std::size_t kChunks = 16;  // size() * 4
  std::atomic<std::size_t> ran{0};
  try {
    pool.parallel_for_chunks(
        0, kChunks,
        [&](std::size_t lo, std::size_t) {
          if (lo == 0) throw std::runtime_error("chunk 0");
          // Slow enough that a call returning at the throw would find most
          // of the other chunks unfinished.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          ran.fetch_add(1);
        },
        1);
    ADD_FAILURE() << "parallel_for_chunks did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 0");
    EXPECT_EQ(ran.load(), kChunks - 1);
  }
  // The pool stays usable: the next call covers its whole range.
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
                    1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirRange) {
  // Four external threads share one pool; their jobs queue side by side.
  // The hits are plain ints: each call's caller reads what the helpers wrote,
  // which only the pool's own synchronization orders (TSan checks it).
  ThreadPool pool(4);
  constexpr int kCallers = 4, kCalls = 200;
  constexpr std::size_t kRange = 64;
  std::atomic<int> bad_calls{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      std::vector<int> hits(kRange);
      for (int r = 0; r < kCalls; ++r) {
        std::fill(hits.begin(), hits.end(), 0);
        pool.parallel_for(0, kRange, [&](std::size_t i) { ++hits[i]; }, 1);
        for (const int h : hits) {
          if (h != 1) {
            bad_calls.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(bad_calls.load(), 0);
}

#ifdef __linux__
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}
#endif

TEST(ThreadPool, OneThreadPoolStartsNoThreadAndRunsEveryChunkOnTheCaller) {
#ifdef __linux__
  // `warm` first brings up any thread a runtime (TSan's) starts beside the
  // first one a program creates; then each pool starts size() - 1.
  ThreadPool warm(2);
  const std::size_t before = process_threads();
  ThreadPool three(3);
  EXPECT_EQ(process_threads(), before + 2);
  ThreadPool pool(1);
  EXPECT_EQ(process_threads(), before + 2);
#else
  ThreadPool pool(1);
#endif
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t chunks = 0, elsewhere = 0;
  pool.parallel_for_chunks(
      0, 100,
      [&](std::size_t, std::size_t) {
        ++chunks;
        if (std::this_thread::get_id() != caller) ++elsewhere;
      },
      1);
  EXPECT_EQ(chunks, 4u);  // size() * 4
  EXPECT_EQ(elsewhere, 0u);
}

// Claiming a chunk costs no allocation: a 16-chunk call allocates what a
// 2-chunk call does (the job), not a task or a future per chunk.
TEST(ThreadPool, NoAllocationPerChunk) {
  ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t i) {
    sum.fetch_add(i);
  };
  auto allocations = [&](std::size_t n) {
    return count_allocations([&] { pool.parallel_for(0, n, fn, 1); });
  };
  allocations(16);  // warm-up: the job queue's first growth
  const std::size_t two = allocations(2);
  const std::size_t sixteen = allocations(16);
  EXPECT_EQ(two, sixteen);
  EXPECT_EQ(sum.load(), 2 * (16 * 15 / 2) + 1);
}

}  // namespace
}  // namespace upanns::common
