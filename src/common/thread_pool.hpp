// A small thread pool with a parallel_for helper.
// Used by the host-side pipelines (k-means, ground truth, batched search) and
// by the PIM simulator to evaluate many DPUs concurrently. The DPU *timing*
// model is independent of how many host threads execute the simulation.
//
// One mechanism: parallel_for_chunks publishes a job (a chunk cursor, a done
// count and the first exception), the calling thread claims chunks from it
// beside the pool's helper threads, and it returns once every chunk has
// finished. Since every caller works its own job, a parallel_for inside a
// chunk cannot deadlock, and concurrent callers need no coordination.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace upanns::common {

class ThreadPool {
 public:
  /// n_threads == 0 selects hardware_concurrency(). The pool starts
  /// n_threads - 1 helper threads: the thread that calls parallel_for is the
  /// n-th, so ThreadPool(1) starts none and runs every chunk on the caller.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that work a parallel_for, the caller included.
  std::size_t size() const { return helpers_.size() + 1; }

  /// Run fn(i) for i in [begin, end) split into contiguous chunks across the
  /// pool, blocking until complete. Falls back to inline execution for tiny
  /// ranges so tests remain cheap.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t min_chunk = 64);

  /// Chunked variant: fn(chunk_begin, chunk_end) over at most
  /// min(size() * 4, n / min_chunk) contiguous chunks of equal size (the
  /// last may be shorter). A throwing chunk does not stop the others: the
  /// call returns once every chunk has run, then rethrows the first
  /// exception, and the pool stays usable.
  void parallel_for_chunks(std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t, std::size_t)>& fn,
                           std::size_t min_chunk = 64);

  /// Process-wide pool shared by library internals.
  static ThreadPool& global();

 private:
  struct Job;

  static void work(Job& job);
  void helper_loop();

  std::vector<std::thread> helpers_;
  std::mutex mu_;
  std::condition_variable cv_;               ///< a job arrived, or stop_
  std::vector<std::shared_ptr<Job>> jobs_;  ///< FIFO, guarded by mu_
  bool stop_ = false;
};

}  // namespace upanns::common
