#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace upanns::common {

// One parallel_for_chunks call. The job is shared with the helpers that take
// it from the queue, so a helper that arrives after the caller has returned
// still finds a live cursor; fn, which lives in the caller's frame, is called
// only for a claimed chunk, and the caller waits for every claimed chunk.
struct ThreadPool::Job {
  Job(const std::function<void(std::size_t, std::size_t)>& f, std::size_t b,
      std::size_t e, std::size_t c)
      : fn(&f), begin(b), end(e), chunk(c), n_chunks((e - b + c - 1) / c) {}

  const std::function<void(std::size_t, std::size_t)>* fn;
  const std::size_t begin, end, chunk, n_chunks;
  std::atomic<std::size_t> next{0};  ///< chunk cursor
  std::atomic<std::size_t> done{0};  ///< chunks finished
  std::mutex mu;
  std::condition_variable finished;  ///< done reached n_chunks
  std::exception_ptr error;          ///< the first exception, guarded by mu
};

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  helpers_.reserve(n_threads - 1);
  for (std::size_t i = 1; i < n_threads; ++i) {
    helpers_.emplace_back([this] { helper_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& h : helpers_) h.join();
}

void ThreadPool::work(Job& job) {
  for (std::size_t c; (c = job.next.fetch_add(1)) < job.n_chunks;) {
    const std::size_t lo = job.begin + c * job.chunk;
    try {
      (*job.fn)(lo, std::min(job.end, lo + job.chunk));
    } catch (...) {
      std::lock_guard lk(job.mu);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.done.fetch_add(1) + 1 == job.n_chunks) {
      std::lock_guard lk(job.mu);
      job.finished.notify_one();
    }
  }
}

// Helpers sleep until a job is queued, work the oldest one until its cursor
// runs out, drop it from the queue and move to the next.
void ThreadPool::helper_loop() {
  std::unique_lock lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return stop_ || !jobs_.empty(); });
    if (stop_) return;
    const std::shared_ptr<Job> job = jobs_.front();
    lk.unlock();
    work(*job);
    lk.lock();
    std::erase(jobs_, job);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t min_chunk) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      min_chunk);
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_chunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t n_chunks =
      std::max<std::size_t>(1, std::min(size() * 4, n / std::max<std::size_t>(1, min_chunk)));
  if (n_chunks <= 1) {
    fn(begin, end);
    return;
  }
  const auto job =
      std::make_shared<Job>(fn, begin, end, (n + n_chunks - 1) / n_chunks);
  if (!helpers_.empty()) {
    {
      std::lock_guard lk(mu_);
      jobs_.push_back(job);
    }
    // Wake no more helpers than there are chunks beside the caller's.
    const std::size_t wake = std::min(helpers_.size(), job->n_chunks - 1);
    if (wake == helpers_.size()) {
      cv_.notify_all();
    } else {
      for (std::size_t i = 0; i < wake; ++i) cv_.notify_one();
    }
  }
  work(*job);
  if (!helpers_.empty()) {
    std::lock_guard lk(mu_);
    std::erase(jobs_, job);
  }
  if (job->done.load() != job->n_chunks) {
    std::unique_lock lk(job->mu);
    job->finished.wait(lk, [&] { return job->done.load() == job->n_chunks; });
  }
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace upanns::common
