// The online serving front-end: per-client submitter threads push single
// queries into a bounded RequestQueue; one batcher thread forms continuous
// batches under a deadline (serve/batcher.hpp) and executes them through the
// existing pipeline entry points (core::BatchStream / any core::AnnsBackend)
// via a pluggable BatchExecutor. Every request gets enqueue → batch →
// complete timestamps, booked into obs::MetricsRegistry
// (`serve.queue_seconds`, `serve.batch_fill`, `serve.rejected_total`,
// `query.latency_seconds`) and exportable as per-request spans.
//
// Batch composition never changes a query's neighbors — cluster filtering,
// kernel scans and the final merge are all per-query — so online serving is
// bit-identical to running the same queries as pre-formed batches (pinned
// in test_serve).
//
// Failure model: a throwing executor fails only the requests of that batch
// (their futures carry the exception) and the server keeps serving, as a
// throwing chunk of common::ThreadPool::parallel_for fails only that call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/batcher.hpp"
#include "serve/request_queue.hpp"

namespace upanns::serve {

/// What one batch execution returns to the server.
struct ExecResult {
  std::vector<std::vector<common::Neighbor>> neighbors;  ///< one per query
  double sim_seconds = 0;  ///< simulated service time of the batch
};

/// Executes one formed batch. Called from the server's batcher thread only,
/// so single-threaded pipeline state (QueryPipeline, BatchStream) is safe.
using BatchExecutor = std::function<ExecResult(const data::Dataset&)>;

struct ServeOptions {
  std::size_t dim = 0;  ///< query dimensionality (required)
  BatchPolicy policy;
  /// Max queued (admitted, not yet dispatched) requests; try_submit rejects
  /// beyond this. 0 = unbounded.
  std::size_t queue_capacity = 1024;
  /// Optional instrumentation; must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-request accounting row (server-clock seconds since start).
struct RequestRecord {
  std::uint64_t id = 0;
  double enqueue_seconds = 0;
  double batch_seconds = 0;
  double complete_seconds = 0;
  std::size_t batch_index = 0;
  std::size_t batch_size = 0;
  bool failed = false;
  double latency() const { return complete_seconds - enqueue_seconds; }
  double queue_wait() const { return batch_seconds - enqueue_seconds; }
};

/// Per-formed-batch accounting row.
struct BatchRecord {
  std::size_t index = 0;
  std::size_t size = 0;
  BatchClose close = BatchClose::kOpen;
  double dispatch_seconds = 0;
  double complete_seconds = 0;
  double sim_seconds = 0;
  bool failed = false;
};

struct ServeStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  ///< requests whose batch executor threw
  std::uint64_t batches = 0;
  std::uint64_t full_closes = 0;
  std::uint64_t deadline_closes = 0;
  std::uint64_t drain_closes = 0;
};

class Server {
 public:
  Server(BatchExecutor exec, ServeOptions opts);
  ~Server();  ///< drains

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submit one query (must be dim floats). Returns the result future, or
  /// nullopt — the explicit backpressure signal — when the queue is at
  /// capacity or the server is draining. Thread-safe.
  std::optional<std::future<RequestResult>> try_submit(
      std::span<const float> query);

  /// Graceful shutdown: stop admitting, serve everything already queued,
  /// stop the batcher thread. Idempotent; the destructor calls it too.
  void drain();

  ServeStats stats() const;
  /// Stable only after drain() (the batcher thread appends to them).
  const std::vector<RequestRecord>& request_log() const { return requests_; }
  const std::vector<BatchRecord>& batch_log() const { return batches_; }

  /// Wall-clock seconds since server construction — the time base of every
  /// timestamp above.
  double now_seconds() const;

 private:
  void worker_loop();
  void execute_batch(std::vector<Request> reqs, BatchClose close);

  ServeOptions opts_;
  BatchExecutor exec_;
  RequestQueue queue_;
  obs::MetricsSink sink_;
  std::chrono::steady_clock::time_point t0_;
  std::atomic<std::uint64_t> next_id_{0};

  mutable std::mutex stats_mu_;
  ServeStats stats_;
  std::vector<RequestRecord> requests_;
  std::vector<BatchRecord> batches_;

  std::thread worker_;
  std::once_flag drained_;
};

/// Latency/queue-wait digest of a finished run.
struct ServeSummary {
  std::size_t n = 0;
  double p50 = 0, p99 = 0, mean = 0, max = 0;       ///< request latency
  double mean_queue_wait = 0;
  double mean_batch_fill = 0;  ///< batch size / max_batch
  double duration_seconds = 0; ///< first enqueue to last completion
  double achieved_qps = 0;     ///< completed / duration
};
ServeSummary summarize(const std::vector<RequestRecord>& requests,
                       const std::vector<BatchRecord>& batches,
                       const BatchPolicy& policy);

/// Append one span tree per request to the PR 6 span forest: a "request"
/// root with "queue-wait" and "exec" children, query = request id.
void append_request_spans(obs::SpanLog& log,
                          const std::vector<RequestRecord>& requests);

/// {"summary": {...}, "stats": {...}} — the serve half of the CLI's
/// --metrics-out artifact.
std::string serve_report_json(const ServeSummary& summary,
                              const ServeStats& stats);

}  // namespace upanns::serve
