#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace upanns::serve {

namespace {

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Quantile of an already-sorted sample (nearest-rank).
double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  idx = std::min(std::max<std::size_t>(idx, 1), sorted.size()) - 1;
  return sorted[idx];
}

}  // namespace

Server::Server(BatchExecutor exec, ServeOptions opts)
    : opts_(opts),
      exec_(std::move(exec)),
      queue_(opts.queue_capacity),
      sink_(opts.metrics),
      t0_(std::chrono::steady_clock::now()) {
  if (opts_.dim == 0) throw std::invalid_argument("ServeOptions::dim == 0");
  if (opts_.policy.max_batch == 0) {
    throw std::invalid_argument("BatchPolicy::max_batch == 0");
  }
  if (!(opts_.policy.deadline_seconds > 0)) {
    throw std::invalid_argument("BatchPolicy::deadline_seconds <= 0");
  }
  if (opts_.metrics != nullptr) {
    // Fill ratios live in [0, 1]; the default exponential time bounds would
    // lump every batch into one bucket.
    opts_.metrics->histogram(
        "serve.batch_fill",
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  }
  worker_ = std::thread([this] { worker_loop(); });
}

Server::~Server() { drain(); }

double Server::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

std::optional<std::future<RequestResult>> Server::try_submit(
    std::span<const float> query) {
  if (query.size() != opts_.dim) {
    throw std::invalid_argument("query dimensionality mismatch");
  }
  Request r;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.query.assign(query.begin(), query.end());
  r.enqueue_seconds = now_seconds();
  std::future<RequestResult> fut = r.promise.get_future();
  if (!queue_.try_push(std::move(r))) {
    sink_.count("serve.rejected_total");
    std::lock_guard lk(stats_mu_);
    ++stats_.rejected;
    return std::nullopt;
  }
  sink_.count("serve.requests_total");
  std::lock_guard lk(stats_mu_);
  ++stats_.accepted;
  return fut;
}

void Server::drain() {
  std::call_once(drained_, [this] {
    queue_.close();
    if (worker_.joinable()) worker_.join();
  });
}

ServeStats Server::stats() const {
  std::lock_guard lk(stats_mu_);
  return stats_;
}

void Server::worker_loop() {
  for (;;) {
    if (!queue_.wait_nonempty()) break;  // closed and empty: shut down
    const double oldest = queue_.front_enqueue_seconds();
    queue_.wait_closeable(opts_.policy.max_batch,
                          t0_ + to_duration(batch_deadline(opts_.policy,
                                                           oldest)));
    std::vector<Request> reqs = queue_.pop_batch(opts_.policy.max_batch);
    if (reqs.empty()) continue;
    const BatchClose close = batch_close_decision(
        opts_.policy, reqs.size(), oldest, now_seconds(), queue_.closed());
    execute_batch(std::move(reqs), close);
  }
}

void Server::execute_batch(std::vector<Request> reqs, BatchClose close) {
  const double dispatch = now_seconds();
  data::Dataset batch;
  batch.dim = opts_.dim;
  batch.n = reqs.size();
  batch.values.reserve(reqs.size() * opts_.dim);
  for (const Request& r : reqs) {
    batch.values.insert(batch.values.end(), r.query.begin(), r.query.end());
  }

  ExecResult result;
  std::exception_ptr error;
  try {
    result = exec_(batch);
    if (result.neighbors.size() != reqs.size()) {
      throw std::logic_error("executor returned wrong neighbor count");
    }
  } catch (...) {
    error = std::current_exception();
  }
  const double complete = now_seconds();

  BatchRecord brec;
  brec.size = reqs.size();
  brec.close = close;
  brec.dispatch_seconds = dispatch;
  brec.complete_seconds = complete;
  brec.sim_seconds = error ? 0 : result.sim_seconds;
  brec.failed = error != nullptr;

  std::vector<RequestRecord> rrecs(reqs.size());
  {
    std::lock_guard lk(stats_mu_);
    brec.index = batches_.size();
    ++stats_.batches;
    switch (close) {
      case BatchClose::kFull: ++stats_.full_closes; break;
      case BatchClose::kDeadline: ++stats_.deadline_closes; break;
      case BatchClose::kDrain: ++stats_.drain_closes; break;
      case BatchClose::kOpen: break;
    }
    if (error) {
      stats_.failed += reqs.size();
    } else {
      stats_.completed += reqs.size();
    }
  }

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    RequestRecord& rec = rrecs[i];
    rec.id = reqs[i].id;
    rec.enqueue_seconds = reqs[i].enqueue_seconds;
    rec.batch_seconds = dispatch;
    rec.complete_seconds = complete;
    rec.batch_index = brec.index;
    rec.batch_size = reqs.size();
    rec.failed = brec.failed;
    if (error) {
      reqs[i].promise.set_exception(error);
      continue;
    }
    RequestResult rr;
    rr.id = rec.id;
    rr.neighbors = std::move(result.neighbors[i]);
    rr.enqueue_seconds = rec.enqueue_seconds;
    rr.batch_seconds = rec.batch_seconds;
    rr.complete_seconds = rec.complete_seconds;
    rr.batch_index = rec.batch_index;
    rr.batch_size = rec.batch_size;
    reqs[i].promise.set_value(std::move(rr));
  }

  if (sink_.enabled()) {
    sink_.count("serve.batches_total");
    if (error) sink_.count("serve.exec_errors_total");
    sink_.observe("serve.batch_fill",
                  static_cast<double>(reqs.size()) /
                      static_cast<double>(opts_.policy.max_batch));
    for (const RequestRecord& rec : rrecs) {
      sink_.observe("serve.queue_seconds", rec.queue_wait());
      sink_.observe_window("serve.queue_seconds", rec.batch_seconds,
                           rec.queue_wait());
      if (!rec.failed) {
        sink_.observe("query.latency_seconds", rec.latency());
        sink_.observe_window("query.latency_seconds", rec.complete_seconds,
                             rec.latency());
      }
    }
  }

  std::lock_guard lk(stats_mu_);
  batches_.push_back(brec);
  requests_.insert(requests_.end(), rrecs.begin(), rrecs.end());
}

ServeSummary summarize(const std::vector<RequestRecord>& requests,
                       const std::vector<BatchRecord>& batches,
                       const BatchPolicy& policy) {
  ServeSummary s;
  std::vector<double> lat;
  double first = 0, last = 0;
  double queue_sum = 0;
  for (const RequestRecord& r : requests) {
    if (r.failed) continue;
    if (lat.empty() || r.enqueue_seconds < first) first = r.enqueue_seconds;
    last = std::max(last, r.complete_seconds);
    lat.push_back(r.latency());
    queue_sum += r.queue_wait();
  }
  s.n = lat.size();
  if (s.n == 0) return s;
  std::sort(lat.begin(), lat.end());
  s.p50 = sorted_quantile(lat, 0.5);
  s.p99 = sorted_quantile(lat, 0.99);
  s.max = lat.back();
  double sum = 0;
  for (double v : lat) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.mean_queue_wait = queue_sum / static_cast<double>(s.n);
  double fill = 0;
  for (const BatchRecord& b : batches) {
    fill += static_cast<double>(b.size) /
            static_cast<double>(policy.max_batch);
  }
  s.mean_batch_fill =
      batches.empty() ? 0 : fill / static_cast<double>(batches.size());
  s.duration_seconds = last - first;
  s.achieved_qps = s.duration_seconds > 0
                       ? static_cast<double>(s.n) / s.duration_seconds
                       : 0;
  return s;
}

void append_request_spans(obs::SpanLog& log,
                          const std::vector<RequestRecord>& requests) {
  for (const RequestRecord& r : requests) {
    const auto query = static_cast<std::int64_t>(r.id);
    const auto batch = static_cast<std::int64_t>(r.batch_index);
    obs::Span& root = log.push(0, "request", "request", batch,
                               r.enqueue_seconds, r.latency());
    root.query = query;
    const std::uint64_t root_id = root.id;
    log.push(root_id, "queue-wait", "serve", batch, r.enqueue_seconds,
             r.queue_wait())
        .query = query;
    log.push(root_id, r.failed ? "exec-failed" : "exec", "serve", batch,
             r.batch_seconds, r.complete_seconds - r.batch_seconds)
        .query = query;
  }
}

std::string serve_report_json(const ServeSummary& summary,
                              const ServeStats& stats) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("summary").begin_object();
  w.kv("n", static_cast<std::uint64_t>(summary.n));
  w.kv("p50_seconds", summary.p50);
  w.kv("p99_seconds", summary.p99);
  w.kv("mean_seconds", summary.mean);
  w.kv("max_seconds", summary.max);
  w.kv("mean_queue_wait_seconds", summary.mean_queue_wait);
  w.kv("mean_batch_fill", summary.mean_batch_fill);
  w.kv("duration_seconds", summary.duration_seconds);
  w.kv("achieved_qps", summary.achieved_qps);
  w.end_object();
  w.key("stats").begin_object();
  w.kv("accepted", stats.accepted);
  w.kv("rejected", stats.rejected);
  w.kv("completed", stats.completed);
  w.kv("failed", stats.failed);
  w.kv("batches", stats.batches);
  w.kv("full_closes", stats.full_closes);
  w.kv("deadline_closes", stats.deadline_closes);
  w.kv("drain_closes", stats.drain_closes);
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace upanns::serve
