#ifndef MSQL_RUNTIME_THREAD_POOL_H_
#define MSQL_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace msql {

// A fixed-size worker pool executing submitted closures FIFO. The pool
// itself is unbounded; its submitters bound their own load: QueryScheduler
// (runtime/admission.h: pending and per-session slots, per-user rate
// limit), msqld's statement workers (one statement in flight per
// connection, per-user rate limit) and the engine's measure pool (one batch
// of morsel tasks per parallel build or probe). Shutdown()
// drains the queue and joins the workers; tasks submitted after Shutdown
// are rejected.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn`. Returns false (dropping fn) if the pool is shut down.
  bool Submit(std::function<void()> fn);

  // Runs every queued task to completion, then joins the workers.
  // Idempotent.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace msql

#endif  // MSQL_RUNTIME_THREAD_POOL_H_
