// Fixed-size worker pool for the evaluation runtime.
//
// Tasks are arbitrary callables submitted through `submit`, which returns a
// std::future delivering the callable's result (or rethrowing its
// exception). Destruction is *draining*: every task already queued runs to
// completion before the workers join, so a pool can be used fire-and-forget
// inside a scope and nothing is lost when it closes.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/mutex.hpp"

namespace rsp::runtime {

class ThreadPool {
 public:
  /// `threads` == 0 picks `default_thread_count()`; negative is an error.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(threads_.size()); }

  /// Hardware concurrency, at least 1.
  static int default_thread_count();

  /// Enqueues `fn`; the future delivers its return value or exception.
  /// Throws InvalidArgumentError once the pool has begun shutting down.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      const util::MutexLock lock(mutex_);
      if (stopping_)
        throw InvalidArgumentError("submit() on a stopping ThreadPool");
      queue_.emplace_back([task] { (*task)(); });
    }
    ready_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  util::Mutex mutex_;
  std::condition_variable_any ready_;
  std::deque<std::function<void()>> queue_ RSP_GUARDED_BY(mutex_);
  bool stopping_ RSP_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace rsp::runtime
