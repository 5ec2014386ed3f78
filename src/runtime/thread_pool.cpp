#include "runtime/thread_pool.hpp"

namespace rsp::runtime {

int ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  if (threads < 0)
    throw InvalidArgumentError("ThreadPool requires a non-negative count");
  if (threads == 0) threads = default_thread_count();
  threads_.reserve(static_cast<std::size_t>(threads));
  try {
    for (int i = 0; i < threads; ++i)
      threads_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    // A failed std::thread launch (thread exhaustion) must not leave the
    // already-started workers joinable — their ~thread would terminate the
    // process during unwinding. Shut them down, then propagate.
    {
      const util::MutexLock lock(mutex_);
      stopping_ = true;
    }
    ready_.notify_all();
    for (std::thread& w : threads_) w.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    const util::MutexLock lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& w : threads_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(mutex_);
      lock.wait(ready_, [this]() RSP_REQUIRES(mutex_) {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task: exceptions land in the task's future
  }
}

}  // namespace rsp::runtime
