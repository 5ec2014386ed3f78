// Annotated mutex + scoped-lock types for clang thread-safety analysis.
//
// util::Mutex wraps std::mutex as an RSP_CAPABILITY so data members can be
// declared RSP_GUARDED_BY(mu_) and helpers RSP_REQUIRES(mu_); util::MutexLock
// is the RSP_SCOPED_CAPABILITY guard the concurrency core (ThreadPool,
// StripedMemoCache, SocketServer) locks with. Condition
// waiting goes through MutexLock::wait/wait_for — the analysis treats the
// capability as held across the wait, which matches the predicate-holds-
// under-lock contract std::condition_variable_any provides.
//
// Under non-clang compilers the annotations vanish (thread_annotations.hpp)
// and this is an ordinary mutex + scoped lock, so behaviour is identical.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace rsp::util {

class RSP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RSP_ACQUIRE() { mu_.lock(); }
  void unlock() RSP_RELEASE() { mu_.unlock(); }
  bool try_lock() RSP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped lock over util::Mutex with condition-variable support.
class RSP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RSP_ACQUIRE(mu) : mu_(mu) { mu_.mu_.lock(); }
  ~MutexLock() RSP_RELEASE() { mu_.mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Blocks until `pred()` holds, releasing the mutex while waiting.
  /// The predicate is always evaluated with the mutex held.
  template <typename Predicate>
  void wait(std::condition_variable_any& cv, Predicate pred) {
    Adapter adapter{mu_.mu_};
    cv.wait(adapter, std::move(pred));
  }

  /// As wait(), giving up after `timeout`; returns pred()'s final value.
  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(std::condition_variable_any& cv,
                const std::chrono::duration<Rep, Period>& timeout,
                Predicate pred) {
    Adapter adapter{mu_.mu_};
    return cv.wait_for(adapter, timeout, std::move(pred));
  }

 private:
  // BasicLockable view of the underlying std::mutex for
  // condition_variable_any: the cv's internal unlock/relock cycle stays
  // invisible to the thread-safety analysis, which models the capability
  // as held across the whole wait (the contract the predicate sees).
  struct Adapter {
    std::mutex& mu;
    void lock() { mu.lock(); }
    void unlock() { mu.unlock(); }
  };

  Mutex& mu_;
};

}  // namespace rsp::util
