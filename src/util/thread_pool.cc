#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

namespace galvatron {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

int ThreadPool::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock,
                       [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // The decrement must happen on EVERY exit path: a task exception that
    // skipped it would leave in_flight_ > 0 forever and deadlock every
    // later Wait(). Only the first exception is kept (matching the serial
    // loop, which surfaces the first failure and runs nothing after it
    // would have been reported).
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (error && !first_error_) first_error_ = std::move(error);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, int count,
                 const std::function<void(int)>& fn, int min_grain) {
  min_grain = std::max(1, min_grain);
  if (pool == nullptr || pool->num_threads() <= 1 || count <= min_grain) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  // Self-scheduling: indices are claimed min_grain at a time, in index
  // order, off a shared atomic cursor by the caller AND up to workers - 1
  // pool helpers, so the mutex-guarded queue sees O(workers) traffic
  // regardless of count, uneven index costs rebalance down to one grain,
  // and indices START in order — callers that sort work by priority (the
  // optimizer's bound-ordered refine) get it served that way.
  //
  // The caller drains the cursor itself and then waits only for claims
  // still running, never for helpers that have not started: on a busy
  // host a helper that gets no core simply claims nothing (it finds the
  // cursor exhausted whenever it does run), so a fan-out is never slower
  // than the inline loop by more than one grain. Helpers share the
  // cursor through a heap state they co-own, and only dereference `fn`
  // while holding a claim the caller is waiting for.
  //
  // Workers are capped at the physical core count as well as the pool
  // size: the sweep is CPU-bound, so more runnable workers than cores buys
  // nothing and costs context switches. With a single useful worker the
  // loop runs inline on the caller.
  const int workers = std::min(
      {pool->num_threads(), ThreadPool::HardwareThreads(),
       static_cast<int>((count + min_grain - 1) / min_grain)});
  if (workers <= 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  struct State {
    std::atomic<int> next{0};
    std::atomic<int> active{0};  // claims in flight (a claim may be empty)
    std::mutex mu;
    std::condition_variable idle;
    std::exception_ptr first_error;  // under mu
  };
  auto state = std::make_shared<State>();
  const int chunk = min_grain;
  // Claims and runs chunks until the cursor is exhausted. An exception
  // abandons the rest of its chunk only: every drainer, the caller
  // included, keeps claiming until the cursor is exhausted, so once the
  // caller's own drain returns no claim below `count` can start later.
  auto drain = [count, chunk](State& st,
                              const std::function<void(int)>* body) {
    for (;;) {
      st.active.fetch_add(1);
      const int begin = st.next.fetch_add(chunk);
      if (begin < count) {
        try {
          const int end = std::min(begin + chunk, count);
          for (int i = begin; i < end; ++i) (*body)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(st.mu);
          if (!st.first_error) st.first_error = std::current_exception();
        }
      }
      if (st.active.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(st.mu);
        st.idle.notify_all();
      }
      if (begin >= count) return;
    }
  };
  const std::function<void(int)>* body = &fn;
  for (int w = 1; w < workers; ++w) {
    pool->Submit([state, drain, body] { drain(*state, body); });
  }
  drain(*state, body);
  std::unique_lock<std::mutex> lock(state->mu);
  state->idle.wait(lock, [&] { return state->active.load() == 0; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace galvatron
