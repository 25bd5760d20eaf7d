#ifndef GALVATRON_UTIL_THREAD_POOL_H_
#define GALVATRON_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace galvatron {

/// A small fixed-size worker pool with a shared FIFO task queue. Built for
/// the search engine's fan-out of independent (PP degree, batch,
/// micro-batch) configurations: tasks are submitted in waves and joined
/// with Wait() between waves, so the pool stays warm across Algorithm 1's
/// batch sweep instead of paying thread start-up per wave.
///
/// Thread-safety: Submit and Wait may be called from any thread. Tasks must
/// not themselves call Submit/Wait on the same pool (no nested submission —
/// the search fan-out is a flat task list per wave).
///
/// Exceptions: a task that throws does NOT poison the pool. The worker
/// catches the exception, records the first one seen, and keeps draining;
/// the next Wait() rethrows that first exception after the wave has fully
/// finished (so in-flight accounting is always exact and later waves never
/// deadlock). Subsequent Wait() calls start clean.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks, then joins the workers. A pending task
  /// exception nobody Wait()ed for is dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task.
  void Submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished running, then rethrows
  /// the first exception any of them raised (if any), clearing it.
  void Wait();

  /// The machine's hardware concurrency (>= 1 even when unknown).
  static int HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  int in_flight_ = 0;  // queued + currently executing tasks
  bool shutting_down_ = false;
  std::exception_ptr first_error_;  // first task exception since last Wait
  std::vector<std::thread> workers_;
};

/// Runs fn(0), ..., fn(count - 1), distributing the calls across the
/// caller and `pool`. Blocks until every call has finished. With a null
/// pool (or a single-thread pool, or count <= min_grain) the calls run
/// inline on the caller, in index order — the serial baseline and the
/// parallel path share one code shape, which is what makes "identical
/// results regardless of thread count" testable.
///
/// Scheduling: the caller plus min(num_threads, hardware cores,
/// ceil(count / min_grain)) - 1 pool helpers claim min_grain consecutive
/// indices at a time off a shared atomic cursor (self-scheduling), so
/// indices start in index order and uneven costs rebalance down to one
/// grain. The caller waits only for claims in flight, not for helpers
/// still queued: a helper that never gets a core costs nothing, so the
/// fan-out is never slower than the inline loop by more than one grain
/// (plus the submits). The hardware-core cap means oversized pools
/// degrade to however much parallelism the host actually has (down to
/// inline serial on one core).
///
/// `min_grain` is the number of indices worth shipping to a worker at a
/// time: waves with count <= min_grain run inline, and every claim takes
/// min_grain indices (the final one may be partial). Use 1 (the default)
/// when each index is substantial work (the optimizer's per-configuration
/// evaluations); raise it for cheap per-index bodies.
///
/// An exception thrown by `fn` abandons the rest of its chunk; every other
/// chunk still runs, and the first exception is rethrown here once no
/// claim is in flight. Helpers still queued at that point are harmless:
/// they find the cursor exhausted. The pool stays usable.
void ParallelFor(ThreadPool* pool, int count,
                 const std::function<void(int)>& fn, int min_grain = 1);

}  // namespace galvatron

#endif  // GALVATRON_UTIL_THREAD_POOL_H_
