// Fixed-size fork-join pool used by the cloud-acceleration kernels (parallel
// scanMatch, Fig. 6; parallel scoreTrajectory, Fig. 5). The pool mirrors the
// paper's design: a main thread partitions M work items into N chunks and
// blocks until all chunks complete. Tasks queue in one FIFO; the only way in
// is a parallel region, so every task belongs to a caller that is waiting
// for it. Fair share between vehicles is not this pool's job: the fleet
// worker (core::WorkerPool) arbitrates in virtual time before it dispatches.
//
// Region lifetime: a worker counts a task done in the same mutex_ section
// that fetches its next task, after the task's telemetry is recorded, and
// the caller waits on a pool-owned condition variable. So no worker touches
// a region (which lives on the caller's stack) after its caller can see it
// finished.
//
// Concurrency hygiene follows the C++ Core Guidelines: RAII locks only
// (CP.20), condition waits always have a predicate (CP.42), threads are
// joined in the destructor (CP.23/CP.25), tasks are the unit of work (CP.4).
// All condition waits are timed (see kWaitSlice in the .cpp) so a lost
// wakeup — glibc < 2.41 can drop one under notify churn (bug 25847) —
// degrades to a bounded delay instead of a shutdown deadlock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace lgv {

namespace telemetry {
class Counter;
class Gauge;
class Histogram;
class Telemetry;
}  // namespace telemetry

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Wire the pool's hot-path metrics into `telemetry` (nullptr disconnects):
  /// `pool_tasks_total`, `pool_queue_depth`, `pool_task_wait_us` /
  /// `pool_task_run_us` histograms and `pool_busy_us_total`, all labeled
  /// {pool=`pool_name`}. Times are host wall-clock — the pool runs real
  /// threads; virtual time never advances inside a task. Worker utilization
  /// over an interval is busy_us / (interval · num_threads).
  ///
  /// Lifetime: `telemetry` must outlive the pool — destroy the pool, which
  /// joins the workers, before the bundle.
  void set_telemetry(telemetry::Telemetry* telemetry,
                     const std::string& pool_name = "remote_pool");

  /// Run fn(i) for i in [0, count) across the pool, blocking until done.
  /// Work is partitioned into contiguous chunks, one per worker, matching the
  /// static partitioning the paper describes for both parallel kernels.
  /// Templated so the per-item call inlines inside each chunk — only one
  /// type-erased dispatch happens per chunk, not per index.
  template <typename Fn>
  void parallel_for(size_t count, Fn&& fn) {
    parallel_chunks(count, num_threads(), [&fn](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }

  /// Chunked variant: fn(begin, end) once per chunk. `chunks` defaults to the
  /// worker count. Exposed so callers can meter per-chunk work.
  void parallel_chunks(size_t count, size_t chunks,
                       const std::function<void(size_t begin, size_t end)>& fn);

  /// Dynamic-scheduling variant: min(workers, ceil(count/grain)) tasks each
  /// grab the next `grain`-sized range of [0, count) off a shared atomic
  /// counter until none remain, then block until every range ran. Unlike the
  /// static partition above, a worker that drew cheap items (e.g. trajectory
  /// candidates that early-exit on collision) immediately takes more work
  /// instead of idling, so the region finishes when the *work* runs out, not
  /// when the unluckiest pre-assigned chunk does. fn(begin, end) may run
  /// concurrently with itself on disjoint ranges; ranges are contiguous,
  /// disjoint, and cover [0, count) exactly once.
  void parallel_dynamic(size_t count, size_t grain,
                        const std::function<void(size_t begin, size_t end)>& fn);

 private:
  /// One parallel region: `pending` of its tasks have not finished yet.
  /// Lives on the caller's stack; workers read and write it only under
  /// mutex_, and never after the decrement that brings `pending` to zero.
  struct Region {
    const std::function<void(size_t task)>* body;
    size_t pending;
  };
  struct Task {
    Region* region;
    size_t index;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Queue body(t) for t in [0, tasks) and block until every one has run.
  void run_region(size_t tasks, const std::function<void(size_t task)>& body);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable region_done_;
  bool stopping_ = false;

  // Telemetry handles (cached once in set_telemetry; null when disabled).
  telemetry::Counter* tasks_total_ = nullptr;
  telemetry::Counter* busy_us_total_ = nullptr;
  telemetry::Gauge* queue_depth_ = nullptr;
  telemetry::Histogram* task_wait_us_ = nullptr;
  telemetry::Histogram* task_run_us_ = nullptr;
};

/// Compute the contiguous [begin, end) range of chunk `chunk` out of `chunks`
/// over `count` items, distributing the remainder over the leading chunks.
struct ChunkRange {
  size_t begin;
  size_t end;
};
ChunkRange chunk_range(size_t count, size_t chunks, size_t chunk);

}  // namespace lgv
