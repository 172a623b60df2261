#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/telemetry/telemetry.h"

namespace lgv {

namespace {
double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// Every condition wait in the pool is a timed wait. glibc before 2.41 can
// lose a condvar wakeup outright (bug 25847, "pthread_cond_signal failed to
// wake up pthread_cond_wait due to a bug in undoing stealing"): after heavy
// notify_one churn a later notify_all may leave one waiter asleep. During a
// mission a lost wake self-heals — workers re-check the queue after every
// task — but the destructor's notify_all is the last signal ever sent, and a
// worker that misses it sleeps forever while join() blocks. The periodic
// predicate re-check turns that into a bounded delay instead of a deadlock.
constexpr std::chrono::milliseconds kWaitSlice{100};

// Wall-clock microsecond buckets: 1 µs .. 100 ms.
std::vector<double> us_bounds() {
  return {1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
          1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5};
}
}  // namespace

ChunkRange chunk_range(size_t count, size_t chunks, size_t chunk) {
  assert(chunks > 0 && chunk < chunks);
  const size_t base = count / chunks;
  const size_t extra = count % chunks;
  const size_t begin = chunk * base + std::min(chunk, extra);
  const size_t len = base + (chunk < extra ? 1 : 0);
  return {begin, begin + len};
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::set_telemetry(telemetry::Telemetry* telemetry,
                               const std::string& pool_name) {
  const std::scoped_lock lock(mutex_);
  if (telemetry == nullptr || !telemetry->enabled()) {
    tasks_total_ = nullptr;
    busy_us_total_ = nullptr;
    queue_depth_ = nullptr;
    task_wait_us_ = nullptr;
    task_run_us_ = nullptr;
    return;
  }
  const telemetry::Labels labels = {{"pool", pool_name}};
  auto& m = telemetry->metrics();
  tasks_total_ = &m.counter("pool_tasks_total", labels);
  busy_us_total_ = &m.counter("pool_busy_us_total", labels);
  queue_depth_ = &m.gauge("pool_queue_depth", labels);
  task_wait_us_ = &m.histogram("pool_task_wait_us", labels, us_bounds());
  task_run_us_ = &m.histogram("pool_task_run_us", labels, us_bounds());
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    while (!task_ready_.wait_for(lock, kWaitSlice,
                                 [this] { return stopping_ || !queue_.empty(); })) {
    }
    if (queue_.empty()) return;  // stopping_ and drained
    const Task task = queue_.front();
    queue_.pop_front();
    const std::function<void(size_t)>& body = *task.region->body;
    // Handles read under the lock; they are stable for the pool's lifetime.
    telemetry::Counter* const tasks_total = tasks_total_;
    telemetry::Counter* const busy_us_total = busy_us_total_;
    telemetry::Histogram* const task_wait_us = task_wait_us_;
    telemetry::Histogram* const task_run_us = task_run_us_;
    if (queue_depth_ != nullptr) queue_depth_->set(static_cast<double>(queue_.size()));
    lock.unlock();

    const auto start = std::chrono::steady_clock::now();
    body(task.index);
    if (tasks_total != nullptr) {
      const double run_us = elapsed_us(start, std::chrono::steady_clock::now());
      tasks_total->inc();
      busy_us_total->inc(static_cast<uint64_t>(run_us));
      task_wait_us->observe(elapsed_us(task.enqueued, start));
      task_run_us->observe(run_us);
    }

    // The region's last touch by this worker: once pending reaches zero the
    // caller may return and free it, but it cannot observe the zero before
    // this thread releases mutex_.
    lock.lock();
    if (--task.region->pending == 0) region_done_.notify_all();
  }
}

void ThreadPool::run_region(size_t tasks, const std::function<void(size_t)>& body) {
  Region region{&body, tasks};
  std::unique_lock lock(mutex_);
  const auto now = std::chrono::steady_clock::now();
  for (size_t t = 0; t < tasks; ++t) queue_.push_back({&region, t, now});
  if (queue_depth_ != nullptr) queue_depth_->set(static_cast<double>(queue_.size()));
  lock.unlock();
  for (size_t t = 0; t < tasks; ++t) task_ready_.notify_one();
  lock.lock();
  while (!region_done_.wait_for(lock, kWaitSlice, [&] { return region.pending == 0; })) {
  }
}

void ThreadPool::parallel_chunks(size_t count, size_t chunks,
                                 const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) return;
  chunks = std::max<size_t>(1, std::min(chunks, count));
  if (chunks == 1) {
    fn(0, count);
    return;
  }
  run_region(chunks, [&](size_t c) {
    const ChunkRange r = chunk_range(count, chunks, c);
    fn(r.begin, r.end);
  });
}

void ThreadPool::parallel_dynamic(size_t count, size_t grain,
                                  const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) return;
  grain = std::max<size_t>(1, grain);
  const size_t n_grains = (count + grain - 1) / grain;
  const size_t n_tasks = std::min(num_threads(), n_grains);
  if (n_tasks <= 1) {
    fn(0, count);
    return;
  }
  // Shared grab counter: each task loops, claiming the next grain until the
  // counter passes count. The tail grain is short.
  std::atomic<size_t> next{0};
  run_region(n_tasks, [&](size_t) {
    size_t begin;
    while ((begin = next.fetch_add(grain, std::memory_order_relaxed)) < count) {
      fn(begin, std::min(begin + grain, count));
    }
  });
}

}  // namespace lgv
