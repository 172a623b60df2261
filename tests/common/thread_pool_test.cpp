#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/telemetry/telemetry.h"

namespace lgv {
namespace {

TEST(ChunkRange, EvenSplit) {
  const ChunkRange r0 = chunk_range(8, 4, 0);
  EXPECT_EQ(r0.begin, 0u);
  EXPECT_EQ(r0.end, 2u);
  const ChunkRange r3 = chunk_range(8, 4, 3);
  EXPECT_EQ(r3.begin, 6u);
  EXPECT_EQ(r3.end, 8u);
}

TEST(ChunkRange, RemainderGoesToLeadingChunks) {
  // 10 items over 4 chunks → 3,3,2,2.
  EXPECT_EQ(chunk_range(10, 4, 0).end - chunk_range(10, 4, 0).begin, 3u);
  EXPECT_EQ(chunk_range(10, 4, 1).end - chunk_range(10, 4, 1).begin, 3u);
  EXPECT_EQ(chunk_range(10, 4, 2).end - chunk_range(10, 4, 2).begin, 2u);
  EXPECT_EQ(chunk_range(10, 4, 3).end - chunk_range(10, 4, 3).begin, 2u);
}

TEST(ChunkRange, CoversAllItemsExactlyOnce) {
  for (size_t count : {1u, 7u, 24u, 100u}) {
    for (size_t chunks : {1u, 3u, 8u}) {
      std::vector<int> hits(count, 0);
      for (size_t c = 0; c < chunks; ++c) {
        const ChunkRange r = chunk_range(count, chunks, c);
        for (size_t i = r.begin; i < r.end; ++i) ++hits[i];
      }
      for (size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i], 1) << count << " " << chunks;
    }
  }
}

TEST(ChunkRange, FewerItemsThanChunks) {
  // 3 items over 8 chunks → one item each for the first three, empty after.
  for (size_t c = 0; c < 8; ++c) {
    const ChunkRange r = chunk_range(3, 8, c);
    EXPECT_LE(r.begin, r.end);
    EXPECT_EQ(r.end - r.begin, c < 3 ? 1u : 0u) << c;
  }
  // Empty chunks must still be valid (begin == end, within bounds).
  EXPECT_EQ(chunk_range(3, 8, 7).begin, 3u);
  EXPECT_EQ(chunk_range(3, 8, 7).end, 3u);
}

TEST(ChunkRange, ZeroItems) {
  for (size_t c = 0; c < 4; ++c) {
    const ChunkRange r = chunk_range(0, 4, c);
    EXPECT_EQ(r.begin, 0u);
    EXPECT_EQ(r.end, 0u);
  }
}

TEST(ThreadPool, RunsSubmittedTasks) {
  // Every task of a region runs exactly once, on a worker: the caller only
  // waits.
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> counter{0};
  std::atomic<int> on_caller{0};
  pool.parallel_chunks(100, 100, [&](size_t begin, size_t end) {
    counter.fetch_add(static_cast<int>(end - begin));
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(on_caller.load(), 0);
}

TEST(ThreadPool, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelChunksSumMatches) {
  ThreadPool pool(4);
  std::vector<long> data(257);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<long> total{0};
  pool.parallel_chunks(data.size(), 4, [&](size_t begin, size_t end) {
    long local = 0;
    for (size_t i = begin; i < end; ++i) local += data[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 257L * 256L / 2L);
}

TEST(ThreadPool, ParallelChunksMoreChunksThanItems) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  pool.parallel_chunks(3, 8, [&](size_t begin, size_t end) {
    EXPECT_LT(begin, end);
    calls.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, ParallelDynamicVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1003);
  pool.parallel_dynamic(hits.size(), 4, [&hits](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelDynamicRangesRespectGrain) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.parallel_dynamic(10, 4, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin % 4, 0u);
    EXPECT_LE(end - begin, 4u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);  // [0,4) [4,8) [8,10)
}

TEST(ThreadPool, ParallelDynamicGrainLargerThanCount) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  pool.parallel_dynamic(3, 100, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
    visited.fetch_add(1);
  });
  EXPECT_EQ(visited.load(), 1);
}

TEST(ThreadPool, ParallelDynamicEmpty) {
  ThreadPool pool(2);
  pool.parallel_dynamic(0, 4, [](size_t, size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ReentrantUseAfterWait) {
  ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> n{0};
    pool.parallel_for(50, [&n](size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 50);
  }
}

TEST(ThreadPool, BackToBackRegionsLeaveNothingBehind) {
  // Region lifetime stress: thousands of tiny regions back to back, each
  // with its state on the caller's stack and each returning the moment its
  // last task is counted done. A worker that touched a finished region (a
  // completion latch on a returned stack frame) is a data race that
  // -DLGV_SANITIZE=thread reports here. Every task's telemetry must also be
  // recorded before its region returns.
  telemetry::Telemetry telemetry;
  ThreadPool pool(4);
  pool.set_telemetry(&telemetry, "stress");
  constexpr int kRegions = 4000;
  for (int round = 0; round < kRegions; ++round) {
    std::atomic<int> items{0};
    if (round % 2 == 0) {
      pool.parallel_chunks(4, 4, [&items](size_t begin, size_t end) {
        items.fetch_add(static_cast<int>(end - begin));
      });
    } else {
      pool.parallel_dynamic(8, 1, [&items](size_t begin, size_t end) {
        items.fetch_add(static_cast<int>(end - begin));
      });
    }
    ASSERT_EQ(items.load(), round % 2 == 0 ? 4 : 8) << "round " << round;
  }
  // Both shapes dispatch exactly four tasks on a 4-thread pool.
  EXPECT_EQ(telemetry.metrics().counter("pool_tasks_total", {{"pool", "stress"}}).value(),
            4u * kRegions);
}

TEST(ThreadPool, DestructionWithPendingWorkJoinsCleanly) {
  // More tasks than workers, then the pool goes away as soon as the region
  // returns: every task ran exactly once and the workers join.
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    pool.parallel_chunks(20, 20, [&done](size_t begin, size_t end) {
      done.fetch_add(static_cast<int>(end - begin));
    });
  }
  EXPECT_EQ(done.load(), 20);
}

}  // namespace
}  // namespace lgv
