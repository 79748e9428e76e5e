// BoundedQueue: FIFO semantics, backpressure blocking, close-then-drain
// shutdown and multi-producer/multi-consumer accounting; BufferPool:
// storage reuse and the idle-buffer cap.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "platform/buffer_pool.hpp"
#include "platform/packet_queue.hpp"

namespace adres::platform {
namespace {

TEST(BoundedQueue, FifoSingleThread) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.tryPush(1));
  EXPECT_TRUE(q.tryPush(2));
  EXPECT_FALSE(q.tryPush(3)) << "full queue must reject tryPush";
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.tryPush(3));
}

TEST(BoundedQueue, PushBlocksUntilSpaceFrees) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    ASSERT_TRUE(q.push(2));  // blocks: capacity 1, queue holds {1}
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed) << "push must block while the queue is full";
  EXPECT_EQ(q.pop().value(), 1);
  t.join();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, CloseDrainsWithoutLosingItems) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i));
  q.close();
  EXPECT_FALSE(q.push(99)) << "closed queue rejects pushes";
  for (int i = 0; i < 5; ++i) {
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value()) << "accepted items survive close()";
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.pop().has_value()) << "drained + closed -> end of stream";
}

TEST(BoundedQueue, CloseWakesBlockedConsumers) {
  BoundedQueue<int> q(2);
  std::thread t([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  t.join();
}

TEST(BoundedQueue, MultiProducerMultiConsumerAccountsEveryItem) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 250;
  BoundedQueue<int> q(8);  // small capacity: forces backpressure
  std::mutex mu;
  std::multiset<int> seen;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        std::lock_guard<std::mutex> lk(mu);
        seen.insert(*v);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(q.push(p * kPerProducer + i));
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : threads) t.join();

  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  for (int i = 0; i < kProducers * kPerProducer; ++i)
    EXPECT_EQ(seen.count(i), 1u) << "item " << i << " duplicated or lost";
}

TEST(BoundedQueue, FullWaitAccumulatesOnlyWhileBlocked) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  EXPECT_EQ(q.fullWaitNs(), 0u) << "uncontended pushes record no wait";

  std::thread t([&] { ASSERT_TRUE(q.push(2)); });  // blocks: queue full
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_EQ(q.pop().value(), 1);
  t.join();
  // The producer sat blocked ~25 ms; allow generous scheduling slack but
  // require the wait to be clearly non-zero and roughly of that order.
  EXPECT_GE(q.fullWaitNs(), 5'000'000u) << "blocked push must be timed";

  const u64 afterBlocked = q.fullWaitNs();
  EXPECT_EQ(q.pop().value(), 2);
  ASSERT_TRUE(q.push(3));
  EXPECT_EQ(q.fullWaitNs(), afterBlocked)
      << "non-blocking pushes must not touch the backpressure clock";
}

TEST(BufferPool, RecyclesReleasedStorage) {
  BufferPool<int> pool;
  EXPECT_EQ(pool.idle(), 0u);
  EXPECT_TRUE(pool.acquire().empty()) << "empty pool hands out a fresh buffer";

  std::vector<int> buf{1, 2, 3, 4};
  const int* storage = buf.data();
  pool.release(std::move(buf));
  EXPECT_EQ(pool.idle(), 1u);

  const std::vector<int> again = pool.acquire();
  EXPECT_EQ(pool.idle(), 0u);
  EXPECT_TRUE(again.empty()) << "recycled buffers come back cleared";
  EXPECT_EQ(again.data(), storage) << "recycled buffer must reuse storage";
  EXPECT_GE(again.capacity(), 4u);

  pool.release(std::vector<int>{});  // capacity-0: nothing worth keeping
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(BufferPool, ForeignBuffersBeyondTheCapAreFreed) {
  // A submitter that brings fresh buffers and never acquires (the cell
  // layer) must not grow the pool: nothing was ever handed out, so
  // nothing is kept.
  BufferPool<int> pool;
  for (int i = 0; i < 1000; ++i) {
    pool.release(std::vector<int>(64, i));
    ASSERT_EQ(pool.idle(), 0u);
  }
  EXPECT_EQ(pool.cap(), 0u);
}

TEST(BufferPool, ClosedLoopKeepsEveryBufferAndNeverExceedsTheCap) {
  // A steady-state loop with k buffers in flight: after the first round
  // every acquire is served from the pool (the cap stops growing), while
  // extra foreign releases are dropped so idle() never exceeds cap().
  BufferPool<int> pool;
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const std::size_t k = 1 + rng.below(8);
    std::vector<std::vector<int>> out;
    for (std::size_t i = 0; i < k; ++i) {
      out.push_back(pool.acquire());
      out.back().resize(32);
    }
    for (auto& b : out) {
      pool.release(std::move(b));
      ASSERT_LE(pool.idle(), pool.cap());
      if (rng.bit()) pool.release(std::vector<int>(32));  // foreign extra
      ASSERT_LE(pool.idle(), pool.cap());
    }
    EXPECT_EQ(pool.idle(), pool.cap()) << "every loop buffer came back";
    EXPECT_LE(pool.cap(), 8u) << "cap tracks the most buffers in flight";
  }
  const std::size_t cap = pool.cap();
  std::vector<std::vector<int>> out;
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(pool.acquire());
    EXPECT_GE(out.back().capacity(), 32u) << "served from the pool";
  }
  EXPECT_EQ(pool.cap(), cap) << "no fresh buffer while the loop fits the cap";
}

}  // namespace
}  // namespace adres::platform
