#include "runtime/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace byzcast::runtime {
namespace {

/// Drains one batch and returns it (empty when closed and drained).
std::vector<int> drain_batch(Mailbox<int>& mb) {
  std::vector<int> batch;
  mb.drain(batch);
  return batch;
}

/// Polls `flag` until it is set or `timeout` passes.
bool wait_until(const std::atomic<bool>& flag,
                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(Mailbox, FifoSingleThread) {
  Mailbox<int> mb(8);
  EXPECT_TRUE(mb.push(1));
  EXPECT_TRUE(mb.push(2));
  EXPECT_TRUE(mb.push(3));
  EXPECT_EQ(drain_batch(mb), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(mb.size(), 0u);
}

TEST(Mailbox, PushBlocksAtCapacityUntilPop) {
  Mailbox<int> mb(1);
  ASSERT_TRUE(mb.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(mb.push(2));  // full: must wait for the drain below
    pushed.store(true);
  });
  // Cannot assert "still blocked" without a race; assert the postcondition:
  // after one drain, the producer gets through and both items come out FIFO.
  EXPECT_EQ(drain_batch(mb), (std::vector<int>{1}));
  EXPECT_EQ(drain_batch(mb), (std::vector<int>{2}));
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(Mailbox, ForcePushIgnoresCapacity) {
  Mailbox<int> mb(2);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(mb.force_push(i));
  EXPECT_EQ(mb.size(), 10u);
  EXPECT_EQ(drain_batch(mb),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Mailbox, CloseWakesBlockedProducerWithFalse) {
  Mailbox<int> mb(1);
  ASSERT_TRUE(mb.push(1));
  std::thread producer([&] { EXPECT_FALSE(mb.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  mb.close();
  producer.join();
  // The queued item survives the close for the consumer to drain.
  EXPECT_EQ(drain_batch(mb), (std::vector<int>{1}));
  std::vector<int> batch;
  EXPECT_FALSE(mb.drain(batch));  // drained and closed
}

TEST(Mailbox, CloseWakesBlockedConsumerAfterDrain) {
  Mailbox<int> mb(4);
  std::thread consumer([&] {
    std::vector<int> batch;
    EXPECT_FALSE(mb.drain(batch));  // blocks until close, then false (empty)
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  mb.close();
  consumer.join();
  EXPECT_FALSE(mb.push(7));
  EXPECT_FALSE(mb.force_push(7));
}

TEST(Mailbox, MultiProducerSingleConsumerDeliversEverything) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  Mailbox<int> mb(16);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mb, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(mb.force_push(p * kPerProducer + i));
      }
    });
  }
  constexpr std::size_t kTotal = kProducers * kPerProducer;
  std::vector<int> seen;
  std::thread consumer([&] {
    std::vector<int> batch;
    while (seen.size() < kTotal) {
      ASSERT_TRUE(mb.drain(batch));
      seen.insert(seen.end(), batch.begin(), batch.end());
      batch.clear();
    }
  });
  for (auto& t : producers) t.join();
  consumer.join();
  ASSERT_EQ(seen.size(), kTotal);
  // Per-producer FIFO: each producer's items appear in its push order.
  std::vector<int> last(kProducers, -1);
  for (const int v : seen) {
    const int p = v / kPerProducer;
    EXPECT_LT(last[p], v % kPerProducer);
    last[p] = v % kPerProducer;
  }
}

TEST(Mailbox, BatchDrainKeepsEachProducersOrderAcrossBatches) {
  Mailbox<int> mb(64);
  std::vector<int> batch;
  // Two producers interleaved: 1xx and 2xx. A batch holds everything queued
  // at drain time, in push order; the next batch continues each sequence.
  ASSERT_TRUE(mb.force_push(100));
  ASSERT_TRUE(mb.force_push(200));
  ASSERT_TRUE(mb.force_push(101));
  ASSERT_TRUE(mb.drain(batch));
  EXPECT_EQ(batch, (std::vector<int>{100, 200, 101}));
  batch.clear();
  ASSERT_TRUE(mb.force_push(201));
  ASSERT_TRUE(mb.force_push(102));
  ASSERT_TRUE(mb.force_push(202));
  ASSERT_TRUE(mb.drain(batch));
  EXPECT_EQ(batch, (std::vector<int>{201, 102, 202}));
  EXPECT_EQ(mb.size(), 0u);
}

TEST(Mailbox, CloseThenDrainReturnsTheRestThenFalse) {
  Mailbox<int> mb(2);
  ASSERT_TRUE(mb.push(1));
  ASSERT_TRUE(mb.force_push(2));
  ASSERT_TRUE(mb.force_push(3));
  mb.close();
  EXPECT_FALSE(mb.force_push(4));
  std::vector<int> batch;
  ASSERT_TRUE(mb.drain(batch));
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3}));
  batch.clear();
  EXPECT_FALSE(mb.drain(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(Mailbox, PushBlockedAtCapacityWakesAfterBatchDrain) {
  Mailbox<int> mb(2);
  ASSERT_TRUE(mb.push(1));
  ASSERT_TRUE(mb.push(2));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    mb.push(3);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // full: the producer waits
  std::vector<int> batch;
  ASSERT_TRUE(mb.drain(batch));
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  // One drain empties the queue, so the blocked producer must be woken by
  // it rather than by a later per-item pop.
  EXPECT_TRUE(wait_until(pushed, std::chrono::seconds(10)));
  mb.close();  // releases the producer if it is still (wrongly) blocked
  producer.join();
  batch.clear();
  ASSERT_TRUE(mb.drain(batch));
  EXPECT_EQ(batch, (std::vector<int>{3}));
}

}  // namespace
}  // namespace byzcast::runtime
