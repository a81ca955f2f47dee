#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/timer_wheel.hpp"
#include "runtime/wall_clock.hpp"

namespace byzcast::runtime {
namespace {

/// Blocks the caller until `count` arrivals.
class Latch {
 public:
  explicit Latch(int count) : remaining_(count) {}
  void arrive() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }
  bool wait_for(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return remaining_ <= 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int remaining_;
};

TEST(Executor, TasksRunOnTheirAssignedWorker) {
  Executor ex(3);
  ex.start();
  constexpr int kTasks = 50;
  // One plain (non-atomic) counter per worker: only that worker writes it,
  // which is exactly the serialization the executor promises. TSan audits.
  std::vector<int> per_worker(3, 0);
  Latch done(3 * kTasks);
  for (int i = 0; i < kTasks; ++i) {
    for (std::size_t w = 0; w < 3; ++w) {
      ASSERT_TRUE(ex.post(w, [&, w] {
        EXPECT_EQ(ex.current_worker(), w);
        ++per_worker[w];
        done.arrive();
      }));
    }
  }
  ASSERT_TRUE(done.wait_for(std::chrono::seconds(30)));
  ex.stop();
  for (std::size_t w = 0; w < 3; ++w) EXPECT_EQ(per_worker[w], kTasks);
}

TEST(Executor, SelfPostRunsBeforeLaterMailboxTraffic) {
  Executor ex(1);
  ex.start();
  std::vector<int> order;
  Latch done(1);
  ASSERT_TRUE(ex.post(0, [&] {
    // The continuation self-posts; it must run before task B, which is
    // already behind us in the mailbox by the time we finish.
    ex.post(0, [&] { order.push_back(1); });
    order.push_back(0);
  }));
  ASSERT_TRUE(ex.post(0, [&] {
    order.push_back(2);
    done.arrive();
  }));
  ASSERT_TRUE(done.wait_for(std::chrono::seconds(30)));
  ex.stop();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Executor, SelfPostRunsBeforeRestOfQueuedBatch) {
  Executor ex(1);
  std::vector<char> order;
  Latch done(1);
  // Queued before start, so the worker drains A, B and C as one batch; A's
  // self-post must still run before B.
  ASSERT_TRUE(ex.post(0, [&] {
    order.push_back('A');
    ex.post(0, [&] { order.push_back('a'); });
  }));
  ASSERT_TRUE(ex.post(0, [&] { order.push_back('B'); }));
  ASSERT_TRUE(ex.post(0, [&] {
    order.push_back('C');
    done.arrive();
  }));
  ex.start();
  ASSERT_TRUE(done.wait_for(std::chrono::seconds(30)));
  ex.stop();
  EXPECT_EQ(order, (std::vector<char>{'A', 'a', 'B', 'C'}));
}

TEST(Executor, StopDrainsQueuedTasksThenRejects) {
  Executor ex(2);
  std::atomic<int> ran{0};
  // Queued before start: they run once the workers spin up, and stop()
  // must not lose them.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ex.post(i % 2, [&] { ran.fetch_add(1); }));
  }
  ex.start();
  ex.stop();
  EXPECT_EQ(ran.load(), 20);
  EXPECT_FALSE(ex.post(0, [] {}));
  EXPECT_FALSE(ex.post_external(1, [] {}));
}

TEST(Executor, ExternalPostAppliesBackpressureNotLoss) {
  Executor ex(1, /*mailbox_capacity=*/4);
  std::atomic<int> ran{0};
  // More tasks than capacity while the worker is not yet running: the edge
  // blocks instead of dropping, so start the worker from another thread.
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ex.start();
  });
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(ex.post_external(0, [&] { ran.fetch_add(1); }));
  }
  starter.join();
  ex.stop();
  EXPECT_EQ(ran.load(), 64);
}

TEST(TimerWheel, FiresAfterDelayNeverEarly) {
  TimerWheel wheel(kMillisecond);
  WallClock clock;
  wheel.start();
  std::atomic<Time> fired_at{-1};
  Latch done(1);
  const Time delay = 20 * kMillisecond;
  const Time armed_at = clock.now();
  wheel.schedule(delay, [&] {
    fired_at.store(clock.now());
    done.arrive();
  });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds(30)));
  wheel.stop();
  EXPECT_GE(fired_at.load() - armed_at, delay);
}

TEST(TimerWheel, AcceptsSchedulesBeforeStart) {
  TimerWheel wheel(kMillisecond);
  std::atomic<bool> fired{false};
  Latch done(1);
  wheel.schedule(5 * kMillisecond, [&] {
    fired.store(true);
    done.arrive();
  });
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_FALSE(fired.load());  // cold wheel: nothing fires until start
  wheel.start();
  ASSERT_TRUE(done.wait_for(std::chrono::seconds(30)));
  wheel.stop();
  EXPECT_TRUE(fired.load());
}

TEST(TimerWheel, StopDropsPendingTimers) {
  TimerWheel wheel(kMillisecond);
  wheel.start();
  std::atomic<bool> fired{false};
  wheel.schedule(60 * kSecond, [&] { fired.store(true); });
  EXPECT_EQ(wheel.pending(), 1u);
  wheel.stop();
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_FALSE(fired.load());
  // And a post-stop schedule is silently dropped, not queued forever.
  wheel.schedule(kMillisecond, [&] { fired.store(true); });
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, DelaysLongerThanOneRevolutionFireOnce) {
  // 8 slots x 1ms tick: a 30ms delay needs several revolutions' rounds.
  TimerWheel wheel(kMillisecond, /*slots=*/8);
  WallClock clock;
  wheel.start();
  std::atomic<int> fires{0};
  Latch done(1);
  const Time armed_at = clock.now();
  std::atomic<Time> fired_at{0};
  wheel.schedule(30 * kMillisecond, [&] {
    fires.fetch_add(1);
    fired_at.store(clock.now());
    done.arrive();
  });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds(30)));
  // Give a spurious second fire a chance to happen before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  wheel.stop();
  EXPECT_EQ(fires.load(), 1);
  EXPECT_GE(fired_at.load() - armed_at, 30 * kMillisecond);
}

}  // namespace
}  // namespace byzcast::runtime
