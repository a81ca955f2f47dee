#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"

namespace byzcast {
namespace {

TEST(LatencyRecorder, MeanAndPercentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.record(/*when=*/i, /*latency=*/i * kMillisecond);
  }
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_NEAR(rec.mean_ms(), 50.5, 1e-9);
  EXPECT_NEAR(rec.percentile_ms(0), 1.0, 1e-9);
  EXPECT_NEAR(rec.percentile_ms(100), 100.0, 1e-9);
  EXPECT_NEAR(rec.median_ms(), 50.5, 1e-9);
  EXPECT_NEAR(rec.percentile_ms(95), 95.05, 0.1);
}

TEST(LatencyRecorder, WarmupExcluded) {
  LatencyRecorder rec;
  rec.set_warmup(10 * kSecond);
  rec.record(1 * kSecond, 999 * kMillisecond);   // warm-up, excluded
  rec.record(11 * kSecond, 5 * kMillisecond);
  rec.record(12 * kSecond, 15 * kMillisecond);
  EXPECT_EQ(rec.count(), 2u);
  EXPECT_NEAR(rec.mean_ms(), 10.0, 1e-9);
}

TEST(LatencyRecorder, EmptyIsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.mean_ms(), 0.0);
  EXPECT_EQ(rec.percentile_ms(99), 0.0);
  EXPECT_TRUE(rec.cdf().empty());
}

TEST(LatencyRecorder, CdfMonotone) {
  LatencyRecorder rec;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    rec.record(i, static_cast<Time>(rng.next_below(50)) * kMillisecond);
  }
  const auto points = rec.cdf(50);
  ASSERT_FALSE(points.empty());
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].first, points[i - 1].first);
    EXPECT_GE(points[i].second, points[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(ThroughputMeter, RateOverWindow) {
  ThroughputMeter meter;
  // 100 events in the first second, 200 in the second.
  for (int i = 0; i < 100; ++i) meter.record(i * 10 * kMillisecond);
  for (int i = 0; i < 200; ++i) {
    meter.record(kSecond + i * 5 * kMillisecond);
  }
  EXPECT_NEAR(meter.rate_per_sec(0, kSecond), 100.0, 1e-9);
  EXPECT_NEAR(meter.rate_per_sec(kSecond, 2 * kSecond), 200.0, 1e-9);
  EXPECT_NEAR(meter.rate_per_sec(0, 2 * kSecond), 150.0, 1e-9);
  EXPECT_EQ(meter.total(), 300u);
}

TEST(ThroughputMeter, EmptyWindow) {
  ThroughputMeter meter;
  meter.record(5 * kSecond);
  EXPECT_EQ(meter.rate_per_sec(0, kSecond), 0.0);
}

// Regression for the sorted-view cache: interleaving record() calls with
// percentile queries must yield exactly what a fresh recorder (fed the same
// samples, queried once) computes — the cache may never serve stale data.
TEST(LatencyRecorder, CachedPercentilesMatchFreshAfterInterleavedRecords) {
  LatencyRecorder cached;
  Rng rng(42);
  std::vector<Time> latencies;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      const Time lat = static_cast<Time>(1 + rng.next_below(500)) *
                       kMillisecond;
      latencies.push_back(lat);
      cached.record(/*when=*/round * kSecond + i, lat);
    }
    // Query between batches so the cache is rebuilt, then dirtied again.
    LatencyRecorder fresh;
    for (std::size_t i = 0; i < latencies.size(); ++i) {
      fresh.record(static_cast<Time>(i), latencies[i]);
    }
    for (const double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
      EXPECT_DOUBLE_EQ(cached.percentile_ms(p), fresh.percentile_ms(p))
          << "round " << round << " p" << p;
    }
    EXPECT_DOUBLE_EQ(cached.mean_ms(), fresh.mean_ms()) << "round " << round;
  }
}

TEST(LatencyRecorder, CacheInvalidatedByWarmupChange) {
  LatencyRecorder rec;
  rec.record(1 * kSecond, 100 * kMillisecond);
  rec.record(11 * kSecond, 10 * kMillisecond);
  EXPECT_NEAR(rec.mean_ms(), 55.0, 1e-9);  // builds the cache over both
  rec.set_warmup(10 * kSecond);            // must invalidate it
  EXPECT_EQ(rec.count(), 1u);
  EXPECT_NEAR(rec.mean_ms(), 10.0, 1e-9);
  EXPECT_NEAR(rec.percentile_ms(50), 10.0, 1e-9);
}

TEST(ThroughputMeter, WindowBoundariesAreHalfOpen) {
  ThroughputMeter meter;
  meter.record(0);
  meter.record(kSecond);          // exactly on the upper bound: excluded
  meter.record(kSecond);
  meter.record(2 * kSecond - 1);  // just inside
  EXPECT_NEAR(meter.rate_per_sec(0, kSecond), 1.0, 1e-9);
  EXPECT_NEAR(meter.rate_per_sec(kSecond, 2 * kSecond), 3.0, 1e-9);
}

// Sweep-scale capacity regression: a bounded recorder fed past its cap must
// keep exactly max_samples observations, count the rest in overflow(), and
// still answer percentile queries from the retained prefix — never grow
// silently and never go quietly wrong.
TEST(LatencyRecorder, MillionSampleCapOverflowsLoudly) {
  LatencyRecorder rec;
  rec.reserve(1'000'000);
  rec.set_max_samples(1'000'000);
  for (std::uint64_t i = 0; i < 1'200'000; ++i) {
    rec.record(static_cast<Time>(i),
               static_cast<Time>(i % 1000 + 1) * kMillisecond);
  }
  EXPECT_EQ(rec.count(), 1'000'000u);
  EXPECT_EQ(rec.overflow(), 200'000u);
  // The retained prefix cycles uniformly through 1..1000 ms.
  EXPECT_NEAR(rec.median_ms(), 500.0, 2.0);
  EXPECT_NEAR(rec.percentile_ms(99), 990.0, 2.0);

  LatencyRecorder unbounded;
  for (std::uint64_t i = 0; i < 1'200'000; ++i) {
    unbounded.record(static_cast<Time>(i),
                     static_cast<Time>(i % 1000 + 1) * kMillisecond);
  }
  EXPECT_EQ(unbounded.count(), 1'200'000u);
  EXPECT_EQ(unbounded.overflow(), 0u);
}

TEST(ThroughputMeter, MillionEventCapKeepsTotalHonest) {
  ThroughputMeter meter;
  meter.reserve(1'000'000);
  meter.set_max_events(1'000'000);
  // 1.2M events, one per microsecond: the last 200k are dropped from
  // window queries but stay visible in total() and overflow().
  for (std::uint64_t i = 0; i < 1'200'000; ++i) {
    meter.record(static_cast<Time>(i) * 1000);
  }
  EXPECT_EQ(meter.total(), 1'200'000u);
  EXPECT_EQ(meter.overflow(), 200'000u);
  // The first second (1M microseconds) is fully stored...
  EXPECT_NEAR(meter.rate_per_sec(0, kSecond), 1e6, 1e-6);
  // ...and the dropped tail reads as zero rate, not fabricated events.
  EXPECT_NEAR(meter.rate_per_sec(kSecond, 2 * kSecond), 0.0, 1e-9);
}

}  // namespace
}  // namespace byzcast
