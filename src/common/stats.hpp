// Measurement utilities shared by tests and the benchmark harness:
// latency samples with percentiles/CDF and a windowed throughput meter.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace byzcast {

/// Collects latency samples (simulated-time durations) and reports summary
/// statistics. Supports an optional warm-up cutoff: samples recorded before
/// the cutoff are kept but excluded from statistics, mirroring how the
/// paper's benchmarks discard warm-up.
///
/// Sweep-scale runs record millions of samples: call reserve() with the
/// expected count up front (no mid-run reallocation stalls) and optionally
/// set_max_samples() to bound memory. Once the bound is hit further samples
/// are dropped and counted in overflow() instead of silently growing — a
/// nonzero overflow means the reported percentiles cover only the first
/// max_samples observations, and callers (the sweep driver, benches) treat
/// that as a configuration error to surface, not to hide.
class LatencyRecorder {
 public:
  /// Records a sample taken at `when` with duration `latency`.
  void record(Time when, Time latency);

  /// Pre-allocates storage for `n` samples.
  void reserve(std::size_t n) { samples_.reserve(n); }

  /// Caps stored samples at `n` (0 = unbounded, the default). Samples past
  /// the cap are counted in overflow() and dropped.
  void set_max_samples(std::size_t n) { max_samples_ = n; }

  /// Samples dropped because the set_max_samples() bound was reached.
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }

  void set_warmup(Time cutoff) {
    warmup_cutoff_ = cutoff;
    cache_valid_ = false;
  }

  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] double mean_ms() const;
  [[nodiscard]] double percentile_ms(double p) const;  // p in [0, 100]
  [[nodiscard]] double median_ms() const { return percentile_ms(50.0); }

  /// (latency_ms, cumulative_fraction) points suitable for plotting a CDF;
  /// at most `max_points` evenly spaced points.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf(
      std::size_t max_points = 100) const;

 private:
  /// Sorted post-warmup latencies. Cached: a sweep point asks for this
  /// eight times in a row and benchmarks poll percentiles mid-run, so
  /// rebuilding (copy + O(n log n) sort) on every call was a hot-path sink.
  /// The cache is invalidated by record() and set_warmup().
  [[nodiscard]] const std::vector<Time>& effective_sorted() const;

  struct Sample {
    Time when;
    Time latency;
  };
  std::vector<Sample> samples_;
  Time warmup_cutoff_ = 0;
  std::size_t max_samples_ = 0;  // 0 = unbounded
  std::uint64_t overflow_ = 0;
  mutable std::vector<Time> sorted_cache_;
  mutable bool cache_valid_ = false;
};

/// Counts completion events and reports a rate over the measurement window
/// (excluding warm-up and cool-down). Events must be recorded in
/// nondecreasing time order (simulated time is monotone), which lets every
/// window query binary-search instead of scanning all events.
///
/// Same capacity discipline as LatencyRecorder: reserve() up front for
/// sweep-scale runs, set_max_events() to bound memory. Overflowed events are
/// dropped from window queries but still counted in total() and overflow(),
/// so a degraded meter is loud, not silently wrong.
class ThroughputMeter {
 public:
  void record(Time when);

  /// Pre-allocates storage for `n` events.
  void reserve(std::size_t n) { events_.reserve(n); }

  /// Caps stored events at `n` (0 = unbounded, the default).
  void set_max_events(std::size_t n) { max_events_ = n; }

  /// Events dropped past the set_max_events() bound (excluded from window
  /// rates — a nonzero value means rate_per_sec underreports).
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }

  /// Events per second between `from` and `to` (simulated time).
  [[nodiscard]] double rate_per_sec(Time from, Time to) const;

  /// All recorded events, stored or overflowed.
  [[nodiscard]] std::size_t total() const {
    return events_.size() + overflow_;
  }

 private:
  /// Number of events in [from, to), by binary search.
  [[nodiscard]] std::size_t count_in(Time from, Time to) const;

  std::vector<Time> events_;  // nondecreasing
  std::size_t max_events_ = 0;  // 0 = unbounded
  std::uint64_t overflow_ = 0;
};

}  // namespace byzcast
