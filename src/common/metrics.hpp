// MetricsRegistry: named counters, gauges and fixed-bucket histograms that
// every layer (sim actors, bft replicas, core nodes, the workload harness)
// can publish into. Designed for the hot path: callers
// resolve a metric once by name (map lookup + string build) and then hold a
// pointer, so recording is an increment / push_back with no hashing.
//
// Concurrency: recording is safe from multiple threads (the wall-clock
// runtime backend records from every worker). Counters and gauges are
// relaxed atomics; histogram recording and metric resolution take a small
// mutex. Readers (value(), counts(), to_json(), ...) are meant
// for after the recording threads have quiesced — they see a consistent
// snapshot then; mid-run reads are safe but may interleave with writers.
// The single-threaded simulator pays one uncontended atomic/lock per record.
//
// Export is deterministic (std::map iteration order) so two runs with the
// same seed produce byte-identical sidecars.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"

namespace byzcast {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (e.g. an instantaneous queue depth).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket counts the rest. Recording is a binary search
/// over the (small, sorted, immutable) bound list — no allocation, no
/// re-sorting, and no lock: buckets and the total are relaxed atomics and
/// the running sum is a CAS loop over the double's bit pattern, so observe()
/// never serializes the runtime backend's per-delivery hot path. Readers see
/// each field individually consistent; cross-field consistency (count vs
/// sum) holds once recording has quiesced, like every other recorder here.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Snapshot of the bucket counts: bounds().size() + 1 entries; the last is
  /// the overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;

 private:
  const std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // bit pattern of the double sum
};

/// Naming convention: "<subsystem>.<metric>.<label>", labels embedded in the
/// name (e.g. "node.a_deliver.g0", "actor.cpu_busy.g1.r2"). See the
/// Observability section of docs/ARCHITECTURE.md for the full catalogue.
class MetricsRegistry {
 public:
  /// Each accessor creates the metric on first use and returns a stable
  /// reference (std::map nodes never move), so callers may cache pointers.
  /// Resolution is thread-safe; it is a cold path (callers cache).
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds);

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Whole registry as a JSON object: {"counters", "gauges", "histograms"},
  /// each keyed by metric name.
  [[nodiscard]] Json to_json() const;

 private:
  mutable std::mutex mu_;  // guards map insertion only
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace byzcast
