#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"

namespace byzcast {

void LatencyRecorder::record(Time when, Time latency) {
  BZC_EXPECTS(latency >= 0);
  if (max_samples_ > 0 && samples_.size() >= max_samples_) {
    ++overflow_;
    return;
  }
  samples_.push_back(Sample{when, latency});
  cache_valid_ = false;
}

const std::vector<Time>& LatencyRecorder::effective_sorted() const {
  if (!cache_valid_) {
    sorted_cache_.clear();
    sorted_cache_.reserve(samples_.size());
    for (const auto& s : samples_) {
      if (s.when >= warmup_cutoff_) sorted_cache_.push_back(s.latency);
    }
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    cache_valid_ = true;
  }
  return sorted_cache_;
}

std::size_t LatencyRecorder::count() const {
  return effective_sorted().size();
}

double LatencyRecorder::mean_ms() const {
  const auto& xs = effective_sorted();
  if (xs.empty()) return 0.0;
  const double sum = std::accumulate(xs.begin(), xs.end(), 0.0);
  return sum / static_cast<double>(xs.size()) / 1e6;
}

double LatencyRecorder::percentile_ms(double p) const {
  BZC_EXPECTS(p >= 0.0 && p <= 100.0);
  const auto& xs = effective_sorted();
  if (xs.empty()) return 0.0;
  // Nearest-rank with linear interpolation between adjacent samples.
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  const double v = static_cast<double>(xs[lo]) * (1.0 - frac) +
                   static_cast<double>(xs[hi]) * frac;
  return v / 1e6;
}

std::vector<std::pair<double, double>> LatencyRecorder::cdf(
    std::size_t max_points) const {
  const auto& xs = effective_sorted();
  std::vector<std::pair<double, double>> points;
  if (xs.empty()) return points;
  const std::size_t stride = std::max<std::size_t>(1, xs.size() / max_points);
  for (std::size_t i = 0; i < xs.size(); i += stride) {
    points.emplace_back(static_cast<double>(xs[i]) / 1e6,
                        static_cast<double>(i + 1) /
                            static_cast<double>(xs.size()));
  }
  if (points.back().second < 1.0) {
    points.emplace_back(static_cast<double>(xs.back()) / 1e6, 1.0);
  }
  return points;
}

void ThroughputMeter::record(Time when) {
  BZC_EXPECTS(events_.empty() || when >= events_.back());
  if (max_events_ > 0 && events_.size() >= max_events_) {
    ++overflow_;
    return;
  }
  events_.push_back(when);
}

std::size_t ThroughputMeter::count_in(Time from, Time to) const {
  const auto lo = std::lower_bound(events_.begin(), events_.end(), from);
  const auto hi = std::lower_bound(lo, events_.end(), to);
  return static_cast<std::size_t>(hi - lo);
}

double ThroughputMeter::rate_per_sec(Time from, Time to) const {
  BZC_EXPECTS(from < to);
  return static_cast<double>(count_in(from, to)) / to_sec(to - from);
}

}  // namespace byzcast
