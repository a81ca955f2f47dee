#include "common/metrics.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"

namespace byzcast {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  BZC_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  // Doubles have no atomic fetch_add guaranteed lock-free everywhere; CAS the
  // bit pattern instead (the loop retries only under a concurrent update).
  std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      expected, std::bit_cast<std::uint64_t>(std::bit_cast<double>(expected) + v),
      std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(counts_.size());
  for (const auto& c : counts_) out.push_back(c.load(std::memory_order_relaxed));
  return out;
}

std::uint64_t Histogram::count() const {
  return total_.load(std::memory_order_relaxed);
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(name, std::move(bounds)).first->second;
}

Json MetricsRegistry::to_json() const {
  Json counters = Json::object();
  for (const auto& [name, c] : counters_) {
    counters.set(name, Json::number(c.value()));
  }
  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) {
    gauges.set(name, Json::number(g.value()));
  }
  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) {
    Json bounds = Json::array();
    for (const double b : h.bounds()) bounds.push_back(Json::number(b));
    Json counts = Json::array();
    for (const std::uint64_t n : h.counts()) counts.push_back(Json::number(n));
    Json hj = Json::object();
    hj.set("bounds", std::move(bounds));
    hj.set("counts", std::move(counts));
    hj.set("count", Json::number(h.count()));
    hj.set("sum", Json::number(h.sum()));
    histograms.set(name, std::move(hj));
  }
  Json j = Json::object();
  j.set("counters", std::move(counters));
  j.set("gauges", std::move(gauges));
  j.set("histograms", std::move(histograms));
  return j;
}

}  // namespace byzcast
