#include "workload/generator.hpp"

#include "common/contracts.hpp"

namespace byzcast::workload {

const char* to_string(Pattern p) {
  for (const auto& [name, pattern] : kPatternNames) {
    if (pattern == p) return name;
  }
  return "?";
}

DestinationGenerator::DestinationGenerator(GeneratorConfig config,
                                           std::vector<GroupId> targets,
                                           std::size_t home)
    : config_(config), targets_(std::move(targets)), home_(home) {
  BZC_EXPECTS(!targets_.empty());
  BZC_EXPECTS(home_ < targets_.size());
  if (config_.pattern == Pattern::kGlobalUniformPairs ||
      config_.pattern == Pattern::kGlobalSkewedPairs) {
    BZC_EXPECTS(targets_.size() >= 2);
  }
  if (config_.pattern == Pattern::kGlobalSkewedPairs) {
    BZC_EXPECTS(targets_.size() >= 4);
  }
  if (config_.pattern == Pattern::kGlobalFanout ||
      config_.pattern == Pattern::kZipf) {
    BZC_EXPECTS(config_.global_fanout >= 1);
    BZC_EXPECTS(static_cast<std::size_t>(config_.global_fanout) <=
                targets_.size());
  }
  if (config_.pattern == Pattern::kZipf) {
    BZC_EXPECTS(config_.zipf_s >= 0.0);
    zipf_.emplace(targets_.size(), config_.zipf_s);
  }
}

std::vector<GroupId> DestinationGenerator::uniform_pair(Rng& rng) const {
  const auto n = targets_.size();
  const auto i = static_cast<std::size_t>(rng.next_below(n));
  auto j = static_cast<std::size_t>(rng.next_below(n - 1));
  if (j >= i) ++j;
  return {targets_[i], targets_[j]};
}

std::vector<GroupId> DestinationGenerator::fanout_uniform(Rng& rng) const {
  // Shuffle-select `fanout` distinct indices.
  std::vector<GroupId> pool = targets_;
  std::vector<GroupId> out;
  const auto fanout = static_cast<std::size_t>(config_.global_fanout);
  for (std::size_t i = 0; i < fanout; ++i) {
    const auto j =
        i + static_cast<std::size_t>(rng.next_below(pool.size() - i));
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

std::vector<GroupId> DestinationGenerator::zipf_single(Rng& rng) const {
  return {targets_[zipf_->next(rng)]};
}

std::vector<GroupId> DestinationGenerator::zipf_fanout(Rng& rng) const {
  // Draw from the Zipf marginal until `fanout` distinct groups accumulate.
  // Terminates because fanout <= |targets|; under heavy skew the expected
  // redraws stay small (the hot groups land on the first few draws, the
  // tail is near-uniform over the rest).
  const auto fanout = static_cast<std::size_t>(config_.global_fanout);
  if (fanout == 1) return zipf_single(rng);
  std::vector<GroupId> out;
  out.reserve(fanout);
  while (out.size() < fanout) {
    const GroupId g = targets_[zipf_->next(rng)];
    bool dup = false;
    for (const GroupId have : out) dup = dup || have == g;
    if (!dup) out.push_back(g);
  }
  return out;
}

std::vector<GroupId> DestinationGenerator::next_local(Rng& rng) {
  if (config_.pattern == Pattern::kZipf) return zipf_single(rng);
  return {targets_[home_]};
}

std::vector<GroupId> DestinationGenerator::next_global(Rng& rng) {
  switch (config_.pattern) {
    case Pattern::kGlobalSkewedPairs:
      return rng.next_bool(0.5)
                 ? std::vector<GroupId>{targets_[0], targets_[1]}
                 : std::vector<GroupId>{targets_[2], targets_[3]};
    case Pattern::kGlobalFanout:
      return fanout_uniform(rng);
    case Pattern::kZipf:
      return zipf_fanout(rng);
    case Pattern::kLocalOnly:
      // A forced-global draw under a local-only pattern degrades to a
      // uniform pair when possible (only reachable from misconfigured
      // per-class pacing; keep it total rather than assert).
      if (targets_.size() < 2) return {targets_[home_]};
      return uniform_pair(rng);
    case Pattern::kGlobalUniformPairs:
    case Pattern::kMixed:
      return uniform_pair(rng);
  }
  BZC_ASSERT(false);
  return {};
}

std::vector<GroupId> DestinationGenerator::next(Rng& rng) {
  switch (config_.pattern) {
    case Pattern::kLocalOnly:
      return {targets_[home_]};
    case Pattern::kGlobalUniformPairs:
      return uniform_pair(rng);
    case Pattern::kGlobalSkewedPairs:
    case Pattern::kGlobalFanout:
      return next_global(rng);
    case Pattern::kMixed:
    case Pattern::kZipf: {
      const auto total =
          static_cast<double>(config_.mixed_local + config_.mixed_global);
      const bool local =
          rng.next_bool(static_cast<double>(config_.mixed_local) / total);
      return local ? next_local(rng) : next_global(rng);
    }
  }
  BZC_ASSERT(false);
  return {};
}

}  // namespace byzcast::workload
