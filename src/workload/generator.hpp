// Destination generators for the paper's microbenchmark workloads (§V):
// local-only, global uniform pairs, the Table II skewed pairs, the mixed
// 10:1 local:global workload of §V-G/§V-I, and the workload engine's
// Zipf-skewed destinations (hot groups attract most of the traffic).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "workload/zipf.hpp"

namespace byzcast::workload {

enum class Pattern {
  /// Single-group messages to the client's home group.
  kLocalOnly,
  /// Two-group messages, destination pair uniform over all pairs.
  kGlobalUniformPairs,
  /// Two-group messages to {g1,g2} or {g3,g4} only (Table II skewed).
  kGlobalSkewedPairs,
  /// local:global = `mixed_local` : `mixed_global` (paper uses 10:1);
  /// local goes to the home group, global to a uniform pair.
  kMixed,
  /// Global messages to `global_fanout` distinct uniformly chosen groups
  /// (the paper's "vary the number of message destinations", §V-B2).
  kGlobalFanout,
  /// Zipf-skewed destinations: local messages target a single group drawn
  /// Zipf(`zipf_s`) over all groups (group 0 hottest); global messages
  /// target `global_fanout` distinct groups, each drawn from the same Zipf
  /// marginal — so hot groups co-occur in destination sets, concentrating
  /// load on the subtree that connects them. The local:global mix follows
  /// `mixed_local`:`mixed_global` (under per-class open-loop pacing the
  /// forced-class draws are used instead and the mix comes from the rates).
  kZipf,
};

/// Each pattern's name in spec files and artifacts.
inline constexpr std::pair<const char*, Pattern> kPatternNames[] = {
    {"local", Pattern::kLocalOnly},
    {"uniform-pairs", Pattern::kGlobalUniformPairs},
    {"skewed-pairs", Pattern::kGlobalSkewedPairs},
    {"mixed", Pattern::kMixed},
    {"fanout", Pattern::kGlobalFanout},
    {"zipf", Pattern::kZipf},
};

[[nodiscard]] const char* to_string(Pattern p);

struct GeneratorConfig {
  Pattern pattern = Pattern::kLocalOnly;
  int mixed_local = 10;
  int mixed_global = 1;
  int global_fanout = 2;  // used by kGlobalFanout and kZipf
  /// Skew exponent for kZipf; 0 = uniform over groups.
  double zipf_s = 0.0;
};

/// Samples destination sets for one client.
class DestinationGenerator {
 public:
  /// `home` is the index into `targets` of the client's home group.
  DestinationGenerator(GeneratorConfig config, std::vector<GroupId> targets,
                       std::size_t home);

  [[nodiscard]] std::vector<GroupId> next(Rng& rng);

  /// Forced-class draws for per-class open-loop pacing: the RateController
  /// decides *when* a local or global message fires, these decide *where*
  /// it goes under the configured pattern.
  [[nodiscard]] std::vector<GroupId> next_local(Rng& rng);
  [[nodiscard]] std::vector<GroupId> next_global(Rng& rng);

 private:
  [[nodiscard]] std::vector<GroupId> uniform_pair(Rng& rng) const;
  [[nodiscard]] std::vector<GroupId> fanout_uniform(Rng& rng) const;
  [[nodiscard]] std::vector<GroupId> zipf_single(Rng& rng) const;
  [[nodiscard]] std::vector<GroupId> zipf_fanout(Rng& rng) const;

  GeneratorConfig config_;
  std::vector<GroupId> targets_;
  std::size_t home_;
  std::optional<ZipfSampler> zipf_;
};

}  // namespace byzcast::workload
