#include "sim/simulation.hpp"

namespace byzcast::sim {

Simulation::Simulation(std::uint64_t seed, const Profile& profile)
    : Simulation(seed, profile, std::make_unique<LanLatency>(profile)) {}

Simulation::Simulation(std::uint64_t seed, const Profile& profile,
                       std::unique_ptr<LatencyModel> latency)
    : profile_(profile),
      master_rng_(seed),
      latency_(std::move(latency)),
      keys_(std::make_shared<KeyStore>(
          seed ^ 0xb7e151628aed2a6aULL,
          profile.fast_macs ? MacMode::kFast : MacMode::kHmac)) {
  network_ = std::make_unique<Network>(scheduler_, *latency_,
                                       master_rng_.fork());
}

}  // namespace byzcast::sim
