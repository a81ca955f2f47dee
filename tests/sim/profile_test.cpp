#include "sim/profile.hpp"

#include <gtest/gtest.h>

namespace byzcast::sim {
namespace {

TEST(Profile, LanPresetSanity) {
  const Profile p = Profile::lan();
  // RTT 0.1 ms as in the paper's cluster.
  EXPECT_EQ(2 * p.net_one_way, 100 * kMicrosecond);
  EXPECT_GT(p.batch_max, 1u);
  EXPECT_GT(p.leader_timeout, 100 * kMillisecond);
  EXPECT_FALSE(p.fast_macs);
}

TEST(Profile, WanPresetWidensTimeouts) {
  const Profile lan = Profile::lan();
  const Profile wan = Profile::wan();
  EXPECT_GT(wan.leader_timeout, lan.leader_timeout);
  // Hop latency comes from the region matrix in the WAN.
  EXPECT_EQ(wan.net_one_way, 0);
  EXPECT_GT(wan.net_jitter_mean, lan.net_jitter_mean);
}

TEST(Profile, AssemblyWindowIsSimulatedOnly) {
  // The simulated presets wait 1.6 ms to assemble a batch; the wall-clock
  // backends (runtime, net, perfbench) propose as soon as a request is
  // pending.
  EXPECT_EQ(Profile::lan().batch_timeout, 1600 * kMicrosecond);
  EXPECT_EQ(Profile::wan().batch_timeout, 1600 * kMicrosecond);
  EXPECT_EQ(Profile::wallclock().batch_timeout, 0);
}

TEST(Profile, CostOrderingMakesSense) {
  const Profile p = Profile::lan();
  // Fixed per-instance costs (the assembly window, PROPOSE validation)
  // dominate per-message marginals: that is what makes batching pay off.
  EXPECT_GT(p.batch_timeout, 10 * p.cpu_propose_per_msg);
  EXPECT_GT(p.cpu_validate_fixed, 10 * p.cpu_validate_per_msg);
  // Duplicate relay copies are cheaper than executions.
  EXPECT_LT(p.cpu_duplicate_copy, p.cpu_execute_per_msg);
}

}  // namespace
}  // namespace byzcast::sim
