// Per-message tracing end to end: with every message sampled, the SpanLog
// of a 2-group global message multicast through the two-level tree must
// show exactly the Algorithm 1 path — ordered at the lca (the auxiliary
// group) at hop 0 and relayed into each destination child, then order-wait
// and a-delivery at both children at hop 1.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/metrics.hpp"
#include "common/span.hpp"
#include "support/byzcast_harness.hpp"

namespace byzcast::core {
namespace {

using ::byzcast::testing::ByzCastHarness;
using ::byzcast::testing::HarnessConfig;

/// The spans of `id` stamped at `group` (the client's end-to-end span has
/// no group and never matches).
std::vector<Span> spans_at(const SpanLog& log, const MessageId& id,
                           GroupId group) {
  std::vector<Span> out;
  for (const Span& s : log.of(id)) {
    if (s.group == group) out.push_back(s);
  }
  return out;
}

TEST(Trace, TwoGroupGlobalMessagePath) {
  MetricsRegistry metrics;
  SpanLog spans;
  HarnessConfig cfg;
  cfg.num_targets = 2;
  cfg.obs.metrics = &metrics;
  cfg.obs.spans = &spans;
  cfg.trace_sample_every = 1;
  ByzCastHarness h(cfg);
  h.run_tracked(1, 1, [](int, int, Rng&) {
    return std::vector<GroupId>{GroupId{0}, GroupId{1}};
  });
  ASSERT_EQ(h.completions, 1);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(spans.dropped(), 0u);
  const MessageId id = h.sent[0].id;

  // The lca orders the message at hop 0 and every replica relays it once
  // into each destination child; nothing is a-delivered there.
  const GroupId lca{testing::kAuxBase};
  const std::vector<Span> at_lca = spans_at(spans, id, lca);
  ASSERT_FALSE(at_lca.empty());
  std::map<ProcessId, std::multiset<std::int64_t>> relays;
  std::map<GroupId, Time> first_relay;
  for (const Span& s : at_lca) {
    EXPECT_NE(s.kind, SpanKind::kADeliver);
    if (s.kind != SpanKind::kRelay) {
      EXPECT_EQ(s.detail, 0) << to_string(s.kind);  // hop 0
      continue;
    }
    relays[s.where].insert(s.detail);
    const GroupId child{static_cast<std::int32_t>(s.detail)};
    const auto it = first_relay.find(child);
    if (it == first_relay.end() || s.begin < it->second) {
      first_relay[child] = s.begin;
    }
  }
  ASSERT_EQ(relays.size(), 4u);  // every lca replica relayed
  for (const auto& [replica, children] : relays) {
    EXPECT_EQ(children, (std::multiset<std::int64_t>{0, 1}))
        << to_string(replica);
  }

  // Each child's replicas wait for f+1 parent copies, then a-deliver, both
  // at hop 1 and no earlier than the lca's first relay into that child.
  for (const GroupId child : {GroupId{0}, GroupId{1}}) {
    std::map<ProcessId, Time> order_wait_end;
    std::map<ProcessId, Time> a_deliver;
    for (const Span& s : spans_at(spans, id, child)) {
      EXPECT_EQ(s.detail, 1) << to_string(s.kind) << " at "
                             << to_string(child);
      EXPECT_NE(s.kind, SpanKind::kRelay);
      if (s.kind == SpanKind::kOrderWait) {
        EXPECT_GE(s.begin, first_relay.at(child));
        order_wait_end[s.where] = s.end;
      } else if (s.kind == SpanKind::kADeliver) {
        EXPECT_GE(s.begin, first_relay.at(child));
        a_deliver[s.where] = s.begin;
      }
    }
    EXPECT_EQ(order_wait_end.size(), 4u) << to_string(child);
    ASSERT_EQ(a_deliver.size(), 4u) << to_string(child);
    for (const auto& [replica, when] : a_deliver) {
      ASSERT_TRUE(order_wait_end.contains(replica));
      EXPECT_LE(order_wait_end.at(replica), when);
    }
  }

  // The per-group counters published alongside the spans agree with them:
  // every replica of every group ordered the one message, and both target
  // groups a-delivered it (4 replicas each).
  EXPECT_EQ(metrics.counter("node.ordered.g100").value(), 4u);
  EXPECT_EQ(metrics.counter("node.ordered.g0").value(), 4u);
  EXPECT_EQ(metrics.counter("node.a_deliver.g0").value(), 4u);
  EXPECT_EQ(metrics.counter("node.a_deliver.g1").value(), 4u);
  EXPECT_EQ(metrics.counter("node.a_deliver.g100").value(), 0u);
}

TEST(Trace, LocalMessageNeverLeavesItsGroup) {
  SpanLog spans;
  HarnessConfig cfg;
  cfg.num_targets = 2;
  cfg.obs.spans = &spans;
  cfg.trace_sample_every = 1;
  ByzCastHarness h(cfg);
  h.run_tracked(1, 1, [](int, int, Rng&) {
    return std::vector<GroupId>{GroupId{0}};
  });
  ASSERT_EQ(h.completions, 1);

  // lca({g0}) = g0 itself: a single-group path, all at hop 0, no relay and
  // no wait for parent copies.
  std::size_t a_delivered = 0;
  for (const Span& s : spans.of(h.sent[0].id)) {
    if (s.kind == SpanKind::kEndToEnd) continue;  // the client's own span
    EXPECT_EQ(s.group, GroupId{0}) << to_string(s.kind);
    EXPECT_EQ(s.detail, 0) << to_string(s.kind);
    EXPECT_NE(s.kind, SpanKind::kRelay);
    EXPECT_NE(s.kind, SpanKind::kOrderWait);
    if (s.kind == SpanKind::kADeliver) ++a_delivered;
  }
  EXPECT_EQ(a_delivered, 4u);
}

}  // namespace
}  // namespace byzcast::core
