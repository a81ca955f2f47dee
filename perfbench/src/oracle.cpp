#include <unordered_set>

#include "bench.hpp"
#include "common/monitor.hpp"

namespace perfbench {

namespace core = byzcast::core;
using byzcast::MessageId;
using byzcast::ProcessId;

OracleResult run_oracle(
    const std::vector<core::DeliveryRecord>& deliveries,
    const std::vector<core::SentMessage>& sent,
    const std::map<GroupId, std::vector<ProcessId>>& correct,
    const core::OverlayTree& tree) {
  OracleResult out;
  core::DeliveryLog log;
  for (const auto& r : deliveries) {
    log.record(r.group, r.replica, r.msg, r.when);
  }

  core::PropertyInput in;
  in.log = &log;
  in.sent = sent;
  in.correct_replicas = correct;
  const auto check = [&out](const char* name, const core::PropertyResult& r) {
    ++out.checks;
    if (!r.ok) {
      ++out.failed_checks;
      out.failures.push_back(std::string(name) + ": " + r.error);
    }
  };
  check("integrity", core::check_integrity(in));
  check("prefix_order", core::check_prefix_order(in));
  check("acyclic_order", core::check_acyclic_order(in));

  // The streaming monitors, replayed over the log in recording order.
  std::map<MessageId, const std::vector<GroupId>*> dst_of;
  for (const auto& s : sent) dst_of[s.id] = &s.dst;
  byzcast::MonitorHub hub;
  for (const auto& r : deliveries) {
    const auto it = dst_of.find(r.msg);
    const GroupId entry = it == dst_of.end() ? r.group : tree.lca(*it->second);
    hub.on_a_deliver(r.group, r.replica, r.msg, entry, r.when);
  }
  for (const char* m : {"fifo", "group_agreement", "acyclic_order"}) {
    ++out.checks;
    const std::uint64_t v = hub.violations(m);
    if (v > 0) {
      ++out.failed_checks;
      out.failures.push_back(std::string("monitor ") + m + ": " +
                             std::to_string(v) + " violations");
    }
  }
  out.monitor_violations = hub.total_violations();

  // Validity and agreement as a count: every correct replica of every
  // destination group must a-deliver every issued multicast.
  std::map<ProcessId, std::unordered_set<MessageId>> got;
  for (const auto& r : deliveries) got[r.replica].insert(r.msg);
  for (const auto& s : sent) {
    for (const GroupId g : s.dst) {
      const auto it = correct.find(g);
      if (it == correct.end()) continue;
      for (const ProcessId p : it->second) {
        ++out.expected_deliveries;
        if (!got[p].contains(s.id)) {
          if (out.missing_deliveries == 0) {
            out.failures.push_back("missing: " + to_string(p) +
                                   " never a-delivered " + to_string(s.id));
          }
          ++out.missing_deliveries;
        }
      }
    }
  }
  return out;
}

bool oracle_self_test(std::string* why) {
  // One group of four replicas that all a-deliver the same six multicasts
  // of two clients in the same order.
  const core::OverlayTree tree = core::OverlayTree::single(GroupId{0});
  std::map<GroupId, std::vector<ProcessId>> correct;
  for (int r = 0; r < 4; ++r) correct[GroupId{0}].push_back(ProcessId{r});
  std::vector<core::SentMessage> sent;
  for (int k = 0; k < 6; ++k) {
    sent.push_back(core::SentMessage{
        MessageId{ProcessId{10 + k % 2}, static_cast<std::uint64_t>(k / 2)},
        {GroupId{0}}});
  }
  std::vector<core::DeliveryRecord> log;
  Time when = 0;
  for (const auto& s : sent) {
    for (const ProcessId p : correct[GroupId{0}]) {
      log.push_back(core::DeliveryRecord{GroupId{0}, p, s.id, ++when});
    }
  }
  const OracleResult clean = run_oracle(log, sent, correct, tree);
  if (clean.failed_checks != 0 || clean.missing_deliveries != 0 ||
      clean.expected_deliveries != 24) {
    *why = "clean log flagged: " +
           (clean.failures.empty() ? std::string("wrong counts")
                                   : clean.failures.front());
    return false;
  }
  // Drop replica 2's a-delivery of the third multicast.
  std::vector<core::DeliveryRecord> cut;
  for (const auto& r : log) {
    if (!(r.replica == ProcessId{2} && r.msg == sent[2].id)) cut.push_back(r);
  }
  const OracleResult flagged = run_oracle(cut, sent, correct, tree);
  if (flagged.missing_deliveries != 1) {
    *why = "a removed a-delivery was not counted as missing";
    return false;
  }
  return true;
}

}  // namespace perfbench
