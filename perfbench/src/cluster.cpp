// The system under test: a runtime ParallelSystem (threads + in-process
// mailboxes) authenticating with real HMAC-SHA256, read only through public
// accessors.
#include <chrono>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace core = byzcast::core;
using byzcast::ProcessId;

Time now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Spans kept per traced system: room for a traced run's actor-span window
/// (one mailbox and one service span per wire message) plus its sampled
/// per-message spans. A full log drops spans; the run then fails its check.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 21;

/// Relay requests sent, summed over the replicas publishing into `m` (only
/// traced systems attach a registry; otherwise it stays empty).
double relayed(const byzcast::MetricsRegistry& m) {
  double sum = 0;
  for (const auto& [name, ctr] : m.counters()) {
    if (name.rfind("node.relayed.", 0) == 0) {
      sum += static_cast<double>(ctr.value());
    }
  }
  return sum;
}

}  // namespace

Cluster::Cluster(const Workload& w, std::uint64_t seed, Threads threads,
                 bool traced) {
  byzcast::runtime::ParallelOptions opts;
  opts.runtime.seed = seed;
  opts.runtime.workers = threads.workers;
  opts.runtime.profile = byzcast::sim::Profile::wallclock();
  opts.runtime.profile.fast_macs = false;  // real HMAC-SHA256
  opts.runtime.profile.verify_workers =
      static_cast<std::uint32_t>(threads.verifiers);
  if (traced) {
    spans_ = std::make_unique<byzcast::SpanLog>(kSpanCapacity);
    opts.obs.spans = spans_.get();
    opts.obs.metrics = &metrics_;
  }
  std::vector<GroupId> targets;
  for (int g = 0; g < 4; ++g) targets.push_back(GroupId{g});
  sys_ = std::make_unique<byzcast::runtime::ParallelSystem>(
      core::OverlayTree::two_level(targets, GroupId{100}), /*f=*/1, opts);
  for (int c = 0; c < w.clients; ++c) {
    clients_.push_back(&sys_->add_client("client" + std::to_string(c)));
    if (traced) clients_.back()->set_trace_sample_every(w.trace_sample_every);
  }
}

std::map<GroupId, std::vector<ProcessId>> Cluster::correct_replicas() const {
  std::map<GroupId, std::vector<ProcessId>> out;
  for (const GroupId g : tree().all_groups()) {
    auto& grp = sys_->system().group(g);
    for (const int i : grp.correct_indices()) {
      out[g].push_back(grp.replica(i).id());
    }
  }
  return out;
}

std::map<std::string, double> Cluster::counters() const {
  std::map<std::string, double> out;
  for (const GroupId g : tree().all_groups()) {
    auto& grp = sys_->system().group(g);
    for (int i = 0; i < grp.n(); ++i) {
      const auto& r = grp.replica(i);
      const auto& c = r.counters();
      out["bft.views_installed"] += static_cast<double>(c.views_installed);
      out["bft.state_transfers"] += static_cast<double>(c.state_transfers);
      out["bft.rejected_requests"] += static_cast<double>(c.rejected_requests);
      out["bft.stale_window_drops"] +=
          static_cast<double>(c.stale_window_drops);
      out["common.mac_memo_hits"] += static_cast<double>(r.mac_memo_hits());
    }
    // Ordering counters, read at the group's first correct replica.
    const auto idx = grp.correct_indices();
    if (!idx.empty()) {
      const auto& r = grp.replica(idx.front());
      out["bft.executed"] += static_cast<double>(r.executed_requests());
      out["bft.decided"] += static_cast<double>(r.decided_instances());
    }
  }
  for (const core::Client* c : clients_) {
    out["common.mac_memo_hits"] += static_cast<double>(c->mac_memo_hits());
  }
  out["core.relays"] = relayed(metrics_);
  auto& net = sys_->env().network();
  out["runtime.wire_msgs"] = static_cast<double>(net.sent());
  out["runtime.wire_bytes"] = static_cast<double>(net.bytes());
  out["runtime.dropped"] = static_cast<double>(net.dropped());
  return out;
}

}  // namespace perfbench
