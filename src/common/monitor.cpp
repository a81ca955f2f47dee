#include "common/monitor.hpp"

#include <algorithm>

#include "common/metrics.hpp"

namespace byzcast {

void MonitorHub::on_a_deliver(GroupId group, ProcessId replica,
                              const MessageId& msg, GroupId entry, Time when) {
  const std::lock_guard<std::mutex> lock(mu_);

  // fifo: one client's messages through one entry group reach every replica
  // in send order; MessageId::seq is assigned in send order.
  const StreamKey key{replica, msg.origin, entry};
  const auto [fit, fresh] = fifo_last_.try_emplace(key, msg.seq);
  if (!fresh) {
    if (msg.seq <= fit->second) {
      report(Violation{"fifo", group, replica, msg, when,
                       "seq " + std::to_string(msg.seq) +
                           " a-delivered after seq " +
                           std::to_string(fit->second) + " of the same " +
                           to_string(msg.origin) + " stream via " +
                           to_string(entry)});
    } else {
      fit->second = msg.seq;
    }
  }

  // group_agreement: the k-th a-delivery of every replica of a group must be
  // the same message (replicas of a group share one total order).
  auto& agreed = group_seq_[group];
  auto& pos = replica_pos_[replica];
  if (pos < agreed.size()) {
    if (!(agreed[pos] == msg)) {
      report(Violation{"group_agreement", group, replica, msg, when,
                       "position " + std::to_string(pos) + " delivered " +
                           to_string(msg) + " but a peer delivered " +
                           to_string(agreed[pos])});
    }
  } else {
    agreed.push_back(msg);
  }
  ++pos;

  // acyclic_order: consecutive deliveries at each replica are precedence
  // edges; the union across replicas must stay a DAG.
  const auto lit = last_delivered_.find(replica);
  const MessageId prev = lit == last_delivered_.end() ? MessageId{} : lit->second;
  last_delivered_[replica] = msg;
  if (prev.origin.valid() && !(prev == msg)) {
    const std::uint32_t u = dag_node(prev);
    const std::uint32_t v = dag_node(msg);
    if (!dag_add_edge(u, v)) {
      report(Violation{"acyclic_order", group, replica, msg, when,
                       "a-delivering " + to_string(msg) + " after " +
                           to_string(prev) +
                           " closes a cycle in the global delivery order"});
    }
  }
}

void MonitorHub::on_pending_copies(GroupId group, ProcessId replica,
                                   std::size_t pending, Time when) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (pending_bound_ == 0 || pending <= pending_bound_) return;
  report(Violation{"bounded_pending", group, replica, MessageId{}, when,
                   std::to_string(pending) +
                       " messages below the f+1 copy threshold (bound " +
                       std::to_string(pending_bound_) + ")"});
}

std::uint32_t MonitorHub::dag_node(const MessageId& msg) {
  const auto [it, fresh] =
      dag_index_.try_emplace(msg, static_cast<std::uint32_t>(dag_.size()));
  if (fresh) {
    dag_.emplace_back();
    dag_.back().ord = next_ord_++;
  }
  return it->second;
}

bool MonitorHub::dag_add_edge(std::uint32_t u, std::uint32_t v) {
  auto& out = dag_[u].out;
  if (std::find(out.begin(), out.end(), v) != out.end()) return true;

  // Pearce–Kelly online topological ordering: only edges that go backward in
  // the current order (ord[v] < ord[u]) disturb anything; repair by
  // reordering the affected region [ord[v], ord[u]].
  const std::uint64_t lo = dag_[v].ord;
  const std::uint64_t hi = dag_[u].ord;
  if (lo > hi) {
    out.push_back(v);
    dag_[v].in.push_back(u);
    return true;
  }

  // Forward reachability from v within the region; meeting u means the new
  // edge closes a cycle (reject it, leaving the DAG intact).
  std::vector<std::uint32_t> fwd, stack{v};
  std::unordered_map<std::uint32_t, bool> seen;
  seen[v] = true;
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (n == u) return false;
    fwd.push_back(n);
    for (const std::uint32_t w : dag_[n].out) {
      if (dag_[w].ord <= hi && !seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  // Backward reachability from u within the region.
  std::vector<std::uint32_t> bwd;
  stack.push_back(u);
  seen[u] = true;
  bwd.push_back(u);
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    for (const std::uint32_t w : dag_[n].in) {
      if (dag_[w].ord >= lo && !seen[w]) {
        seen[w] = true;
        stack.push_back(w);
        bwd.push_back(w);
      }
    }
  }
  // Reassign the region's ord values: everything that reaches u first (in
  // old relative order), then everything reachable from v.
  const auto by_ord = [this](std::uint32_t a, std::uint32_t b) {
    return dag_[a].ord < dag_[b].ord;
  };
  std::sort(bwd.begin(), bwd.end(), by_ord);
  std::sort(fwd.begin(), fwd.end(), by_ord);
  std::vector<std::uint64_t> ords;
  ords.reserve(bwd.size() + fwd.size());
  for (const std::uint32_t n : bwd) ords.push_back(dag_[n].ord);
  for (const std::uint32_t n : fwd) ords.push_back(dag_[n].ord);
  std::sort(ords.begin(), ords.end());
  std::size_t i = 0;
  for (const std::uint32_t n : bwd) dag_[n].ord = ords[i++];
  for (const std::uint32_t n : fwd) dag_[n].ord = ords[i++];

  out.push_back(v);
  dag_[v].in.push_back(u);
  return true;
}

void MonitorHub::report(Violation v) {
  ++counts_[v.monitor];
  if (metrics_ != nullptr) {
    metrics_->counter("monitor.violations." + v.monitor).inc();
  }
  if (detailed_.size() < kMaxDetailedViolations) detailed_.push_back(std::move(v));
}

std::uint64_t MonitorHub::total_violations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, n] : counts_) total += n;
  return total;
}

std::uint64_t MonitorHub::violations(const std::string& monitor) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counts_.find(monitor);
  return it == counts_.end() ? 0 : it->second;
}

std::vector<Violation> MonitorHub::detailed_violations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {detailed_.begin(), detailed_.end()};
}

Json MonitorHub::summary() const {
  Json j = Json::object();
  j.set("violations_total", Json::number(total_violations()));
  for (const char* name :
       {"fifo", "group_agreement", "acyclic_order", "bounded_pending"}) {
    j.set(name, Json::number(violations(name)));
  }
  return j;
}

}  // namespace byzcast
