#include "core/critical_path.hpp"

#include <algorithm>

namespace byzcast::core {

namespace {

/// Boundary times of one replica's pipeline for one message, rebuilt from
/// its chain spans. -1: stage not observed.
struct ChainTimes {
  Time wire_sent = -1;
  Time wire_enqueued = -1;
  Time svc_start = -1;
  Time admitted = -1;
  Time proposed = -1;
  Time write_quorum = -1;
  Time decided = -1;
  Time execute_end = -1;
  Time a_deliver = -1;
};

Time percentile(std::vector<Time>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

PercentileStats stats_of(std::vector<Time> v) {
  PercentileStats s;
  s.n = v.size();
  std::sort(v.begin(), v.end());
  s.p50 = percentile(v, 0.50);
  s.p99 = percentile(v, 0.99);
  return s;
}

}  // namespace

CriticalPathAnalyzer::CriticalPathAnalyzer(const SpanLog& log, Options opts) {
  std::vector<MessageId> ids = log.traced_messages();
  std::sort(ids.begin(), ids.end());
  for (const MessageId& id : ids) analyze(id, log.of(id), opts);
}

void CriticalPathAnalyzer::analyze(const MessageId& id,
                                   const std::vector<Span>& spans,
                                   Options opts) {
  MessageBreakdown out;
  out.id = id;

  // Rebuild per-(group, replica) chains, the relay edges, and the client's
  // end-to-end interval.
  std::map<GroupId, std::map<ProcessId, ChainTimes>> chains;
  std::map<GroupId, GroupId> parent_of;  // child -> parent, from kRelay
  bool have_e2e = false;
  Time submit = 0, completion = 0;
  for (const Span& s : spans) {
    switch (s.kind) {
      case SpanKind::kEndToEnd:
        // One client owns the id; a duplicate stamp would be a harness bug.
        have_e2e = true;
        submit = s.begin;
        completion = s.end;
        out.dst_count = static_cast<std::size_t>(s.detail);
        break;
      case SpanKind::kRelay:
        parent_of.emplace(GroupId{static_cast<std::int32_t>(s.detail)},
                          s.group);
        break;
      default: {
        ChainTimes& c = chains[s.group][s.where];
        switch (s.kind) {
          case SpanKind::kNetTransit:
            c.wire_sent = s.begin;
            c.wire_enqueued = s.end;
            break;
          case SpanKind::kMailboxWait:
            c.wire_enqueued = s.begin;
            c.svc_start = s.end;
            break;
          case SpanKind::kCpuService:
            c.svc_start = s.begin;
            c.admitted = s.end;
            break;
          case SpanKind::kConsensusQueue:
            c.admitted = s.begin;
            c.proposed = s.end;
            break;
          case SpanKind::kWriteQuorum:
            c.proposed = s.begin;
            c.write_quorum = s.end;
            break;
          case SpanKind::kAcceptQuorum:
            c.write_quorum = s.begin;
            c.decided = s.end;
            break;
          case SpanKind::kExecute:
            c.decided = s.begin;
            c.execute_end = s.end;
            break;
          case SpanKind::kADeliver:
            c.a_deliver = s.begin;
            break;
          default:
            break;  // kOrderWait etc.: informational, not a chain boundary
        }
        break;
      }
    }
  }
  out.is_global = out.dst_count > 1;

  // Representative replica per group: the (f+1)-th earliest a-delivery
  // (falling back to execution end) — the copy that completes a client's
  // reply quorum. Ties break by replica id, so the choice is deterministic.
  struct Rep {
    ProcessId replica;
    Time ordered = -1;    // execute_end: when this replica genuinely ordered
    Time delivered = -1;  // a_deliver, if a destination
  };
  std::map<GroupId, Rep> rep;
  for (const auto& [g, by_replica] : chains) {
    std::vector<std::pair<Time, ProcessId>> ranked;
    for (const auto& [r, c] : by_replica) {
      const Time key = c.a_deliver >= 0 ? c.a_deliver : c.execute_end;
      if (key >= 0) ranked.emplace_back(key, r);
    }
    if (ranked.empty()) continue;
    std::sort(ranked.begin(), ranked.end());
    const std::size_t idx =
        std::min(static_cast<std::size_t>(opts.f), ranked.size() - 1);
    const ProcessId r = ranked[idx].second;
    const ChainTimes& c = by_replica.at(r);
    rep[g] = Rep{r, c.execute_end, c.a_deliver};
  }

  // Critical destination: the group whose representative a-delivery is
  // latest (its reply quorum completes the client's wait).
  GroupId critical;
  Time critical_time = -1;
  for (const auto& [g, r] : rep) {
    if (r.delivered > critical_time) {
      critical_time = r.delivered;
      critical = g;
    }
  }
  if (!have_e2e || !critical.valid()) {
    // Truncated trace (message lost, log capacity hit, or still in flight
    // at shutdown): report it, but without a decomposition.
    messages_.push_back(std::move(out));
    return;
  }
  out.complete = true;
  out.submitted = submit;
  out.end_to_end = completion - submit;
  out.critical_dst = critical;

  // Walk relay edges from the critical destination up to the entry group.
  std::vector<GroupId> path{critical};
  while (path.size() < 64) {  // cycle guard: Byzantine relays could lie
    const auto it = parent_of.find(path.back());
    if (it == parent_of.end()) break;
    if (std::find(path.begin(), path.end(), it->second) != path.end()) break;
    path.push_back(it->second);
  }
  std::reverse(path.begin(), path.end());  // entry group first

  // The clamped boundary chain. Each boundary closes an interval attributed
  // to one component; clamping keeps the chain monotone inside
  // [submit, completion] so the components telescope to end_to_end exactly.
  Time cursor = submit;
  const auto account = [&](Time boundary, Time Components::*component,
                           Components& hop) {
    if (boundary < 0) return;  // unobserved: merge into the next interval
    const Time next = std::clamp(boundary, cursor, completion);
    hop.*component += next - cursor;
    out.totals.*component += next - cursor;
    cursor = next;
  };

  GroupId prev_group;
  Time prev_ordered = -1;
  for (const GroupId g : path) {
    const auto rit = rep.find(g);
    if (rit == rep.end()) continue;  // no chain at this hop survived
    const ChainTimes& c = chains.at(g).at(rit->second.replica);
    out.hops.push_back(HopBreakdown{g, rit->second.replica, {}});
    Components& hop = out.hops.back().components;
    account(c.wire_sent, &Components::cpu, hop);       // sender processing
    account(c.wire_enqueued, &Components::network, hop);
    account(c.svc_start, &Components::queueing, hop);  // mailbox wait
    account(c.admitted, &Components::cpu, hop);        // service/admission
    account(c.proposed, &Components::queueing, hop);   // batching wait
    account(c.write_quorum, &Components::quorum_wait, hop);
    account(c.decided, &Components::quorum_wait, hop);
    account(c.execute_end, &Components::cpu, hop);
    if (prev_ordered >= 0 && c.execute_end >= 0) {
      edge_samples_[{prev_group, g}].push_back(
          std::max<Time>(0, c.execute_end - prev_ordered));
    }
    if (c.execute_end >= 0) {
      prev_group = g;
      prev_ordered = c.execute_end;
    }
  }
  // Whatever remains is the reply path: transit of the replies plus the
  // client's f+1-matching wait across all destination groups.
  if (!out.hops.empty()) {
    account(completion, &Components::quorum_wait, out.hops.back().components);
  } else {
    Components sink;
    account(completion, &Components::quorum_wait, sink);
  }

  messages_.push_back(std::move(out));
}

ClassAggregate CriticalPathAnalyzer::aggregate(bool global) const {
  ClassAggregate agg;
  std::vector<Time> e2e, queueing, cpu, network, quorum;
  for (const auto& m : messages_) {
    if (!m.complete || m.is_global != global) continue;
    e2e.push_back(m.end_to_end);
    queueing.push_back(m.totals.queueing);
    cpu.push_back(m.totals.cpu);
    network.push_back(m.totals.network);
    quorum.push_back(m.totals.quorum_wait);
  }
  agg.n = e2e.size();
  agg.end_to_end = stats_of(std::move(e2e));
  agg.queueing = stats_of(std::move(queueing));
  agg.cpu = stats_of(std::move(cpu));
  agg.network = stats_of(std::move(network));
  agg.quorum_wait = stats_of(std::move(quorum));
  return agg;
}

std::map<std::pair<GroupId, GroupId>, PercentileStats>
CriticalPathAnalyzer::edge_latency() const {
  std::map<std::pair<GroupId, GroupId>, PercentileStats> out;
  for (const auto& [edge, samples] : edge_samples_) {
    out.emplace(edge, stats_of(samples));
  }
  return out;
}

namespace {

Json components_json(const Components& c) {
  Json j = Json::object();
  j.set("queueing_ns", Json::number(c.queueing));
  j.set("cpu_ns", Json::number(c.cpu));
  j.set("network_ns", Json::number(c.network));
  j.set("quorum_wait_ns", Json::number(c.quorum_wait));
  return j;
}

Json percentiles_json(const PercentileStats& s) {
  Json j = Json::object();
  j.set("n", Json::number(s.n));
  j.set("p50_ns", Json::number(s.p50));
  j.set("p99_ns", Json::number(s.p99));
  return j;
}

Json aggregate_json(const ClassAggregate& a) {
  Json j = Json::object();
  j.set("n", Json::number(a.n));
  j.set("end_to_end", percentiles_json(a.end_to_end));
  j.set("queueing", percentiles_json(a.queueing));
  j.set("cpu", percentiles_json(a.cpu));
  j.set("network", percentiles_json(a.network));
  j.set("quorum_wait", percentiles_json(a.quorum_wait));
  return j;
}

}  // namespace

Json spans_sidecar_json(const CriticalPathAnalyzer& analyzer, int f,
                        std::uint64_t spans_recorded,
                        std::uint64_t spans_dropped, Json monitor) {
  Json doc = Json::object();
  doc.set("schema", Json::string("byzcast-spans-v1"));
  doc.set("f", Json::number(f));
  doc.set("spans_recorded", Json::number(spans_recorded));
  doc.set("spans_dropped", Json::number(spans_dropped));

  Json messages = Json::array();
  for (const MessageBreakdown& m : analyzer.messages()) {
    Json msg = Json::object();
    msg.set("id", Json::string(to_string(m.id)));
    msg.set("complete", Json::boolean(m.complete));
    msg.set("dst_count", Json::number(m.dst_count));
    msg.set("global", Json::boolean(m.is_global));
    msg.set("submitted_ns", Json::number(m.submitted));
    msg.set("end_to_end_ns", Json::number(m.end_to_end));
    if (m.complete) {
      msg.set("critical_dst", Json::number(m.critical_dst.value));
      msg.set("totals", components_json(m.totals));
      Json hops = Json::array();
      for (const HopBreakdown& h : m.hops) {
        Json hop = Json::object();
        hop.set("group", Json::number(h.group.value));
        hop.set("replica", Json::number(h.replica.value));
        hop.set("components", components_json(h.components));
        hops.push_back(std::move(hop));
      }
      msg.set("hops", std::move(hops));
    }
    messages.push_back(std::move(msg));
  }
  doc.set("messages", std::move(messages));

  Json aggregates = Json::object();
  aggregates.set("local", aggregate_json(analyzer.aggregate(/*global=*/false)));
  aggregates.set("global", aggregate_json(analyzer.aggregate(/*global=*/true)));
  doc.set("aggregates", std::move(aggregates));

  Json edges = Json::array();
  for (const auto& [edge, stats] : analyzer.edge_latency()) {
    Json e = Json::object();
    e.set("parent", Json::number(edge.first.value));
    e.set("child", Json::number(edge.second.value));
    e.set("stats", percentiles_json(stats));
    edges.push_back(std::move(e));
  }
  doc.set("edges", std::move(edges));
  doc.set("monitor", std::move(monitor));
  return doc;
}

}  // namespace byzcast::core
