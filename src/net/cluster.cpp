#include "net/cluster.hpp"

#include <cstdlib>
#include <unordered_set>
#include <utility>

#include "common/contracts.hpp"
#include "common/prom.hpp"
#include "common/sha256.hpp"
#include "net/collector.hpp"
#include "net/dump.hpp"

namespace byzcast::net {

ClusterNode::ClusterNode(ClusterConfig cfg, std::optional<NodeIdentity> self)
    : cfg_(std::move(cfg)), self_(self) {
  NetEnvOptions opts;
  opts.seed = cfg_.seed;
  opts.profile = cfg_.profile();
  opts.transport = cfg_.transport;
  env_ = std::make_unique<NetEnv>(opts);

  std::unordered_set<std::int32_t> local;
  if (self_) {
    self_pid_ = cfg_.pid_of(self_->group, self_->replica);
    local.insert(self_pid_.value);
  }
  env_->set_local_pids(std::move(local), cfg_.replica_count());

  monitors_.attach_metrics(&metrics_);
  Observability obs;
  obs.metrics = &metrics_;
  obs.monitors = &monitors_;
  obs.spans = &spans_;
  system_ = std::make_unique<core::ByzCastSystem>(*env_, cfg_.tree(),
                                                  cfg_.f, core::FaultPlan{},
                                                  core::Routing::kGenuine,
                                                  obs);

  // The whole scheme rests on positional pid assignment matching the
  // config's arithmetic; verify it outright rather than trusting it.
  for (const GroupSpec& g : cfg_.groups) {
    for (int i = 0; i < cfg_.replicas_per_group(); ++i) {
      BZC_ENSURES(system_->group(g.id).replica(i).id() ==
                  cfg_.pid_of(g.id, i));
    }
  }
}

ClusterNode::~ClusterNode() { stop(); }

bool ClusterNode::listen(std::string* error, bool ephemeral) {
  BZC_EXPECTS(self_.has_value());
  const Endpoint* ep = cfg_.endpoint_of(self_pid_);
  return env_->transport().listen(ep->host, ephemeral ? 0 : ep->port, error);
}

core::Client& ClusterNode::add_client(const std::string& name) {
  clients_.push_back(system_->make_client(name));
  return *clients_.back();
}

void ClusterNode::connect(const ClusterConfig& resolved) {
  Transport& tr = env_->transport();

  std::vector<ProcessId> hello;
  if (self_) hello.push_back(self_pid_);
  for (const auto& c : clients_) hello.push_back(c->id());
  tr.set_local_pids(std::move(hello));

  for (const GroupSpec& g : resolved.groups) {
    for (int i = 0; i < resolved.replicas_per_group(); ++i) {
      const ProcessId pid = resolved.pid_of(g.id, i);
      if (env_->is_local(pid)) continue;
      const Endpoint& ep = g.replicas[static_cast<std::size_t>(i)];
      tr.add_peer(ep.host, ep.port, {pid});
    }
  }
  if (resolved.wan) {
    const std::string region = self_
                                   ? resolved.group(self_->group)->region
                                   : resolved.client_region;
    tr.set_delay_fn([cfg = resolved, region](ProcessId to) {
      return cfg.link_delay(region, to);
    });
  }
  tr.connect_all();
}

std::string ClusterNode::node_name() const {
  if (!self_) return "client";
  return "g" + std::to_string(self_->group.value) + "_r" +
         std::to_string(self_->replica);
}

void ClusterNode::refresh_net_metrics() {
  const auto set = [this](const std::string& name, double v) {
    metrics_.gauge(name).set(v);
  };
  const Transport::Stats ts = env_->transport().stats();
  set("net.transport.messages_sent", static_cast<double>(ts.messages_sent));
  set("net.transport.messages_received",
      static_cast<double>(ts.messages_received));
  set("net.transport.bytes_sent", static_cast<double>(ts.bytes_sent));
  set("net.transport.bytes_received",
      static_cast<double>(ts.bytes_received));
  set("net.transport.dropped_no_route",
      static_cast<double>(ts.dropped_no_route));
  set("net.transport.dropped_queue_full",
      static_cast<double>(ts.dropped_queue_full));
  set("net.transport.dropped_decode", static_cast<double>(ts.dropped_decode));
  set("net.transport.connect_attempts",
      static_cast<double>(ts.connect_attempts));
  set("net.transport.reconnects", static_cast<double>(ts.reconnects));
  set("net.transport.inbound_accepted",
      static_cast<double>(ts.inbound_accepted));
  set("net.transport.inbound_resets", static_cast<double>(ts.inbound_resets));
  set("net.transport.send_queue_high_water",
      static_cast<double>(ts.send_queue_high_water));
  set("net.transport.clock_pings_sent",
      static_cast<double>(ts.clock_pings_sent));
  set("net.transport.clock_pongs_received",
      static_cast<double>(ts.clock_pongs_received));
  set("net.transport.all_peers_connected",
      env_->transport().all_peers_connected() ? 1.0 : 0.0);

  const NetEnv::Stats es = env_->stats();
  set("net.env.local_deliveries", static_cast<double>(es.local_deliveries));
  set("net.env.remote_sends", static_cast<double>(es.remote_sends));
  set("net.env.ghost_send_drops", static_cast<double>(es.ghost_send_drops));
  set("net.env.no_actor_drops", static_cast<double>(es.no_actor_drops));

  set("net.spans.recorded", static_cast<double>(spans_.spans().size()));
  set("net.spans.dropped", static_cast<double>(spans_.dropped()));

  // Per-link clock sync (the transport-level half of the cross-process
  // timeline): one gauge triple per live connection with >= 1 sample.
  for (const Transport::LinkClock& lc : env_->transport().link_clocks()) {
    if (!lc.pid.valid() || lc.samples == 0) continue;
    const std::string link =
        std::string(lc.outbound ? ".out.p" : ".in.p") +
        std::to_string(lc.pid.value);
    set("net.clock.offset_ns" + link, static_cast<double>(lc.offset));
    set("net.clock.min_rtt_ns" + link, static_cast<double>(lc.min_rtt));
    set("net.clock.samples" + link, static_cast<double>(lc.samples));
  }

  // Configured WAN one-way delays from this process towards each group.
  if (cfg_.wan) {
    const std::string region =
        self_ ? cfg_.group(self_->group)->region : cfg_.client_region;
    for (const GroupSpec& g : cfg_.groups) {
      set("net.wan.link_delay_ns.g" + std::to_string(g.id.value),
          static_cast<double>(cfg_.link_delay(region, cfg_.pid_of(g.id, 0))));
    }
  }
}

Json ClusterNode::healthz_json() {
  Json h = Json::object();
  h.set("schema", Json::string("byzcast-healthz-v1"));
  h.set("node", Json::string(node_name()));
  h.set("now_ns", Json::number(env_->now()));
  h.set("is_replica", Json::boolean(self_.has_value()));
  // Hashing speed differs by the kernel (several-fold on 4 KiB payloads), so
  // a host-to-host throughput gap can be read off here.
  h.set("sha256_kernel", Json::string(Sha256::kernel_name()));
  if (self_) {
    const bft::Replica& r =
        system_->group(self_->group).replica(self_->replica);
    h.set("view", Json::number(r.view()));
    h.set("decided_instances", Json::number(r.decided_instances()));
    h.set("open_instances", Json::number(r.open_instances()));
    h.set("executed_requests", Json::number(r.executed_requests()));
    h.set("max_decided_batch", Json::number(r.max_decided_batch()));
  }
  const auto& records = system_->delivery_log().records();
  h.set("deliveries", Json::number(records.size()));
  h.set("last_delivery_ns",
        Json::number(records.empty() ? -1 : records.back().when));
  std::uint64_t completed = 0;
  for (const auto& c : clients_) completed += c->completed();
  h.set("client_completed", Json::number(completed));
  h.set("spans_recorded", Json::number(spans_.spans().size()));
  h.set("spans_dropped", Json::number(spans_.dropped()));

  h.set("monitor", monitors_.summary());

  const Transport::Stats ts = env_->transport().stats();
  Json tr = Json::object();
  tr.set("messages_sent", Json::number(ts.messages_sent));
  tr.set("messages_received", Json::number(ts.messages_received));
  tr.set("dropped_no_route", Json::number(ts.dropped_no_route));
  tr.set("dropped_queue_full", Json::number(ts.dropped_queue_full));
  tr.set("reconnects", Json::number(ts.reconnects));
  tr.set("all_peers_connected",
         Json::boolean(env_->transport().all_peers_connected()));
  h.set("transport", std::move(tr));
  return h;
}

bool ClusterNode::start_introspect(std::uint16_t port, std::string* error) {
  introspect_ = std::make_unique<IntrospectServer>(env_->loop());
  IntrospectServer& srv = *introspect_;
  srv.handle("/metrics", [this](const std::string&) {
    refresh_net_metrics();
    IntrospectServer::Response r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = prometheus_text(metrics_, {{"node", node_name()}});
    return r;
  });
  srv.handle("/healthz", [this](const std::string&) {
    IntrospectServer::Response r;
    r.content_type = "application/json";
    r.body = healthz_json().dump();
    return r;
  });
  srv.handle("/spans", [this](const std::string& query) {
    std::size_t from = 0;
    const auto q = parse_query(query);
    if (const auto it = q.find("from"); it != q.end()) {
      from = static_cast<std::size_t>(
          std::strtoull(it->second.c_str(), nullptr, 10));
    }
    IntrospectServer::Response r;
    r.content_type = "application/json";
    r.body = raw_spans_json(spans_, node_name(), env_->now(), from).dump();
    return r;
  });
  srv.handle("/dump", [this](const std::string&) {
    DeliveryDump dump;
    dump.node = node_name();
    dump.monitor_violations = monitors_.total_violations();
    dump.records = system_->delivery_log().records();
    IntrospectServer::Response r;
    r.content_type = "application/json";
    r.body = delivery_dump_to_json(dump).dump();
    return r;
  });
  srv.handle("/clock", [this](const std::string& query) {
    const auto q = parse_query(query);
    std::int64_t t0 = -1;
    if (const auto it = q.find("t0"); it != q.end()) {
      t0 = std::strtoll(it->second.c_str(), nullptr, 10);
    }
    Json j = Json::object();
    j.set("node", Json::string(node_name()));
    j.set("t0", Json::number(t0));
    j.set("now_ns", Json::number(env_->now()));
    IntrospectServer::Response r;
    r.content_type = "application/json";
    r.body = j.dump();
    return r;
  });
  const Endpoint* ep = self_ ? cfg_.endpoint_of(self_pid_) : nullptr;
  if (!srv.listen(ep ? ep->host : "localhost", port, error)) {
    introspect_.reset();
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------

InProcessCluster::InProcessCluster(ClusterConfig cfg)
    : resolved_(std::move(cfg)) {
  for (GroupSpec& g : resolved_.groups) {
    for (int i = 0; i < resolved_.replicas_per_group(); ++i) {
      auto node = std::make_unique<ClusterNode>(
          resolved_, NodeIdentity{g.id, i});
      std::string error;
      BZC_ENSURES(node->listen(&error, /*ephemeral=*/true));
      BZC_ENSURES(node->start_introspect(0, &error));
      // Fold the actual ports back into the config everyone will dial
      // (and the collector scrape) with.
      g.replicas[static_cast<std::size_t>(i)].port = node->listen_port();
      g.replicas[static_cast<std::size_t>(i)].introspect_port =
          node->introspect_port();
      replica_nodes_.push_back(std::move(node));
    }
  }
  client_node_ = std::make_unique<ClusterNode>(resolved_, std::nullopt);
  std::string error;
  BZC_ENSURES(client_node_->start_introspect(0, &error));
  resolved_.client_introspect_port = client_node_->introspect_port();
}

InProcessCluster::~InProcessCluster() { stop(); }

void InProcessCluster::start() {
  if (started_) return;
  started_ = true;
  for (auto& node : replica_nodes_) node->connect(resolved_);
  client_node_->connect(resolved_);
  for (auto& node : replica_nodes_) node->start();
  client_node_->start();
}

void InProcessCluster::stop() {
  // Client first so no new load flows while replicas drain their loops.
  if (client_node_) client_node_->stop();
  for (auto& node : replica_nodes_) node->stop();
}

std::size_t InProcessCluster::node_index(GroupId g, int replica) const {
  const ProcessId pid = resolved_.pid_of(g, replica);
  BZC_EXPECTS(pid.valid());
  return static_cast<std::size_t>(pid.value);
}

ClusterNode& InProcessCluster::replica_node(GroupId g, int replica) {
  return *replica_nodes_[node_index(g, replica)];
}

void InProcessCluster::kill_replica(GroupId g, int replica) {
  ClusterNode& node = replica_node(g, replica);
  node.stop();
  // The loop is dead; its thread is joined, so tearing the sockets down
  // from this thread is race-free. Peers observe resets and enter their
  // reconnect backoff against a port nobody listens on anymore.
  node.env().transport().shutdown();
  // A dead daemon must scrape like one: connection refused, not a hang.
  if (node.introspect() != nullptr) node.introspect()->shutdown();
  killed_.insert({g.value, replica});
}

std::uint64_t InProcessCluster::total_deliveries() const {
  std::uint64_t total = 0;
  for (const auto& node : replica_nodes_) {
    if (node->self() &&
        killed_.contains({node->self()->group.value, node->self()->replica}))
      continue;
    total += node->system().delivery_log().total_deliveries();
  }
  return total;
}

std::uint64_t InProcessCluster::total_monitor_violations() const {
  std::uint64_t total = 0;
  for (const auto& node : replica_nodes_) {
    total += node->monitors().total_violations();
  }
  return total;
}

core::PropertyResult InProcessCluster::check_properties(
    const std::vector<core::SentMessage>& sent) const {
  // Merge per-node logs. Each node's log holds exactly its own replica's
  // records (ghosts never deliver), so concatenation preserves every
  // per-replica delivery order — the only order the checkers consume.
  core::DeliveryLog merged;
  for (const auto& node : replica_nodes_) {
    for (const auto& rec : node->system().delivery_log().records()) {
      merged.record(rec.group, rec.replica, rec.msg, rec.when);
    }
  }
  core::PropertyInput in;
  in.log = &merged;
  in.sent = sent;
  for (const GroupSpec& g : resolved_.groups) {
    if (!g.is_target) continue;
    for (int i = 0; i < resolved_.replicas_per_group(); ++i) {
      if (killed_.contains({g.id.value, i})) continue;
      in.correct_replicas[g.id].push_back(resolved_.pid_of(g.id, i));
    }
  }
  return core::check_all_properties(in);
}

}  // namespace byzcast::net
