// byzcastd: one ByzCast replica as an OS process. Loads the shared cluster
// config, binds its configured endpoint, dials every other replica and runs
// its event loop until SIGINT/SIGTERM. Shutdown is graceful: the signal
// handler only sets a flag (async-signal-safe); a periodic loop timer
// notices it, waits for the delivery log to go quiet (2.5s stable, 15s
// cap — long enough for a straggler's anti-entropy catch-up), flushes the
// delivery dump and metrics sidecar to --out-dir, tears the sockets down
// and exits 0.
//
// SIGUSR1 writes the artifacts (delivery dump + metrics sidecar) on demand
// without exiting — the multi-process harness uses it to capture survivor
// state mid-run. When the config gives this seat an introspect_port, the
// daemon also serves live HTTP introspection (/metrics, /healthz, /spans,
// /dump, /clock) on it; see docs/ARCHITECTURE.md "Live cluster
// observability".
//
//   byzcastd --config cluster.json --group 2 --replica 1 --out-dir run/
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "net/cluster.hpp"
#include "net/dump.hpp"

namespace {

using namespace byzcast;

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;

void handle_signal(int) { g_stop = 1; }
void handle_dump_signal(int) { g_dump = 1; }

struct Args {
  std::string config;
  std::string out_dir = ".";
  int group = -1;
  int replica = -1;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "byzcastd: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--config") {
      const char* v = need_value("--config");
      if (!v) return std::nullopt;
      args.config = v;
    } else if (a == "--group") {
      const char* v = need_value("--group");
      if (!v) return std::nullopt;
      args.group = std::atoi(v);
    } else if (a == "--replica") {
      const char* v = need_value("--replica");
      if (!v) return std::nullopt;
      args.replica = std::atoi(v);
    } else if (a == "--out-dir") {
      const char* v = need_value("--out-dir");
      if (!v) return std::nullopt;
      args.out_dir = v;
    } else {
      std::fprintf(stderr, "byzcastd: unknown argument %s\n", a.c_str());
      return std::nullopt;
    }
  }
  if (args.config.empty() || args.group < 0 || args.replica < 0) {
    std::fprintf(stderr,
                 "usage: byzcastd --config FILE --group N --replica N "
                 "[--out-dir DIR]\n");
    return std::nullopt;
  }
  return args;
}

void write_artifacts(const Args& args, net::ClusterNode& node) {
  node.refresh_net_metrics();  // registry JSON then carries the net.* gauges
  const std::string name = node.node_name();
  net::DeliveryDump dump;
  dump.node = name;
  dump.monitor_violations = node.monitors().total_violations();
  dump.records = node.delivery_log().records();
  std::string error;
  if (!write_json_file(args.out_dir + "/delivery_" + name + ".json",
                       net::delivery_dump_to_json(dump), &error)) {
    std::fprintf(stderr, "byzcastd[%s]: %s\n", name.c_str(), error.c_str());
  }

  // Metrics sidecar: transport and env counters next to the registry.
  const auto tr = node.env().transport().stats();
  const auto& es = node.env().stats();
  Json transport = Json::object();
  transport.set("messages_sent", Json::number(tr.messages_sent));
  transport.set("messages_received", Json::number(tr.messages_received));
  transport.set("bytes_sent", Json::number(tr.bytes_sent));
  transport.set("bytes_received", Json::number(tr.bytes_received));
  transport.set("dropped_no_route", Json::number(tr.dropped_no_route));
  transport.set("dropped_queue_full", Json::number(tr.dropped_queue_full));
  transport.set("dropped_decode", Json::number(tr.dropped_decode));
  transport.set("connect_attempts", Json::number(tr.connect_attempts));
  transport.set("reconnects", Json::number(tr.reconnects));
  transport.set("inbound_accepted", Json::number(tr.inbound_accepted));
  transport.set("inbound_resets", Json::number(tr.inbound_resets));
  transport.set("send_queue_high_water",
                Json::number(tr.send_queue_high_water));
  Json env = Json::object();
  env.set("local_deliveries", Json::number(es.local_deliveries));
  env.set("remote_sends", Json::number(es.remote_sends));
  env.set("ghost_send_drops", Json::number(es.ghost_send_drops));
  env.set("no_actor_drops", Json::number(es.no_actor_drops));
  Json metrics = Json::object();
  metrics.set("node", Json::string(name));
  metrics.set("monitor_violations", Json::number(dump.monitor_violations));
  metrics.set("deliveries", Json::number(dump.records.size()));
  metrics.set("transport", std::move(transport));
  metrics.set("env", std::move(env));
  metrics.set("registry", node.metrics().to_json());
  if (!write_json_file(args.out_dir + "/metrics_" + name + ".json", metrics,
                       &error)) {
    std::fprintf(stderr, "byzcastd[%s]: %s\n", name.c_str(), error.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) return 2;

  std::string error;
  const auto cfg = net::ClusterConfig::load_file(args->config, &error);
  if (!cfg) {
    std::fprintf(stderr, "byzcastd: %s\n", error.c_str());
    return 2;
  }
  const GroupId group{args->group};
  if (cfg->group(group) == nullptr ||
      args->replica >= cfg->replicas_per_group()) {
    std::fprintf(stderr, "byzcastd: no seat group=%d replica=%d in %s\n",
                 args->group, args->replica, args->config.c_str());
    return 2;
  }

  net::ClusterNode node(*cfg, net::NodeIdentity{group, args->replica});
  if (!node.listen(&error)) {
    std::fprintf(stderr, "byzcastd[%s]: %s\n", node.node_name().c_str(),
                 error.c_str());
    return 1;
  }
  const net::Endpoint* self_ep = cfg->endpoint_of(node.self_pid());
  if (self_ep->introspect_port != 0 &&
      !node.start_introspect(self_ep->introspect_port, &error)) {
    std::fprintf(stderr, "byzcastd[%s]: %s\n", node.node_name().c_str(),
                 error.c_str());
    return 1;
  }
  node.connect(*cfg);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGUSR1, handle_dump_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // Graceful-shutdown poller: a self-rescheduling 50ms timer. Once the
  // signal flag is up it drains, writes artifacts and stops the loop. The
  // stability window must exceed the anti-entropy cadence (liveness checks
  // every leader_timeout/2 plus the 500ms state-transfer rate limit): a
  // straggler replica catches up on that cadence, and an impatient drain
  // would dump its log mid-recovery.
  struct Drain {
    Time started = -1;
    Time stable_since = -1;
    std::uint64_t last = 0;
  };
  auto drain = std::make_shared<Drain>();
  std::function<void()> poll = [&node, &args, drain, &poll] {
    constexpr Time kPoll = 50 * kMillisecond;
    constexpr Time kStable = 2500 * kMillisecond;
    constexpr Time kCap = 15 * kSecond;
    const Time now = node.env().now();
    if (g_stop == 0) {
      if (g_dump != 0) {
        // SIGUSR1: on-demand snapshot, keep running. Runs on the loop
        // thread, so the dump sees a consistent state between messages.
        g_dump = 0;
        write_artifacts(*args, node);
      }
      node.env().loop().schedule(kPoll, poll);
      return;
    }
    const std::uint64_t cur = node.delivery_log().total_deliveries();
    if (drain->started < 0) {
      drain->started = now;
      drain->stable_since = now;
      drain->last = cur;
    } else if (cur != drain->last) {
      drain->last = cur;
      drain->stable_since = now;
    }
    if (now - drain->stable_since >= kStable ||
        now - drain->started >= kCap) {
      write_artifacts(*args, node);
      node.env().transport().shutdown();
      node.env().loop().request_stop();
      return;
    }
    node.env().loop().schedule(kPoll, poll);
  };
  node.env().loop().schedule(50 * kMillisecond, poll);

  std::fprintf(stderr, "byzcastd[%s]: pid %d listening on %u (introspect %u)\n",
               node.node_name().c_str(), node.self_pid().value,
               node.listen_port(), node.introspect_port());
  node.run();  // blocks until the drain poller stops the loop
  return 0;
}
