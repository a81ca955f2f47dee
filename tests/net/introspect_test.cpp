// Introspection plane end to end: the per-process HTTP responder must serve
// registered handlers on its event loop (unit tests on a bare EventLoop),
// and a live InProcessCluster must be scrapable mid-run — /healthz showing
// consensus progress between two scrapes, /metrics as legal exposition text
// — and mergeable afterwards: collect_and_merge() aligns every process's
// spans onto one timeline and emits the cluster sidecar + Perfetto trace.
#include "net/introspect.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "core/multicast.hpp"
#include "core/properties.hpp"
#include "net/cluster.hpp"
#include "net/collector.hpp"
#include "net/config.hpp"
#include "net/event_loop.hpp"

namespace byzcast::net {
namespace {

using namespace std::chrono_literals;

TEST(ParseQuery, SplitsPairsAndLetsLaterDuplicatesWin) {
  const auto q = parse_query("a=1&b=two&a=3");
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.at("a"), "3");
  EXPECT_EQ(q.at("b"), "two");
  EXPECT_TRUE(parse_query("").empty());
  // A key without '=' maps to the empty string.
  const auto bare = parse_query("flag&x=1");
  EXPECT_EQ(bare.at("flag"), "");
  EXPECT_EQ(bare.at("x"), "1");
}

/// Runs `loop` on a background thread for the duration of `body`, then
/// shuts the server down on the loop thread before joining.
void with_server(EventLoop& loop, IntrospectServer& server,
                 const std::function<void()>& body) {
  std::thread t([&] { loop.run(); });
  body();
  loop.post([&] {
    server.shutdown();
    loop.request_stop();
  });
  t.join();
}

TEST(IntrospectServer, ServesHandlersAndCountsUnknownPaths) {
  EventLoop loop;
  IntrospectServer server(loop);
  server.handle("/ping", [](const std::string& query) {
    IntrospectServer::Response r;
    r.body = "pong:" + query;
    return r;
  });
  std::string error;
  ASSERT_TRUE(server.listen("127.0.0.1", 0, &error)) << error;
  const std::uint16_t port = server.port();
  ASSERT_NE(port, 0);

  with_server(loop, server, [&] {
    std::string err;
    const auto body = http_get("127.0.0.1", port, "/ping?x=1", 2000, &err);
    ASSERT_TRUE(body.has_value()) << err;
    EXPECT_EQ(*body, "pong:x=1");

    const auto plain = http_get("127.0.0.1", port, "/ping", 2000, &err);
    ASSERT_TRUE(plain.has_value()) << err;
    EXPECT_EQ(*plain, "pong:");

    // Unknown path: a 404, which http_get reports as a failure.
    EXPECT_FALSE(http_get("127.0.0.1", port, "/nope", 2000, &err).has_value());
  });

  // Loop stopped: stats are safe to read from this thread now.
  EXPECT_EQ(server.stats().requests, 3u);
  EXPECT_EQ(server.stats().bad_requests, 1u);
}

TEST(IntrospectServer, RejectsNonGetRequests) {
  EventLoop loop;
  IntrospectServer server(loop);
  server.handle("/x", [](const std::string&) {
    return IntrospectServer::Response{};
  });
  std::string error;
  ASSERT_TRUE(server.listen("127.0.0.1", 0, &error)) << error;

  with_server(loop, server, [&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    const std::string req = "POST /x HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    std::string reply;
    char buf[512];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
      reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_NE(reply.find(" 400 "), std::string::npos) << reply;
  });
  EXPECT_EQ(server.stats().bad_requests, 1u);
}

// --- merged sidecar ----------------------------------------------------------

TEST(Collector, MergedSidecarKeepsErrorProseAndSumsMonitors) {
  // Two answering processes with their /healthz monitor summaries, and one
  // whose error carries a scraped peer's HTTP status line verbatim, control
  // characters included.
  MergeResult result;
  for (const std::int64_t fifo : {1, 2}) {
    NodeCapture node;
    node.target.name = "g0_r" + std::to_string(fifo);
    node.ok = true;
    node.clock.samples = 1;
    Json monitor = Json::object();
    monitor.set("violations_total", Json::number(fifo));
    monitor.set("fifo", Json::number(fifo));
    node.healthz = Json::object();
    node.healthz.set("monitor", std::move(monitor));
    result.nodes.push_back(std::move(node));
  }
  NodeCapture failed;
  failed.target.name = "g0_r3";
  failed.error =
      "HTTP error from 127.0.0.1:1/spans: HTTP/1.0 500 Bad\tPeer\x01";
  result.nodes.push_back(failed);

  const SpanLog no_spans;
  const core::CriticalPathAnalyzer analyzer(no_spans);
  const std::string path =
      ::testing::TempDir() + "collector_prose/cluster_spans.json";
  std::string err;
  ASSERT_TRUE(write_json_file(path, merged_spans_json(analyzer, 1, result),
                              &err))
      << err;
  const auto doc = read_json_file(path, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->get("schema").as_string(), "byzcast-spans-v1");
  EXPECT_EQ(doc->get("monitor").int_or("violations_total", -1), 3);
  EXPECT_EQ(doc->get("monitor").int_or("fifo", -1), 3);
  const Json& nodes = doc->get("cluster").get("nodes");
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_FALSE(nodes.at(2).get("ok").as_bool());
  EXPECT_EQ(nodes.at(2).get("error").as_string(), failed.error);
}

// --- live-cluster integration ---------------------------------------------

/// f=1, three target groups: g0 the root, g1/g2 its children — the same
/// shape net_cluster_test drives. Ports are placeholders; InProcessCluster
/// listens ephemerally (introspection servers included) and rewrites them.
ClusterConfig three_group_config() {
  std::string text = R"({"name": "inproc", "f": 1, "seed": 11, "groups": [)";
  for (int g = 0; g < 3; ++g) {
    if (g > 0) text += ",";
    text += R"({"id": )" + std::to_string(g) + R"(, "target": true,)";
    text += g == 0 ? R"( "parent": null,)" : R"( "parent": 0,)";
    text += R"( "replicas": [)";
    for (int r = 0; r < 4; ++r) {
      if (r > 0) text += ",";
      text += R"({"host": "127.0.0.1", "port": )" +
              std::to_string(11000 + g * 10 + r) + "}";
    }
    text += "]}";
  }
  text += "]}";
  std::string err;
  auto cfg = ClusterConfig::parse(text, &err);
  BZC_EXPECTS(cfg.has_value());
  return *cfg;
}

struct Scrape {
  std::int64_t decided = 0;
  std::int64_t deliveries = 0;
};

Scrape scrape_healthz(std::uint16_t port) {
  std::string err;
  const auto body = http_get("127.0.0.1", port, "/healthz", 2000, &err);
  EXPECT_TRUE(body.has_value()) << err;
  Scrape s;
  if (!body) return s;
  const auto j = Json::parse(*body, &err);
  EXPECT_TRUE(j.has_value()) << err;
  if (!j) return s;
  EXPECT_EQ(j->get("schema").as_string(), "byzcast-healthz-v1");
  EXPECT_TRUE(j->get("is_replica").as_bool());
  EXPECT_EQ(j->get("sha256_kernel").as_string(), Sha256::kernel_name());
  EXPECT_EQ(j->get("monitor").int_or("violations_total", -1), 0);
  s.decided = j->int_or("decided_instances", -1);
  s.deliveries = j->int_or("deliveries", -1);
  EXPECT_GE(s.decided, 0);
  EXPECT_GE(s.deliveries, 0);
  return s;
}

TEST(ClusterIntrospection, MidRunScrapeShowsProgressAndMergeIsClean) {
  InProcessCluster cluster(three_group_config());
  std::vector<core::Client*> clients{&cluster.add_client("c0")};
  clients[0]->set_trace_sample_every(1);  // trace every message
  cluster.start();

  // Every seat (and the client process) got an ephemeral introspection
  // port, folded into the resolved config like real deployment ports.
  const ClusterConfig& resolved = cluster.resolved();
  for (const GroupSpec& g : resolved.groups) {
    for (const Endpoint& ep : g.replicas) {
      EXPECT_NE(ep.introspect_port, 0);
    }
  }
  EXPECT_NE(resolved.client_introspect_port, 0);
  const std::uint16_t probe = resolved.groups[0].replicas[0].introspect_port;

  // Closed-loop workload, one client; mid-run (after ~1/3 completed) a
  // scrape of a live replica must succeed from another thread.
  const int total = 21;
  const Bytes payload(64, std::uint8_t{0xab});
  std::atomic<int> done{0};
  std::vector<std::vector<GroupId>> issued;
  Rng rng(0x5eedULL);
  std::function<void()> issue = [&] {
    if (static_cast<int>(issued.size()) == total) return;
    std::vector<GroupId> dst;
    if (rng.next_bool(0.5)) {
      const auto a = static_cast<std::int32_t>(rng.next_below(3));
      const auto b = static_cast<std::int32_t>(rng.next_below(2));
      dst = {GroupId{a}, GroupId{b < a ? b : b + 1}};
    } else {
      dst = {GroupId{static_cast<std::int32_t>(rng.next_below(3))}};
    }
    core::MulticastMessage canon;
    canon.dst = dst;
    canon.canonicalize();
    issued.push_back(canon.dst);
    clients[0]->a_multicast(std::move(dst), payload,
                            [&](const core::MulticastMessage&, Time) {
                              done.fetch_add(1);
                              issue();
                            });
  };
  cluster.client_node().env().post([&] { issue(); });

  Scrape mid;
  std::string mid_metrics;
  bool mid_fired = false;
  const auto deadline = std::chrono::steady_clock::now() + 120s;
  while (done.load() < total && std::chrono::steady_clock::now() < deadline) {
    if (!mid_fired && done.load() >= total / 3) {
      mid_fired = true;
      mid = scrape_healthz(probe);
      std::string err;
      const auto metrics =
          http_get("127.0.0.1", probe, "/metrics", 2000, &err);
      ASSERT_TRUE(metrics.has_value()) << err;
      mid_metrics = *metrics;
    }
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_EQ(done.load(), total);
  ASSERT_TRUE(mid_fired);

  // The mid-run exposition is real Prometheus text carrying this node's
  // identity and at least the core consensus counters.
  EXPECT_NE(mid_metrics.find("# TYPE "), std::string::npos);
  EXPECT_NE(mid_metrics.find("node=\"g0_r0\""), std::string::npos);
  EXPECT_NE(mid_metrics.find("net_transport_messages_sent"),
            std::string::npos);

  // Let stragglers catch up, then scrape again: monotone progress.
  std::uint64_t last = cluster.total_deliveries();
  auto stable_since = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() < stable_since + 2500ms) {
    std::this_thread::sleep_for(20ms);
    const std::uint64_t now = cluster.total_deliveries();
    if (now != last) {
      last = now;
      stable_since = std::chrono::steady_clock::now();
    }
  }
  const Scrape late = scrape_healthz(probe);
  EXPECT_GE(late.decided, mid.decided);
  EXPECT_GE(late.deliveries, mid.deliveries);
  EXPECT_GT(late.deliveries, 0);

  // Cluster-wide collection while everything is still live: all 13
  // processes scraped, spans aligned, critical path extracted.
  const std::string out_dir = ::testing::TempDir() + "introspect_merge";
  ASSERT_EQ(::system(("mkdir -p " + out_dir).c_str()), 0);
  const MergeResult merged = collect_and_merge(resolved, out_dir);
  EXPECT_TRUE(merged.ok) << merged.error;
  EXPECT_EQ(merged.scraped_ok, 13u);
  EXPECT_EQ(merged.monitor_violations, 0u);
  EXPECT_GT(merged.merged_spans, 0u);
  EXPECT_GE(merged.traced_messages, 1u);
  EXPECT_GE(merged.complete_messages, 1u);

  // The sidecar is a byzcast-spans-v1 document with the per-node cluster
  // section; the trace file is a Chrome-trace object.
  {
    std::ifstream in(out_dir + "/cluster_spans.json");
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    const auto j = Json::parse(ss.str(), &err);
    ASSERT_TRUE(j.has_value()) << err;
    EXPECT_EQ(j->get("schema").as_string(), "byzcast-spans-v1");
    EXPECT_TRUE(j->get("messages").is_array());
    EXPECT_TRUE(j->get("cluster").is_object());
    EXPECT_EQ(j->get("cluster").get("nodes").size(), 13u);
  }
  {
    std::ifstream in(out_dir + "/cluster_trace.json");
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    const auto j = Json::parse(ss.str(), &err);
    ASSERT_TRUE(j.has_value()) << err;
    EXPECT_TRUE(j->get("traceEvents").is_array());
    EXPECT_GT(j->get("traceEvents").size(), 0u);
  }

  cluster.stop();
  EXPECT_EQ(cluster.total_monitor_violations(), 0u);
}

}  // namespace
}  // namespace byzcast::net
