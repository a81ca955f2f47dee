#include "net/collector.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>

#include "common/span_export.hpp"

namespace byzcast::net {

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error) *error = what;
  return false;
}

/// kind as a small int is the machine-readable field; the name rides along
/// for humans reading the scrape by hand.
constexpr int kMaxSpanKind = static_cast<int>(SpanKind::kConsensusInstance);

Json span_to_json(const Span& s) {
  Json j = Json::object();
  j.set("origin", Json::number(s.msg.origin.value));
  j.set("seq", Json::number(s.msg.seq));
  j.set("kind", Json::number(static_cast<int>(s.kind)));
  j.set("kind_name", Json::string(to_string(s.kind)));
  j.set("group", Json::number(s.group.value));
  j.set("where", Json::number(s.where.value));
  j.set("begin_ns", Json::number(s.begin));
  j.set("end_ns", Json::number(s.end));
  j.set("detail", Json::number(s.detail));
  return j;
}

std::optional<Span> span_from_json(const Json& j) {
  if (!j.is_object()) return std::nullopt;
  const std::int64_t kind = j.int_or("kind", -1);
  if (kind < 0 || kind > kMaxSpanKind) return std::nullopt;
  Span s;
  s.msg.origin = ProcessId(static_cast<std::int32_t>(j.int_or("origin", -1)));
  s.msg.seq = static_cast<std::uint64_t>(j.int_or("seq", 0));
  s.kind = static_cast<SpanKind>(kind);
  s.group = GroupId(static_cast<std::int32_t>(j.int_or("group", -1)));
  s.where = ProcessId(static_cast<std::int32_t>(j.int_or("where", -1)));
  s.begin = j.int_or("begin_ns", 0);
  s.end = j.int_or("end_ns", 0);
  s.detail = j.int_or("detail", 0);
  return s;
}

}  // namespace

Json raw_spans_json(const SpanLog& log, const std::string& node, Time now_ns,
                    std::size_t from) {
  const std::vector<Span>& spans = log.spans();
  Json j = Json::object();
  j.set("schema", Json::string(kRawSpansSchema));
  j.set("node", Json::string(node));
  j.set("now_ns", Json::number(now_ns));
  j.set("spans_recorded", Json::number(spans.size()));
  j.set("spans_dropped", Json::number(log.dropped()));
  j.set("from", Json::number(from));
  Json arr = Json::array();
  for (std::size_t i = std::min(from, spans.size()); i < spans.size(); ++i) {
    arr.push_back(span_to_json(spans[i]));
  }
  j.set("spans", std::move(arr));
  return j;
}

std::optional<RawSpans> raw_spans_from_json(const Json& j,
                                            std::string* error) {
  if (!j.is_object() || !j.has("schema") ||
      j.get("schema").as_string() != kRawSpansSchema) {
    fail(error, std::string("expected schema ") + kRawSpansSchema);
    return std::nullopt;
  }
  RawSpans out;
  out.node = j.get("node").as_string();
  out.now_ns = j.int_or("now_ns", 0);
  out.recorded = static_cast<std::uint64_t>(j.int_or("spans_recorded", 0));
  out.dropped = static_cast<std::uint64_t>(j.int_or("spans_dropped", 0));
  out.from = static_cast<std::size_t>(j.int_or("from", 0));
  const Json& arr = j.get("spans");
  if (!arr.is_array()) {
    fail(error, "\"spans\" must be an array");
    return std::nullopt;
  }
  out.spans.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const auto s = span_from_json(arr.at(i));
    if (!s) {
      fail(error, "malformed span at index " + std::to_string(i));
      return std::nullopt;
    }
    out.spans.push_back(*s);
  }
  return out;
}

// --- HTTP client -----------------------------------------------------------

namespace {

/// poll() for `events` with a deadline; false on timeout/error.
bool wait_fd(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  while (true) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return (p.revents & (events | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

}  // namespace

std::optional<std::string> http_get(const std::string& host,
                                    std::uint16_t port,
                                    const std::string& target, int timeout_ms,
                                    std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "localhost" || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    fail(error, "unresolvable host: " + host);
    return std::nullopt;
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    fail(error, "socket: " + std::string(::strerror(errno)));
    return std::nullopt;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const auto closed_fail = [&](const std::string& what) {
    ::close(fd);
    fail(error, what + " (" + host + ":" + std::to_string(port) + target +
                    ")");
    return std::nullopt;
  };
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    return closed_fail("connect: " + std::string(::strerror(errno)));
  }
  if (!wait_fd(fd, POLLOUT, timeout_ms)) {
    return closed_fail("connect timeout");
  }
  int soerr = 0;
  socklen_t len = sizeof soerr;
  ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
  if (soerr != 0) {
    return closed_fail("connect: " + std::string(::strerror(soerr)));
  }

  const std::string request = "GET " + target + " HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t written = 0;
  while (written < request.size()) {
    const ssize_t n = ::send(fd, request.data() + written,
                             request.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wait_fd(fd, POLLOUT, timeout_ms)) {
        return closed_fail("write timeout");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return closed_fail("write: " + std::string(::strerror(errno)));
  }

  std::string response;
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;  // EOF: HTTP/1.0 close delimits the body
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!wait_fd(fd, POLLIN, timeout_ms)) {
        return closed_fail("read timeout");
      }
      continue;
    }
    if (errno == EINTR) continue;
    return closed_fail("read: " + std::string(::strerror(errno)));
  }
  ::close(fd);

  const std::size_t line_end = response.find("\r\n");
  const std::size_t header_end = response.find("\r\n\r\n");
  if (line_end == std::string::npos || header_end == std::string::npos) {
    fail(error, "malformed HTTP response from " + host + ":" +
                    std::to_string(port) + target);
    return std::nullopt;
  }
  const std::string status_line = response.substr(0, line_end);
  if (status_line.find(" 200") == std::string::npos) {
    fail(error, "HTTP error from " + host + ":" + std::to_string(port) +
                    target + ": " + status_line);
    return std::nullopt;
  }
  return response.substr(header_end + 4);
}

// --- clock alignment -------------------------------------------------------

Time collector_now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::optional<ClockEstimate> estimate_clock_offset(const std::string& host,
                                                   std::uint16_t port,
                                                   int samples,
                                                   int timeout_ms,
                                                   std::string* error) {
  ClockEstimate best;
  for (int i = 0; i < samples; ++i) {
    const Time t0 = collector_now();
    const auto body = http_get(host, port,
                               "/clock?t0=" + std::to_string(t0), timeout_ms,
                               error);
    const Time t3 = collector_now();
    if (!body) continue;
    const auto j = Json::parse(*body, error);
    if (!j || !j->is_object()) continue;
    if (j->int_or("t0", -1) != t0) continue;  // crossed responses
    const Time node_now = j->int_or("now_ns", -1);
    if (node_now < 0) continue;
    const Time rtt = t3 - t0;
    if (best.samples == 0 || rtt <= best.min_rtt) {
      best.min_rtt = rtt;
      best.offset = node_now - (t0 + t3) / 2;
    }
    ++best.samples;
  }
  if (best.samples == 0) {
    // `error` already carries the last failure's prose.
    return std::nullopt;
  }
  return best;
}

// --- scrape & merge --------------------------------------------------------

std::vector<ScrapeTarget> introspect_targets(const ClusterConfig& cfg) {
  std::vector<ScrapeTarget> out;
  for (const GroupSpec& g : cfg.groups) {
    for (std::size_t i = 0; i < g.replicas.size(); ++i) {
      const Endpoint& ep = g.replicas[i];
      if (ep.introspect_port == 0) continue;
      std::string name = "g";
      name += std::to_string(g.id.value);
      name += "_r";
      name += std::to_string(i);
      out.push_back(ScrapeTarget{std::move(name), ep.host,
                                 ep.introspect_port});
    }
  }
  if (cfg.client_introspect_port != 0) {
    out.push_back(
        ScrapeTarget{"client", "localhost", cfg.client_introspect_port});
  }
  return out;
}

Json merged_spans_json(const core::CriticalPathAnalyzer& analyzer, int f,
                       const MergeResult& result) {
  // Each /healthz that answered carries its process's MonitorHub::summary();
  // the cluster's monitor section is their member-wise sum.
  Json monitor;
  for (const NodeCapture& node : result.nodes) {
    const Json& m = node.healthz.get("monitor");
    if (!m.is_object()) continue;
    if (monitor.is_null()) monitor = Json::object();
    for (const auto& [name, count] : m.members()) {
      monitor.set(name, Json::number(monitor.get(name).as_double() +
                                     count.as_double()));
    }
  }
  Json doc = core::spans_sidecar_json(analyzer, f, result.merged_spans,
                                      result.spans_dropped,
                                      std::move(monitor));

  Json nodes = Json::array();
  for (const NodeCapture& node : result.nodes) {
    Json n = Json::object();
    n.set("node", Json::string(node.target.name));
    n.set("ok", Json::boolean(node.ok));
    if (node.ok) {
      n.set("clock_offset_ns", Json::number(node.clock.offset));
      n.set("clock_min_rtt_ns", Json::number(node.clock.min_rtt));
      n.set("clock_samples", Json::number(node.clock.samples));
      n.set("spans", Json::number(node.raw.spans.size()));
      n.set("spans_dropped", Json::number(node.raw.dropped));
    } else {
      n.set("error", Json::string(node.error));
    }
    nodes.push_back(std::move(n));
  }
  Json cluster = Json::object();
  cluster.set("nodes", std::move(nodes));
  doc.set("cluster", std::move(cluster));
  return doc;
}

MergeResult collect_and_merge(const ClusterConfig& cfg,
                              const std::string& out_dir, int clock_samples,
                              int timeout_ms) {
  MergeResult result;
  const std::vector<ScrapeTarget> targets = introspect_targets(cfg);
  if (targets.empty()) {
    result.error = "no process in this config has an introspect_port";
    return result;
  }

  std::vector<Span> merged;
  for (const ScrapeTarget& target : targets) {
    NodeCapture capture;
    capture.target = target;
    std::string error;
    const auto clock = estimate_clock_offset(target.host, target.port,
                                             clock_samples, timeout_ms,
                                             &error);
    if (!clock) {
      capture.error = "clock: " + error;
      result.nodes.push_back(std::move(capture));
      continue;
    }
    capture.clock = *clock;
    const auto body =
        http_get(target.host, target.port, "/spans", timeout_ms, &error);
    if (!body) {
      capture.error = error;
      result.nodes.push_back(std::move(capture));
      continue;
    }
    const auto parsed = Json::parse(*body, &error);
    const auto raw = parsed ? raw_spans_from_json(*parsed, &error)
                            : std::nullopt;
    if (!raw) {
      capture.error = "spans: " + error;
      result.nodes.push_back(std::move(capture));
      continue;
    }
    capture.raw = *raw;
    if (const auto health =
            http_get(target.host, target.port, "/healthz", timeout_ms,
                     &error)) {
      if (const auto hj = Json::parse(*health, &error)) {
        capture.healthz = *hj;
        result.monitor_violations += static_cast<std::uint64_t>(
            hj->get("monitor").int_or("violations_total", 0));
      }
    }
    capture.ok = true;
    ++result.scraped_ok;
    result.spans_dropped += capture.raw.dropped;
    for (Span s : capture.raw.spans) {
      s.begin -= capture.clock.offset;
      s.end -= capture.clock.offset;
      merged.push_back(s);
    }
    result.nodes.push_back(std::move(capture));
  }

  if (result.scraped_ok == 0) {
    result.error = "no introspection endpoint reachable";
    for (const NodeCapture& n : result.nodes) {
      result.error += "; " + n.target.name + ": " + n.error;
    }
    return result;
  }

  // Deterministic merge order: the per-node scrape order is fixed, but the
  // interleaving should not depend on it.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Span& a, const Span& b) {
                     if (a.begin != b.begin) return a.begin < b.begin;
                     return a.end < b.end;
                   });
  // Re-origin the merged timeline at its earliest span. Node clocks start
  // at each process's loop construction, so aligned times are negative for
  // anything stamped before the collector's own epoch — and downstream
  // consumers (the critical-path chain times, the trace-event writer) treat
  // negative times as the "absent" sentinel. Only intervals matter, so a
  // uniform shift is free.
  if (!merged.empty()) {
    const Time origin = merged.front().begin;
    for (Span& s : merged) {
      s.begin -= origin;
      s.end -= origin;
    }
  }
  SpanLog log(merged.size() + 1);
  for (const Span& s : merged) log.record(s);
  result.merged_spans = log.spans().size();

  core::CriticalPathAnalyzer analyzer(
      log, core::CriticalPathAnalyzer::Options{cfg.f});
  result.traced_messages = analyzer.messages().size();
  for (const auto& m : analyzer.messages()) {
    if (m.complete) ++result.complete_messages;
  }

  std::string error;
  if (!write_json_file(out_dir + "/cluster_spans.json",
                       merged_spans_json(analyzer, cfg.f, result), &error)) {
    result.error = error;
    return result;
  }
  std::ofstream trace(out_dir + "/cluster_trace.json");
  if (!trace) {
    result.error = "cannot write " + out_dir + "/cluster_trace.json";
    return result;
  }
  trace << chrome_trace_json(log);
  if (!trace.good()) {
    result.error = "short write to " + out_dir + "/cluster_trace.json";
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace byzcast::net
