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
#include "core/critical_path.hpp"

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

namespace {

void json_components(std::ostream& out, const core::Components& c) {
  out << "{\"queueing_ns\":" << c.queueing << ",\"cpu_ns\":" << c.cpu
      << ",\"network_ns\":" << c.network
      << ",\"quorum_wait_ns\":" << c.quorum_wait << "}";
}

void json_pcts(std::ostream& out, const core::PercentileStats& s) {
  out << "{\"n\":" << s.n << ",\"p50_ns\":" << s.p50 << ",\"p99_ns\":" << s.p99
      << "}";
}

void json_aggregate(std::ostream& out, const core::ClassAggregate& a) {
  out << "{\"n\":" << a.n << ",\"end_to_end\":";
  json_pcts(out, a.end_to_end);
  out << ",\"queueing\":";
  json_pcts(out, a.queueing);
  out << ",\"cpu\":";
  json_pcts(out, a.cpu);
  out << ",\"network\":";
  json_pcts(out, a.network);
  out << ",\"quorum_wait\":";
  json_pcts(out, a.quorum_wait);
  out << "}";
}

/// The merged sidecar: byte-compatible with workload::write_span_sidecar's
/// byzcast-spans-v1 (so check_trace.py / plot_benches.py consume it
/// unchanged), with the monitor section fed from the /healthz scrapes and
/// one extra "cluster" object describing the per-process captures and
/// clock corrections.
bool write_merged_sidecar(const std::string& path, const SpanLog& log, int f,
                          const MergeResult& result,
                          const core::CriticalPathAnalyzer& analyzer,
                          std::string* error) {
  std::ofstream out(path);
  if (!out) return fail(error, "cannot write " + path);

  out << "{\"schema\":\"" << kMergedSpansSchema << "\"";
  out << ",\"f\":" << f;
  out << ",\"spans_recorded\":" << log.spans().size();
  out << ",\"spans_dropped\":" << result.spans_dropped;

  out << ",\"messages\":[";
  bool first = true;
  for (const auto& m : analyzer.messages()) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":\"p" << m.id.origin.value << ":" << m.id.seq
        << "\",\"complete\":" << (m.complete ? "true" : "false")
        << ",\"dst_count\":" << m.dst_count
        << ",\"global\":" << (m.is_global ? "true" : "false")
        << ",\"submitted_ns\":" << m.submitted
        << ",\"end_to_end_ns\":" << m.end_to_end;
    if (m.complete) {
      out << ",\"critical_dst\":" << m.critical_dst.value << ",\"totals\":";
      json_components(out, m.totals);
      out << ",\"hops\":[";
      bool hop_first = true;
      for (const auto& h : m.hops) {
        if (!hop_first) out << ",";
        hop_first = false;
        out << "{\"group\":" << h.group.value
            << ",\"replica\":" << h.replica.value << ",\"components\":";
        json_components(out, h.components);
        out << "}";
      }
      out << "]";
    }
    out << "}";
  }
  out << "]";

  out << ",\"aggregates\":{\"local\":";
  json_aggregate(out, analyzer.aggregate(/*global=*/false));
  out << ",\"global\":";
  json_aggregate(out, analyzer.aggregate(/*global=*/true));
  out << "}";

  out << ",\"edges\":[";
  first = true;
  for (const auto& [edge, stats] : analyzer.edge_latency()) {
    if (!first) out << ",";
    first = false;
    out << "{\"parent\":" << edge.first.value
        << ",\"child\":" << edge.second.value << ",\"stats\":";
    json_pcts(out, stats);
    out << "}";
  }
  out << "]";

  // Summed across every /healthz that answered; per-monitor names match the
  // in-process writer so validators treat both identically.
  out << ",\"monitor\":";
  std::uint64_t fifo = 0;
  std::uint64_t agreement = 0;
  std::uint64_t acyclic = 0;
  std::uint64_t pending = 0;
  bool any_healthz = false;
  for (const NodeCapture& node : result.nodes) {
    const Json& h = node.healthz;
    if (!h.is_object() || !h.get("monitor").is_object()) continue;
    any_healthz = true;
    const Json& m = h.get("monitor");
    fifo += static_cast<std::uint64_t>(m.int_or("fifo", 0));
    agreement += static_cast<std::uint64_t>(m.int_or("group_agreement", 0));
    acyclic += static_cast<std::uint64_t>(m.int_or("acyclic_order", 0));
    pending += static_cast<std::uint64_t>(m.int_or("bounded_pending", 0));
  }
  if (any_healthz) {
    out << "{\"violations_total\":" << result.monitor_violations
        << ",\"fifo\":" << fifo << ",\"group_agreement\":" << agreement
        << ",\"acyclic_order\":" << acyclic
        << ",\"bounded_pending\":" << pending << "}";
  } else {
    out << "null";
  }

  out << ",\"cluster\":{\"nodes\":[";
  first = true;
  for (const NodeCapture& node : result.nodes) {
    if (!first) out << ",";
    first = false;
    out << "{\"node\":\"" << node.target.name
        << "\",\"ok\":" << (node.ok ? "true" : "false");
    if (node.ok) {
      out << ",\"clock_offset_ns\":" << node.clock.offset
          << ",\"clock_min_rtt_ns\":" << node.clock.min_rtt
          << ",\"clock_samples\":" << node.clock.samples
          << ",\"spans\":" << node.raw.spans.size()
          << ",\"spans_dropped\":" << node.raw.dropped;
    } else {
      // Prose only; escape the two characters that can break the JSON.
      std::string msg;
      for (const char c : node.error) {
        if (c == '"' || c == '\\') msg += '\\';
        msg += c;
      }
      out << ",\"error\":\"" << msg << "\"";
    }
    out << "}";
  }
  out << "]}";
  out << "}\n";
  return out.good();
}

}  // namespace

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
  if (!write_merged_sidecar(out_dir + "/cluster_spans.json", log, cfg.f,
                            result, analyzer, &error)) {
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
