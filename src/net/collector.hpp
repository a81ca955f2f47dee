// Cluster-wide observability collector: everything behind `byzcast-ctl`.
//
// A running net-backend cluster exposes per-process introspection servers
// (net/introspect.hpp). This module is the other half: a blocking HTTP GET
// client, the byzcast-raw-spans-v1 exchange format each daemon serves on
// /spans, per-daemon clock-offset estimation against /clock (timestamp
// echo, RTT-midpoint correction at the lowest observed RTT — the same
// estimator the transport applies per connection), and the merge step that
// shifts every process's spans onto the collector's timeline, rebuilds one
// SpanLog, runs core::CriticalPathAnalyzer over it and emits the merged
// byzcast-spans-v1 sidecar plus a cluster-wide Perfetto (Chrome trace
// event) file.
//
// Clock model: every process's span timestamps are steady-clock ns since
// *its own* EventLoop was built, so raw timestamps from two processes are
// incomparable. For daemon i the collector estimates offset_i such that
//   collector_time ≈ node_time - offset_i
// and aligns span [begin, end) to [begin - offset_i, end - offset_i). On a
// LAN the min-RTT midpoint bounds the estimation error by rtt/2 (tens of
// microseconds on localhost) — far below the millisecond-scale intervals
// the critical-path decomposition reports, and irrelevant to its exact
// telescoping, which is computed per clamped chain after alignment.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/span.hpp"
#include "core/critical_path.hpp"
#include "net/config.hpp"

namespace byzcast::net {

inline constexpr const char* kRawSpansSchema = "byzcast-raw-spans-v1";

// --- raw span exchange format (served by /spans) --------------------------

struct RawSpans {
  std::string node;
  Time now_ns = 0;          // serving process's clock at render time
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::size_t from = 0;     // cursor this render started at
  std::vector<Span> spans;
};

/// Renders `log` (from index `from` on) in the raw exchange format.
[[nodiscard]] Json raw_spans_json(const SpanLog& log, const std::string& node,
                                  Time now_ns, std::size_t from = 0);
[[nodiscard]] std::optional<RawSpans> raw_spans_from_json(const Json& j,
                                                          std::string* error);

// --- collector-side HTTP ---------------------------------------------------

/// Blocking HTTP/1.0 GET; returns the response body on a 200, nullopt (with
/// prose) on connect/timeout/HTTP failure. Safe from any thread.
[[nodiscard]] std::optional<std::string> http_get(const std::string& host,
                                                  std::uint16_t port,
                                                  const std::string& target,
                                                  int timeout_ms,
                                                  std::string* error);

// --- clock alignment -------------------------------------------------------

/// Collector-process clock: steady ns since first call.
[[nodiscard]] Time collector_now();

struct ClockEstimate {
  Time offset = 0;    // node_time - offset ≈ collector_time
  Time min_rtt = -1;
  int samples = 0;
};

/// `samples` round trips against GET /clock?t0=...; keeps the lowest-RTT
/// midpoint estimate.
[[nodiscard]] std::optional<ClockEstimate> estimate_clock_offset(
    const std::string& host, std::uint16_t port, int samples, int timeout_ms,
    std::string* error);

// --- scrape & merge --------------------------------------------------------

struct ScrapeTarget {
  std::string name;  // "g0_r1" / "client"
  std::string host;
  std::uint16_t port = 0;  // introspection port
};

/// Every process of `cfg` with a nonzero introspection port (replica seats
/// in pid order, then the load generator as "client").
[[nodiscard]] std::vector<ScrapeTarget> introspect_targets(
    const ClusterConfig& cfg);

struct NodeCapture {
  ScrapeTarget target;
  bool ok = false;
  std::string error;
  ClockEstimate clock;
  RawSpans raw;
  Json healthz;  // null when /healthz failed
};

struct MergeResult {
  bool ok = false;
  std::string error;
  std::vector<NodeCapture> nodes;
  std::size_t scraped_ok = 0;
  std::size_t merged_spans = 0;
  std::uint64_t spans_dropped = 0;        // summed over processes
  std::uint64_t monitor_violations = 0;   // summed from /healthz
  std::size_t traced_messages = 0;
  std::size_t complete_messages = 0;
};

/// The merged byzcast-spans-v1 sidecar of a collection: the shared
/// core::spans_sidecar_json document over the merged spans, its monitor
/// section summed over every /healthz that answered, plus a "cluster"
/// object describing the per-process captures and clock corrections.
[[nodiscard]] Json merged_spans_json(
    const core::CriticalPathAnalyzer& analyzer, int f,
    const MergeResult& result);

/// Scrapes every target of `cfg` live (clock offsets, /spans, /healthz),
/// aligns all spans onto the collector timeline and writes
/// `<out_dir>/cluster_spans.json` (merged byzcast-spans-v1 sidecar with a
/// per-node "cluster" section) and `<out_dir>/cluster_trace.json` (Perfetto
/// / Chrome trace events). Requires at least one reachable target; spans
/// from unreachable ones are simply absent (reported per node).
[[nodiscard]] MergeResult collect_and_merge(const ClusterConfig& cfg,
                                            const std::string& out_dir,
                                            int clock_samples = 7,
                                            int timeout_ms = 2000);

}  // namespace byzcast::net
