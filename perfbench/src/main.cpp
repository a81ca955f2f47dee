// byzcast_perfbench: the repository benchmark.
//
//   byzcast_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   byzcast_perfbench --self-test
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer ones. The last stdout line is the result
// object; the line before it ("# info ...") records the configuration.
// Workloads and why each exists are listed in BENCHMARK.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/buffer.hpp"
#include "common/json.hpp"
#include "core/critical_path.hpp"
#include "load.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// Every multicast is 64 B except local_4k's; f = 1 throughout. Open-loop
// rates sit at a tenth or less of each workload's closed-loop peak on a
// 4-core host. Each group's four replicas share one worker thread (two or
// three groups to a worker), so at higher rates the busiest worker queues
// enough that latency follows the host's load from run to run rather than
// the code.
// The closed loop keeps 16 multicasts in flight per client, 64 in all. On a
// 4-core host, global rose from 1.5k to 2.2k msg/s between 4 and 16 and was
// flat beyond; local kept rising (10.6k to 14k msg/s from 16 to 32) only
// because deeper backlogs make larger consensus batches.
// Traced runs sample one multicast in `trace_sample_every`: a few hundred
// complete critical paths per run while the span log stays within bounds.
const Workload kWorkloads[] = {
    {"local", 64, false, 1000.0, 4, 16, 4},
    {"global", 64, true, 100.0, 4, 16, 2},
    {"local_4k", 4096, false, 250.0, 4, 16, 2},
};

/// Threads of the system under test: fixed, and never more than the host's
/// CPUs.
constexpr std::size_t kMaxThreads = 4;

/// Set-ups timed per untraced run; setup_s is their median. One takes a
/// few milliseconds, mostly thread start-up and the first round trip.
constexpr int kSetups = 25;

struct Args {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "byzcast_perfbench: %s\nusage: byzcast_perfbench --workload "
               "<local|global|local_4k> --seed <n> --seconds <s> "
               "--trace <0|1>\n       byzcast_perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.w = find_workload(v);
      if (a.w == nullptr) usage(("unknown workload " + v).c_str());
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
      if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (!a.self_test && a.w == nullptr) usage("--workload is required");
  return a;
}

/// Half the threads are runtime workers, the other half verify MACs and batch
/// digests in the stage pool. With one worker per CPU instead, the worker
/// that hosts the auxiliary root beside a target group is the bottleneck on
/// `global`, and peak throughput follows the speed of the one CPU it runs
/// on; on a shared host each CPU's speed swings by a third over seconds. The
/// pool spreads most of the HMAC work over the CPUs: on a 4-core host it
/// roughly halved the second-to-second swing of `global`'s rate (coefficient
/// of variation 0.19 -> 0.09-0.13) and doubled its throughput.
Threads system_threads() {
  const std::size_t n = std::min<std::size_t>(
      kMaxThreads, std::max(1u, std::thread::hardware_concurrency()));
  const std::size_t workers = std::max<std::size_t>(1, n / 2);
  return {workers, n - workers};
}

/// One system under test from construction to its oracle verdict. The
/// cluster is declared last so it dies first: its threads stop before the
/// load their callbacks report to goes away.
struct System {
  std::unique_ptr<Load> load;
  std::unique_ptr<Cluster> cluster;
  std::vector<double> setup_s;
  std::uint64_t materializations_at_build = 0;
};

/// Builds `setups` systems in turn, timing each from construction to its
/// first completed multicast; the last one is kept for measuring.
bool bring_up(const Workload& w, std::uint64_t seed, bool traced, int setups,
              System& out) {
  for (int k = 0; k < setups; ++k) {
    out.cluster.reset();
    out.load.reset();
    out.materializations_at_build = byzcast::Buffer::materializations();
    const Time t0 = now_ns();
    out.cluster =
        std::make_unique<Cluster>(w, seed, system_threads(), traced);
    out.load = std::make_unique<Load>(*out.cluster, w, seed);
    out.cluster->start();
    if (!out.load->first(30.0)) return false;
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (k + 1 < setups) out.cluster->stop();
  }
  return true;
}

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::string reply_error;
  OracleResult oracle;
  std::map<std::string, double> counters;
  std::uint64_t materializations = 0;
};

/// Drains the load, lets the replicas finish delivering, stops the system and
/// runs the oracle over its delivery log.
Verdict finish(System& s) {
  Verdict v;
  s.load->drain(10.0);
  s.load->await_deliveries(1.0, 15.0);
  s.cluster->stop();
  v.attempted = s.load->issued();
  v.completed = s.load->completed();
  v.reply_error = s.load->reply_errors();
  v.oracle = run_oracle(s.cluster->deliveries(), s.load->sent(),
                        s.cluster->correct_replicas(), s.cluster->tree());
  v.counters = s.cluster->counters();
  v.materializations =
      byzcast::Buffer::materializations() - s.materializations_at_build;
  return v;
}

/// A run is correct when every issued multicast completed with the reply it
/// was issued with, every correct destination replica a-delivered it, and
/// every safety check passed.
bool clean(const Verdict& v) {
  return v.reply_error.empty() && v.completed == v.attempted &&
         v.oracle.missing_deliveries == 0 && v.oracle.failed_checks == 0;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double ms(Time t) { return byzcast::to_ms(t); }

/// p50 (ms) of one per-message span kind; 0 when the run recorded none.
double span_p50_ms(const byzcast::SpanLog& log, byzcast::SpanKind kind) {
  std::vector<Time> d;
  for (const byzcast::Span& s : log.spans()) {
    if (s.kind == kind && s.msg.origin.valid()) d.push_back(s.end - s.begin);
  }
  return percentile_ms(std::move(d), 50.0);
}

/// Durations of one infrastructure span kind (per-actor mailbox and service
/// intervals of every wire message, consensus instances), recorded only while
/// actor spans are on.
std::vector<Time> actor_spans(const byzcast::SpanLog& log,
                              byzcast::SpanKind kind) {
  std::vector<Time> d;
  for (const byzcast::Span& s : log.spans()) {
    if (s.kind == kind && !s.msg.origin.valid()) d.push_back(s.end - s.begin);
  }
  return d;
}

double mean_us(const std::vector<Time>& d) {
  if (d.empty()) return 0.0;
  double sum = 0;
  for (const Time t : d) sum += static_cast<double>(t);
  return sum / 1e3 / static_cast<double>(d.size());
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// A number as the result line carries it: non-finite values (an empty
/// ratio) would make the line invalid JSON, so they read 0.
byzcast::Json number(double v) {
  return byzcast::Json::number(std::isfinite(v) ? v : 0.0);
}

/// Json::dump() indents; each output record must fit on one line.
std::string one_line(const byzcast::Json& j) {
  std::string out;
  bool line_start = false;
  for (const char ch : j.dump()) {
    if (ch == '\n') {
      line_start = true;
    } else if (!(line_start && ch == ' ')) {
      line_start = false;
      out += ch;
    }
  }
  return out;
}

/// Prints the configuration record, then the result as the last line.
void emit(const byzcast::Json& info, bool correct, std::uint64_t attempted,
          std::uint64_t failed, const std::vector<Metric>& metrics) {
  auto result = byzcast::Json::object();
  result.set("correct", byzcast::Json::boolean(correct));
  result.set("attempted", byzcast::Json::number(attempted));
  result.set("failed", byzcast::Json::number(failed));
  auto values = byzcast::Json::object();
  for (const Metric& m : metrics) {
    auto v = byzcast::Json::object();
    v.set("value", number(m.value));
    v.set("unit", byzcast::Json::string(m.unit));
    values.set(m.name, std::move(v));
  }
  result.set("metrics", std::move(values));
  std::printf("# info %s\n%s\n", one_line(info).c_str(),
              one_line(result).c_str());
  std::fflush(stdout);
}

/// Safety share: the fraction of oracle checks that passed (1 when clean).
double safety_share(const OracleResult& o) {
  return o.checks == 0 ? 0.0
                       : static_cast<double>(o.checks - o.failed_checks) /
                             static_cast<double>(o.checks);
}

double delivered_share(const OracleResult& o) {
  return o.expected_deliveries == 0
             ? 0.0
             : 1.0 - static_cast<double>(o.missing_deliveries) /
                         static_cast<double>(o.expected_deliveries);
}

/// A run's figures are valid when the generator kept its schedule: it ran
/// late by under 1 ms on average, and its issue rate is within 20% of the
/// offered one (several standard deviations of a Poisson count at these
/// rates). An invalid run is flagged in the info record; its outputs can
/// still be correct, so it does not clear `correct`.
bool generator_valid(const OpenStats& o) {
  if (o.offered_per_s <= 0.0) return true;
  const double share = o.achieved_per_s / o.offered_per_s;
  return share > 0.8 && share < 1.2 && o.lag_ms < 1.0;
}

byzcast::Json base_info(const Args& a) {
  using byzcast::Json;
  const Workload& w = *a.w;
  auto info = Json::object();
  info.set("workload", Json::string(w.name));
  info.set("seed", Json::number(a.seed));
  info.set("seconds", Json::number(a.seconds));
  info.set("trace", Json::boolean(a.trace));
  info.set("backend", Json::string("runtime"));
  info.set("mac", Json::string("hmac-sha256"));
  info.set("nproc", Json::number(std::thread::hardware_concurrency()));
  info.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  info.set("runtime_workers", Json::number(system_threads().workers));
  info.set("verify_workers", Json::number(system_threads().verifiers));
  info.set("driver_threads", Json::number(1));
  info.set("clients", Json::number(w.clients));
  info.set("outstanding_per_client", Json::number(w.outstanding));
  info.set("open_rate_per_s", Json::number(w.open_rate));
  info.set("payload_bytes", Json::number(w.payload));
  return info;
}

/// The oracle's and the reply check's findings, for the info record.
void add_verdict(byzcast::Json& info, const Verdict& v) {
  using byzcast::Json;
  info.set("safety_violations", Json::number(v.oracle.failed_checks));
  info.set("missing_deliveries", Json::number(v.oracle.missing_deliveries));
  auto failures = Json::array();
  for (const std::string& f : v.oracle.failures) {
    failures.push_back(Json::string(f));
  }
  if (!v.reply_error.empty()) {
    failures.push_back(Json::string("replies: " + v.reply_error));
  }
  info.set("failures", std::move(failures));
}

int run_untraced(const Args& a) {
  const Workload& w = *a.w;
  System sys;
  auto info = base_info(a);
  if (!bring_up(w, a.seed, false, kSetups, sys)) {
    std::fprintf(stderr, "set-up: first multicast never completed\n");
    return 1;
  }
  // Untraced runs measure the closed loop only: open-loop latency on a
  // shared host swings further from run to run than any useful bound, so it
  // is reported per layer from the traced run's untraced reference.
  const ClosedStats closed =
      sys.load->closed_loop(a.seconds, 0.05 * a.seconds);
  const Verdict v = finish(sys);
  add_verdict(info, v);
  auto c = v.counters;
  info.set("requests_per_batch",
           number(ratio(c["bft.executed"], c["bft.decided"])));
  emit(info, clean(v), v.attempted, v.attempted - v.completed,
       {
           {"peak_msgs_s", closed.peak_per_s, "msg/s"},
           {"cpu_us_per_op", closed.cpu_us_per_op, "us"},
           {"completed_share", ratio(static_cast<double>(v.completed),
                                     static_cast<double>(v.attempted)),
            "share"},
           {"delivered_share", delivered_share(v.oracle), "share"},
           {"safety_pass_share", safety_share(v.oracle), "share"},
           {"setup_s", median(sys.setup_s), "s"},
       });
  return 0;
}

/// Critical-path components as means over the complete breakdowns: unlike
/// percentiles, means add up, so the four sum to the mean end-to-end latency.
struct CriticalPath {
  std::size_t complete = 0;
  std::size_t inexact = 0;  // components not summing to the measured latency
  double end_to_end_ms = 0, queueing_ms = 0, cpu_ms = 0, network_ms = 0,
         quorum_wait_ms = 0;
};

CriticalPath critical_path(const byzcast::SpanLog& spans) {
  CriticalPath out;
  const byzcast::core::CriticalPathAnalyzer cp(spans, {.f = 1});
  byzcast::core::Components sum;
  Time e2e = 0;
  for (const auto& m : cp.messages()) {
    if (!m.complete) continue;
    ++out.complete;
    if (m.totals.total() != m.end_to_end) ++out.inexact;
    sum += m.totals;
    e2e += m.end_to_end;
  }
  if (out.complete > 0) {
    const auto mean = [&](Time t) {
      return ms(t) / static_cast<double>(out.complete);
    };
    out.end_to_end_ms = mean(e2e);
    out.queueing_ms = mean(sum.queueing);
    out.cpu_ms = mean(sum.cpu);
    out.network_ms = mean(sum.network);
    out.quorum_wait_ms = mean(sum.quorum_wait);
  }
  return out;
}

int run_traced(const Args& a) {
  const Workload& w = *a.w;
  auto info = base_info(a);
  const double warmup = 0.05 * a.seconds;
  const double closed_s = 0.2 * a.seconds;
  // Actor spans (one mailbox and one service span per wire message) are on
  // only in this open-loop phase, whose fixed rate bounds their number.
  const double open_s = 0.25 * a.seconds + warmup;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  const auto tally = [&](const Verdict& v) {
    attempted += v.attempted;
    failed += v.attempted - v.completed;
    correct = correct && clean(v);
  };

  // Untraced reference with the same phases: the open-loop latency, and the
  // peak the tracing overhead is measured against.
  double untraced_peak = 0.0;
  OpenStats open;
  std::vector<Time> lat;
  {
    System ref;
    if (!bring_up(w, a.seed, false, 1, ref)) return 1;
    open = ref.load->open_loop(w.open_rate, open_s, warmup);
    untraced_peak = ref.load->closed_loop(closed_s, warmup).peak_per_s;
    lat = std::move(open.latencies);
    tally(finish(ref));
  }

  // The traced system: the open loop with actor spans on, then a closed loop
  // for the traced peak. Span metrics cover only the open loop's multicasts
  // and wire messages.
  System sys;
  if (!bring_up(w, a.seed, true, 1, sys)) return 1;
  sys.cluster->set_actor_spans(true);
  sys.load->open_loop(w.open_rate, open_s, warmup);
  sys.cluster->set_actor_spans(false);
  const std::vector<std::uint64_t> boundary = sys.load->issued_per_client();
  const double traced_peak = sys.load->closed_loop(closed_s, warmup).peak_per_s;
  const Verdict v = finish(sys);
  tally(v);
  const bool valid = generator_valid(open);
  const std::uint64_t dropped = sys.cluster->spans_dropped();
  const byzcast::SpanLog& all_spans = *sys.cluster->spans();
  byzcast::SpanLog spans(all_spans.spans().size() + 1);
  for (const byzcast::Span& s : all_spans.spans()) {
    for (int c = 0; c < sys.cluster->clients(); ++c) {
      if (s.msg.origin == sys.cluster->client(c).id() &&
          s.msg.seq < boundary[static_cast<std::size_t>(c)]) {
        spans.record(s);
      }
    }
  }
  const CriticalPath cp = critical_path(spans);
  correct = correct && dropped == 0 && cp.inexact == 0 &&
            cp.complete > 0;

  auto c = v.counters;
  const auto ops = static_cast<double>(v.completed);
  const double mean_batch = ratio(c["bft.executed"], c["bft.decided"]);
  auto layers = time_layers({w.payload, mean_batch}, a.seed, 0.1 * a.seconds);
  const double max_ms =
      lat.empty() ? 0.0 : ms(*std::max_element(lat.begin(), lat.end()));

  using byzcast::Json;
  info.set("generator_valid", Json::boolean(valid));
  info.set("spans", Json::number(all_spans.spans().size()));
  info.set("spans_dropped", Json::number(dropped));
  info.set("complete_breakdowns", Json::number(cp.complete));
  info.set("inexact_breakdowns", Json::number(cp.inexact));
  info.set("untraced_peak_msgs_s", number(untraced_peak));
  info.set("traced_peak_msgs_s", number(traced_peak));
  info.set("request_bytes", number(layers["layers.request_bytes"]));
  info.set("batch_len", number(layers["layers.batch_len"]));
  add_verdict(info, v);

  using byzcast::SpanKind;
  std::vector<Metric> m = {
      {"common.hmac_us", layers["common.hmac_us"], "us"},
      {"common.sha256_batch_us", layers["common.sha256_batch_us"], "us"},
      {"common.mac_verify_cold_us", layers["common.mac_verify_cold_us"], "us"},
      {"common.mac_verify_memo_us", layers["common.mac_verify_memo_us"], "us"},
      {"common.codec_request_us", layers["common.codec_request_us"], "us"},
      {"common.codec_propose_us", layers["common.codec_propose_us"], "us"},
      {"common.mac_memo_hits_per_op", ratio(c["common.mac_memo_hits"], ops),
       "count"},
      {"common.buffer_materializations_per_op",
       ratio(static_cast<double>(v.materializations), ops), "count"},
      {"bft.requests_per_batch", mean_batch, "count"},
      {"bft.views_installed", c["bft.views_installed"], "count"},
      {"bft.state_transfers", c["bft.state_transfers"], "count"},
      {"bft.rejected_requests", c["bft.rejected_requests"], "count"},
      {"bft.stale_window_drops", c["bft.stale_window_drops"], "count"},
      {"bft.consensus_queue_ms", span_p50_ms(spans, SpanKind::kConsensusQueue),
       "ms"},
      {"bft.write_quorum_ms", span_p50_ms(spans, SpanKind::kWriteQuorum), "ms"},
      {"bft.accept_quorum_ms", span_p50_ms(spans, SpanKind::kAcceptQuorum),
       "ms"},
      {"bft.execute_ms", span_p50_ms(spans, SpanKind::kExecute), "ms"},
      {"bft.admission_ms", span_p50_ms(spans, SpanKind::kCpuService), "ms"},
      {"core.orderings_per_op", ratio(c["bft.executed"], ops), "count"},
      {"core.relays_per_op", ratio(c["core.relays"], ops), "count"},
      {"core.order_wait_ms", span_p50_ms(spans, SpanKind::kOrderWait), "ms"},
      {"core.client_submit_us", sys.load->client_submit_us(), "us"},
      {"latency.p50_ms", percentile_ms(lat, 50.0), "ms"},
      {"latency.p95_ms", percentile_ms(lat, 95.0), "ms"},
      {"latency.p99_ms", percentile_ms(lat, 99.0), "ms"},
      {"core.p999_ms", percentile_ms(lat, 99.9), "ms"},
      {"core.max_ms", max_ms, "ms"},
      {"net.frame_codec_us", layers["net.frame_codec_us"], "us"},
      {"cp.end_to_end_ms", cp.end_to_end_ms, "ms"},
      {"cp.queueing_ms", cp.queueing_ms, "ms"},
      {"cp.cpu_ms", cp.cpu_ms, "ms"},
      {"cp.network_ms", cp.network_ms, "ms"},
      {"cp.quorum_wait_ms", cp.quorum_wait_ms, "ms"},
      {"trace.overhead_share", 1.0 - ratio(traced_peak, untraced_peak),
       "share"},
      {"oracle.failed_share",
       ratio(static_cast<double>(v.attempted - v.completed),
             static_cast<double>(v.attempted)),
       "share"},
      {"oracle.missing_delivery_share", 1.0 - delivered_share(v.oracle),
       "share"},
      {"oracle.safety_violations", static_cast<double>(v.oracle.failed_checks),
       "count"},
      {"runtime.wire_msgs_per_op", ratio(c["runtime.wire_msgs"], ops),
       "count"},
      {"runtime.wire_bytes_per_op", ratio(c["runtime.wire_bytes"], ops), "B"},
      {"runtime.dropped", c["runtime.dropped"], "count"},
      {"runtime.mailbox_wait_ms", span_p50_ms(spans, SpanKind::kMailboxWait),
       "ms"},
      {"runtime.net_transit_ms", span_p50_ms(spans, SpanKind::kNetTransit),
       "ms"},
      {"runtime.actor_mailbox_us",
       1e3 * percentile_ms(actor_spans(all_spans, SpanKind::kActorMailbox),
                           50.0),
       "us"},
      {"runtime.actor_service_us",
       mean_us(actor_spans(all_spans, SpanKind::kActorService)), "us"},
      {"bft.instance_ms",
       percentile_ms(actor_spans(all_spans, SpanKind::kConsensusInstance),
                     50.0),
       "ms"},
      {"runtime.backpressure_us", open.edge_us, "us"},
      {"workload.generator_lag_ms", open.lag_ms, "ms"},
      {"workload.achieved_rate_share",
       ratio(open.achieved_per_s, open.offered_per_s), "share"},
  };
  emit(info, correct, attempted, failed, m);
  return 0;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double percentile_ms(std::vector<Time> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return static_cast<double>(samples[rank - 1]) / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse(argc, argv);
  if (a.self_test) {
    std::string why;
    if (!perfbench::oracle_self_test(&why)) {
      std::fprintf(stderr, "oracle self-test failed: %s\n", why.c_str());
      return 1;
    }
    std::printf("oracle self-test passed\n");
    return 0;
  }
  return a.trace ? perfbench::run_traced(a) : perfbench::run_untraced(a);
}
