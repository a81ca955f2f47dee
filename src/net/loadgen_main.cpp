// byzcast-loadgen: closed-loop client driver for a running byzcastd cluster,
// plus the offline dump checker that turns per-process artifacts back into
// a global property verdict.
//
// Load mode (default):
//   byzcast-loadgen --config cluster.json --out-dir run/ \
//       --clients 2 --msgs 100 --global-fraction 0.5 --payload 64
// Issues `msgs` messages per client closed-loop (next message from the
// completion callback), a `global-fraction` share addressed to a random
// pair of target groups and the rest to a single random target. Writes the
// sent dump (sent_client.json), a latency/throughput summary
// (loadgen_summary.json) and a CSV series row (loadgen.csv) to --out-dir.
// Exit 0 iff every message completed before --timeout-s.
//
// Workload mode:
//   byzcast-loadgen --config cluster.json --workload spec.json --out-dir run/
// Drives the cluster OPEN-LOOP from a workload spec
// (configs/workloads/*.json): a wall-clock RateController paces Poisson
// arrivals at the spec's rate (fixed or step schedule; drift-corrected, so
// scheduler jitter does not shave the offered load), destinations come from
// the spec's pattern — including Zipf skew and the per-class local/global
// rate split — and clients_per_group / payload / warmup / duration are read
// from the spec. Emits the same artifacts as load mode. Exit 0 iff every
// issued message completed before the post-run grace timeout.
//
// Check mode:
//   byzcast-loadgen --check-dumps --config cluster.json --dir run/ \
//       [--exclude g0:r1 ...]
// Merges every delivery_*.json / sent_*.json under --dir and runs the five
// atomic-multicast property checkers plus the online-monitor violation sum.
// Exit 0 iff everything holds. --exclude marks seats (killed daemons) whose
// dumps impose no obligations.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "core/multicast.hpp"
#include "net/cluster.hpp"
#include "net/dump.hpp"
#include "workload/generator.hpp"
#include "workload/rate.hpp"
#include "workload/report.hpp"
#include "workload/spec.hpp"

namespace {

using namespace byzcast;

struct Args {
  std::string config;
  std::string out_dir = ".";
  std::string dir;
  std::string workload;  // spec path; non-empty selects workload mode
  bool check_dumps = false;
  int clients = 2;
  int msgs = 100;
  double global_fraction = 0.5;
  std::size_t payload = 64;
  int timeout_s = 120;
  /// Span-tracing sampling period: every n-th message per client is traced.
  /// -1 = auto: 64 when the config enables client introspection, else off.
  int trace_sample_every = -1;
  /// Keep the client process alive (serving its introspection endpoints)
  /// for this long after the run, so a collector can scrape the
  /// client-side end-to-end spans before they vanish with the process.
  int linger_s = 0;
  std::set<std::pair<std::int32_t, int>> excluded;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "byzcast-loadgen: %s needs a value\n",
                     a.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--check-dumps") {
      args.check_dumps = true;
    } else if (a == "--config") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.config = v;
    } else if (a == "--out-dir") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.out_dir = v;
    } else if (a == "--dir") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.dir = v;
    } else if (a == "--workload") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.workload = v;
    } else if (a == "--clients") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.clients = std::atoi(v);
    } else if (a == "--msgs") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.msgs = std::atoi(v);
    } else if (a == "--global-fraction") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.global_fraction = std::atof(v);
    } else if (a == "--payload") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.payload = static_cast<std::size_t>(std::atol(v));
    } else if (a == "--timeout-s") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.timeout_s = std::atoi(v);
    } else if (a == "--trace-sample-every") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.trace_sample_every = std::atoi(v);
    } else if (a == "--linger-s") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.linger_s = std::atoi(v);
    } else if (a == "--exclude") {
      const char* v = value();
      if (!v) return std::nullopt;
      int g = -1;
      int r = -1;
      if (std::sscanf(v, "g%d:r%d", &g, &r) != 2) {
        std::fprintf(stderr,
                     "byzcast-loadgen: --exclude expects gN:rM, got %s\n", v);
        return std::nullopt;
      }
      args.excluded.insert({g, r});
    } else {
      std::fprintf(stderr, "byzcast-loadgen: unknown argument %s\n",
                   a.c_str());
      return std::nullopt;
    }
  }
  if (args.config.empty() || (args.check_dumps && args.dir.empty())) {
    std::fprintf(stderr,
                 "usage: byzcast-loadgen --config FILE [--out-dir DIR "
                 "--clients N --msgs N --global-fraction F --payload B "
                 "--timeout-s S --trace-sample-every N --linger-s S]\n"
                 "       byzcast-loadgen --config FILE --workload SPEC.json "
                 "[--out-dir DIR --timeout-s S]\n"
                 "       byzcast-loadgen --check-dumps --config FILE "
                 "--dir DIR [--exclude gN:rM ...]\n");
    return std::nullopt;
  }
  return args;
}

int run_check(const Args& args, const net::ClusterConfig& cfg) {
  const net::DumpCheckResult r =
      net::check_cluster_dumps(cfg, args.dir, args.excluded);
  std::printf(
      "check-dumps: %s (%zu delivery files, %zu sent files, %zu "
      "deliveries, %zu sent, %llu monitor violations)\n",
      r.ok ? "OK" : "FAIL", r.delivery_files, r.sent_files, r.deliveries,
      r.sent_messages,
      static_cast<unsigned long long>(r.monitor_violations));
  if (!r.ok) std::fprintf(stderr, "check-dumps: %s\n", r.error.c_str());
  return r.ok ? 0 : 1;
}

/// Client-side observability setup shared by both load modes: starts the
/// introspection server when the config assigns the load generator one
/// (client_introspect_port), so a collector can scrape the client's
/// end-to-end spans, and resolves the span-sampling period (explicit flag
/// wins; otherwise sampling defaults on at 1/64 exactly when introspection
/// is on — spans nobody can scrape are wasted memory).
bool setup_client_observability(const net::ClusterConfig& cfg,
                                net::ClusterNode& node) {
  if (cfg.client_introspect_port == 0) return true;
  std::string error;
  if (!node.start_introspect(cfg.client_introspect_port, &error)) {
    std::fprintf(stderr, "byzcast-loadgen: %s\n", error.c_str());
    return false;
  }
  return true;
}

std::uint32_t effective_sample_every(const Args& args,
                                     const net::ClusterConfig& cfg) {
  if (args.trace_sample_every >= 0) {
    return static_cast<std::uint32_t>(args.trace_sample_every);
  }
  return cfg.client_introspect_port != 0 ? 64 : 0;
}

/// --linger-s: hold the process (and its introspection endpoints) open
/// after the run so the collector can still scrape /spans.
void linger(const Args& args) {
  if (args.linger_s <= 0) return;
  std::fprintf(stderr, "byzcast-loadgen: lingering %ds for collector scrapes\n",
               args.linger_s);
  std::this_thread::sleep_for(std::chrono::seconds(args.linger_s));
}

/// Shared artifact emission for both load modes: sent dump (the checker's
/// ground truth for validity), JSON summary and CSV row.
void write_load_artifacts(const Args& args, net::ClusterNode& node,
                          const std::vector<core::Client*>& clients,
                          const std::vector<std::vector<std::vector<GroupId>>>&
                              issued,
                          Json summary, const char* csv_mode,
                          int issued_total, int completed, double elapsed_ms,
                          const LatencyRecorder& latency) {
  net::SentDump dump;
  dump.node = "client";
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const auto& dsts = issued[c];
    for (std::size_t k = 0; k < dsts.size(); ++k) {
      dump.sent.push_back(core::SentMessage{
          MessageId{clients[c]->id(), static_cast<std::uint64_t>(k)},
          dsts[k]});
    }
  }
  std::string error;
  if (!write_json_file(args.out_dir + "/sent_client.json",
                       net::sent_dump_to_json(dump), &error)) {
    std::fprintf(stderr, "byzcast-loadgen: %s\n", error.c_str());
  }

  const auto tr = node.env().transport().stats();
  const double throughput = completed / (elapsed_ms / 1000.0);
  summary.set("completed", Json::number(completed));
  summary.set("total", Json::number(issued_total));
  summary.set("elapsed_ms", Json::number(elapsed_ms));
  summary.set("throughput_msgs_s", Json::number(throughput));
  summary.set("latency_mean_ms", Json::number(latency.mean_ms()));
  summary.set("latency_p50_ms", Json::number(latency.percentile_ms(50)));
  summary.set("latency_p95_ms", Json::number(latency.percentile_ms(95)));
  summary.set("latency_p99_ms", Json::number(latency.percentile_ms(99)));
  summary.set("latency_p999_ms", Json::number(latency.percentile_ms(99.9)));
  summary.set("latency_max_ms", Json::number(latency.percentile_ms(100)));
  summary.set("bytes_sent",
              Json::number(static_cast<double>(tr.bytes_sent)));
  summary.set("bytes_received",
              Json::number(static_cast<double>(tr.bytes_received)));
  summary.set("reconnects",
              Json::number(static_cast<double>(tr.reconnects)));
  summary.set("dropped_queue_full",
              Json::number(static_cast<double>(tr.dropped_queue_full)));
  if (!write_json_file(args.out_dir + "/loadgen_summary.json", summary,
                       &error)) {
    std::fprintf(stderr, "byzcast-loadgen: %s\n", error.c_str());
  }
  workload::write_series_csv(
      args.out_dir + "/loadgen.csv",
      {"mode", "clients", "total", "completed", "elapsed_ms",
       "throughput_msgs_s", "latency_mean_ms", "latency_p95_ms"},
      {{csv_mode, std::to_string(clients.size()),
        std::to_string(issued_total), std::to_string(completed),
        std::to_string(elapsed_ms), std::to_string(throughput),
        std::to_string(latency.mean_ms()),
        std::to_string(latency.percentile_ms(95))}});
}

/// Open-loop workload mode: wall-clock RateControllers pace Poisson
/// arrivals per the spec's schedule; the loop thread owns generators,
/// recorders and the send path, the main thread only decides *when*.
int run_workload_load(const Args& args, const net::ClusterConfig& cfg,
                      const workload::WorkloadSpec& spec) {
  if (spec.schedule.kind == workload::RateSchedule::Kind::kSweep) {
    std::fprintf(stderr,
                 "byzcast-loadgen: sweep schedules are sim-only (run "
                 "bench_sweep); use a fixed or step rate over TCP\n");
    return 2;
  }
  if (!spec.curves.empty()) {
    std::fprintf(stderr,
                 "byzcast-loadgen: curves are sim-only (run bench_sweep); "
                 "a TCP run drives one configuration\n");
    return 2;
  }
  const std::vector<double> rates =
      spec.schedule.kind == workload::RateSchedule::Kind::kStep
          ? spec.schedule.rates
          : std::vector<double>{spec.schedule.fixed_rate};
  for (const double r : rates) {
    if (r <= 0.0) {
      std::fprintf(stderr,
                   "byzcast-loadgen: workload mode needs a positive rate\n");
      return 2;
    }
  }

  net::ClusterNode node(cfg, std::nullopt);
  if (!setup_client_observability(cfg, node)) return 1;
  const std::uint32_t sample_every = effective_sample_every(args, cfg);

  const auto targets = [&cfg] {
    std::vector<GroupId> out;
    for (const net::GroupSpec& g : cfg.groups) {
      if (g.is_target) out.push_back(g.id);
    }
    return out;
  }();
  const int ngroups = static_cast<int>(targets.size());
  const int nclients = spec.base.clients_per_group * ngroups;

  std::vector<core::Client*> clients;
  std::vector<workload::DestinationGenerator> generators;
  std::vector<Rng> rngs;
  for (int c = 0; c < nclients; ++c) {
    clients.push_back(&node.add_client("client" + std::to_string(c)));
    clients.back()->set_trace_sample_every(sample_every);
    generators.emplace_back(spec.base.workload, targets,
                            static_cast<std::size_t>(c % ngroups));
    rngs.push_back(node.env().fork_rng());
  }
  node.connect(cfg);
  node.start();

  const auto connect_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!node.env().transport().all_peers_connected() &&
         std::chrono::steady_clock::now() < connect_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!node.env().transport().all_peers_connected()) {
    std::fprintf(stderr,
                 "byzcast-loadgen: cluster not fully reachable after 30s\n");
    node.stop();
    return 1;
  }

  const Bytes payload(spec.base.payload_size, std::uint8_t{0xab});
  std::vector<std::vector<std::vector<GroupId>>> issued(
      static_cast<std::size_t>(nclients));
  std::atomic<int> done{0};
  std::atomic<int> sent{0};
  LatencyRecorder latency;  // loop-thread-only, like the completions
  latency.set_warmup(spec.base.warmup);

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ns = [&t0] {
    return static_cast<Time>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };

  // Destination class per arrival: kPattern lets the generator mix; a
  // local_share in [0,1] runs two processes with forced classes.
  enum class Cls { kPattern, kLocal, kGlobal };
  const auto fire = [&](Cls cls) {
    node.env().post([&, cls] {
      const int c = sent.fetch_add(1) % nclients;
      auto& gen = generators[static_cast<std::size_t>(c)];
      Rng& rng = rngs[static_cast<std::size_t>(c)];
      std::vector<GroupId> dst;
      switch (cls) {
        case Cls::kPattern: dst = gen.next(rng); break;
        case Cls::kLocal: dst = gen.next_local(rng); break;
        case Cls::kGlobal: dst = gen.next_global(rng); break;
      }
      core::MulticastMessage canon;
      canon.dst = dst;
      canon.canonicalize();
      issued[static_cast<std::size_t>(c)].push_back(std::move(canon.dst));
      clients[static_cast<std::size_t>(c)]->a_multicast(
          std::move(dst), payload,
          [&](const core::MulticastMessage&, Time lat) {
            latency.record(elapsed_ns(), lat);
            done.fetch_add(1);
          });
    });
  };

  // One or two arrival processes, each with drift correction against the
  // shared wall clock; the main thread sleeps to the earliest next arrival.
  struct Proc {
    workload::RateController ctl;
    Cls cls;
    Time next_at;
  };
  const double share = spec.base.open_loop_local_share;
  std::vector<Proc> procs;
  Rng seed_rng(spec.base.seed ^ 0x9e3779b97f4a7c15ULL);
  const auto add_proc = [&](double rate, Cls cls) {
    if (rate <= 0.0) return;
    procs.push_back(Proc{workload::RateController(rate, seed_rng.fork(), 0),
                         cls, 0});
  };
  const auto retarget = [&](double total) {
    std::size_t i = 0;
    const auto apply = [&](double rate) {
      if (rate > 0.0 && i < procs.size()) procs[i++].ctl.set_rate(rate);
    };
    if (share >= 0.0) {
      const double s = std::min(1.0, std::max(0.0, share));
      apply(total * s);
      apply(total * (1.0 - s));
    } else {
      apply(total);
    }
  };
  if (share >= 0.0) {
    const double s = std::min(1.0, std::max(0.0, share));
    add_proc(rates[0] * s, Cls::kLocal);
    add_proc(rates[0] * (1.0 - s), Cls::kGlobal);
  } else {
    add_proc(rates[0], Cls::kPattern);
  }
  for (Proc& p : procs) p.next_at = p.ctl.next_delay(0);

  // Segments: warmup rides the first one; each subsequent step rate gets a
  // full `duration` window of its own.
  const Time segment = spec.base.duration;
  const Time horizon =
      spec.base.warmup + segment * static_cast<Time>(rates.size());
  std::size_t current_rate = 0;
  while (true) {
    const Time now = elapsed_ns();
    if (now >= horizon) break;
    const std::size_t want = now <= spec.base.warmup + segment
        ? 0
        : static_cast<std::size_t>(
              (now - spec.base.warmup - 1) / segment);
    if (want > current_rate && want < rates.size()) {
      current_rate = want;
      retarget(rates[current_rate]);
    }
    Proc* next = &procs[0];
    for (Proc& p : procs) {
      if (p.next_at < next->next_at) next = &p;
    }
    if (next->next_at > now) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(next->next_at - now));
    }
    fire(next->cls);
    next->next_at = elapsed_ns() + next->ctl.next_delay(elapsed_ns());
  }

  // Open loop has in-flight messages at the horizon; grant a grace window
  // for the tail to drain so the dump checker sees every send delivered.
  // `sent` increments on the loop thread as posts execute, so wait until it
  // is both stable (the post queue drained) and matched by completions.
  const auto grace =
      std::chrono::steady_clock::now() + std::chrono::seconds(args.timeout_s);
  int issued_total = sent.load();
  while (std::chrono::steady_clock::now() < grace) {
    const int s = sent.load();
    if (done.load() >= s && s == issued_total) break;
    issued_total = s;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  issued_total = sent.load();
  const double elapsed_ms =
      static_cast<double>(elapsed_ns()) / 1e6;
  linger(args);
  node.stop();

  const int completed = done.load();
  double offered = 0.0;
  std::uint64_t behind = 0;
  for (const Proc& p : procs) behind += p.ctl.behind_ns();
  for (const double r : rates) offered += r;
  offered /= static_cast<double>(rates.size());

  Json summary = Json::object();
  summary.set("mode", Json::string("workload"));
  summary.set("workload", Json::string(spec.name));
  summary.set("offered_rate_msgs_s", Json::number(offered));
  summary.set("rate_behind_ns",
              Json::number(static_cast<double>(behind)));
  write_load_artifacts(args, node, clients, issued, std::move(summary),
                       "workload", issued_total, completed, elapsed_ms,
                       latency);

  std::printf(
      "loadgen[workload %s]: %d/%d completed in %.1f ms (offered %.0f "
      "msg/s, mean %.2f ms, p95 %.2f ms)\n",
      spec.name.c_str(), completed, issued_total, elapsed_ms, offered,
      latency.mean_ms(), latency.percentile_ms(95));
  return completed == issued_total ? 0 : 1;
}

int run_load(const Args& args, const net::ClusterConfig& cfg) {
  net::ClusterNode node(cfg, std::nullopt);
  if (!setup_client_observability(cfg, node)) return 1;
  const std::uint32_t sample_every = effective_sample_every(args, cfg);

  std::vector<core::Client*> clients;
  std::vector<Rng> rngs;
  for (int c = 0; c < args.clients; ++c) {
    clients.push_back(&node.add_client("client" + std::to_string(c)));
    clients.back()->set_trace_sample_every(sample_every);
    rngs.push_back(node.env().fork_rng());
  }
  node.connect(cfg);
  node.start();

  // Wait for the full mesh before offering load, so the first messages are
  // not spent discovering which daemons are still booting.
  const auto connect_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!node.env().transport().all_peers_connected() &&
         std::chrono::steady_clock::now() < connect_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!node.env().transport().all_peers_connected()) {
    std::fprintf(stderr,
                 "byzcast-loadgen: cluster not fully reachable after 30s\n");
    node.stop();
    return 1;
  }

  const auto targets = [&cfg] {
    std::vector<GroupId> out;
    for (const net::GroupSpec& g : cfg.groups) {
      if (g.is_target) out.push_back(g.id);
    }
    return out;
  }();
  const int ngroups = static_cast<int>(targets.size());
  const Bytes payload(args.payload, std::uint8_t{0xab});
  const int total = args.clients * args.msgs;

  std::vector<int> sent_count(static_cast<std::size_t>(args.clients), 0);
  std::vector<std::vector<std::vector<GroupId>>> issued(
      static_cast<std::size_t>(args.clients));
  std::atomic<int> done{0};
  LatencyRecorder latency;  // loop-thread-only, like the completions

  // Closed loop, entirely on the node's loop thread: the completion
  // callback issues the next message directly.
  std::function<void(int)> issue = [&](int c) {
    auto& count = sent_count[static_cast<std::size_t>(c)];
    if (count == args.msgs) return;
    ++count;
    Rng& rng = rngs[static_cast<std::size_t>(c)];
    std::vector<GroupId> dst;
    if (ngroups > 1 && rng.next_bool(args.global_fraction)) {
      const auto a = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(ngroups)));
      auto b = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(ngroups - 1)));
      if (b >= a) ++b;
      dst = {targets[a], targets[b]};
    } else {
      dst = {targets[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(ngroups)))]};
    }
    core::MulticastMessage canon;
    canon.dst = dst;
    canon.canonicalize();
    issued[static_cast<std::size_t>(c)].push_back(std::move(canon.dst));
    clients[static_cast<std::size_t>(c)]->a_multicast(
        std::move(dst), payload,
        [&, c](const core::MulticastMessage&, Time lat) {
          latency.record(node.env().now(), lat);
          done.fetch_add(1);
          issue(c);
        });
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < args.clients; ++c) {
    node.env().post([&issue, c] { issue(c); });
  }
  const auto deadline = t0 + std::chrono::seconds(args.timeout_s);
  while (done.load() < total &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto t1 = std::chrono::steady_clock::now();
  linger(args);
  node.stop();

  const int completed = done.load();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  Json summary = Json::object();
  summary.set("mode", Json::string("closed-loop"));
  summary.set("global_fraction", Json::number(args.global_fraction));
  write_load_artifacts(args, node, clients, issued, std::move(summary),
                       "closed-loop", total, completed, elapsed_ms, latency);

  std::printf(
      "loadgen: %d/%d completed in %.1f ms (%.0f msgs/s, mean %.2f ms, "
      "p95 %.2f ms)\n",
      completed, total, elapsed_ms, completed / (elapsed_ms / 1000.0),
      latency.mean_ms(), latency.percentile_ms(95));
  return completed == total ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) return 2;
  std::string error;
  const auto cfg = net::ClusterConfig::load_file(args->config, &error);
  if (!cfg) {
    std::fprintf(stderr, "byzcast-loadgen: %s\n", error.c_str());
    return 2;
  }
  if (args->check_dumps) return run_check(*args, *cfg);
  if (!args->workload.empty()) {
    const auto spec = workload::load_workload_spec(args->workload, &error);
    if (!spec) {
      std::fprintf(stderr, "byzcast-loadgen: %s\n", error.c_str());
      return 2;
    }
    return run_workload_load(*args, *cfg, *spec);
  }
  return run_load(*args, *cfg);
}
