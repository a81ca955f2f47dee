// Experiment harness: builds one of the three protocols of §V-A3 (ByzCast
// over a 2- or 3-level tree, the non-genuine Baseline, or plain BFT-SMaRt =
// one atomic broadcast group), drives it with closed-loop clients in a LAN
// or the paper's 4-region EC2 WAN, and reports throughput and latency
// statistics split by message class (local / global).
#pragma once

#include <cstdint>
#include <memory>

#include "common/monitor.hpp"
#include "common/span.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "workload/generator.hpp"

namespace byzcast::workload {

enum class Protocol {
  kByzCast2Level,
  kByzCast3Level,
  kBaseline,
  kBftSmart,  // single group, plain atomic broadcast (reference)
};

enum class Environment { kLan, kWan };

[[nodiscard]] const char* to_string(Protocol p);
[[nodiscard]] const char* to_string(Environment e);

struct ExperimentConfig {
  Protocol protocol = Protocol::kByzCast2Level;
  Environment environment = Environment::kLan;
  /// Number of target groups (ignored by kBftSmart, which always runs one).
  int num_groups = 2;
  int f = 1;
  /// Closed-loop clients per target group (kBftSmart: total clients =
  /// clients_per_group * num_groups, all on its single group).
  int clients_per_group = 200;
  GeneratorConfig workload;
  /// 0 = closed loop (the paper's clients). > 0 = open loop: the client
  /// population offers this many messages/second in aggregate (Poisson),
  /// regardless of completions — how Table II states its F(d) rates, and
  /// what exposes an overloaded tree layout in Fig. 3. Not supported for
  /// kBftSmart.
  double open_loop_total_rate = 0.0;
  /// Per-class rate split for open-loop runs. When in [0,1], the offered
  /// load is produced by TWO Poisson processes — local at `share * total`,
  /// global at `(1-share) * total` — and each arrival forces its class via
  /// the generator's next_local/next_global draws, so the local:global mix
  /// is a first-class experimental knob instead of a side effect of the
  /// pattern. < 0 (default) keeps the pattern's own mix under one aggregate
  /// process.
  double open_loop_local_share = -1.0;
  std::size_t payload_size = 64;  // the paper's 64-byte messages
  Time warmup = 1 * kSecond;
  Time duration = 4 * kSecond;  // measurement window after warmup
  std::uint64_t seed = 42;
  /// Causal span tracing (docs/ARCHITECTURE.md, "Observability: spans,
  /// critical path, invariant monitors"): sampled client messages carry a
  /// trace flag on the wire and every Algorithm-1 stage stamps a Span, from
  /// which CriticalPathAnalyzer decomposes end-to-end latency. Off by
  /// default. Its wall-clock cost is perfbench's trace.overhead_share
  /// (docs/ARCHITECTURE.md, "Cost and the sampling knob").
  bool span_tracing = false;
  /// Trace every n-th message per client (1 = all). This is the overhead
  /// knob: production-style runs keep tracing always-on at sparse sampling,
  /// e.g. 1/64.
  std::uint32_t span_sample_every = 1;
  std::size_t span_capacity = SpanLog::kDefaultCapacity;
  /// Online invariant monitors (per-sender FIFO, group agreement, acyclic
  /// prefix order across groups, bounded pending copies) attached as
  /// delivery observers; ExperimentResult::monitors counts the violations.
  bool monitors = false;
  /// Bound for the pending-copies monitor (0 = that check disabled).
  std::size_t monitor_pending_bound = 0;
  /// Consensus-pipelining / batching overrides applied on top of the
  /// environment's profile preset; 0 keeps the preset's value. Depth 1 is
  /// the sequential one-instance-at-a-time protocol; batch_min == batch_max
  /// freezes the adaptive batch target (fixed batching).
  std::uint32_t pipeline_depth = 0;
  std::uint32_t batch_max = 0;
  std::uint32_t batch_min = 0;
  /// Batch assembly window override; 0 keeps the preset's window.
  Time batch_timeout = 0;
  // --- stage pipeline (intra-group vertical scaling) -----------------------
  /// Verify-stage worker pool size per replica (0 = verification inline on
  /// the order stage — the pre-stage behaviour, bit-identical).
  std::uint32_t verify_workers = 0;
  /// Execute/reply-stage shard count (0 = execution inline).
  std::uint32_t exec_shards = 0;
};

struct ExperimentResult {
  double throughput = 0.0;  // client completions / second in the window
  double throughput_local = 0.0;
  double throughput_global = 0.0;
  LatencyRecorder latency_all;
  LatencyRecorder latency_local;
  LatencyRecorder latency_global;
  std::uint64_t completed = 0;       // total completions (whole run)
  std::uint64_t a_deliveries = 0;    // ByzCast/Baseline only
  /// Populated when config.span_tracing / config.monitors are on
  /// (shared_ptr keeps the result cheaply copyable); null otherwise.
  std::shared_ptr<SpanLog> spans;
  std::shared_ptr<MonitorHub> monitors;
};

[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace byzcast::workload
