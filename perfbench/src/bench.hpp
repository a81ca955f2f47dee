// Shared declarations of the repository benchmark: the workload record, the
// system under test, the delivery oracle, the layer call timings and the
// statistics helpers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/span.hpp"
#include "common/types.hpp"
#include "core/client.hpp"
#include "core/delivery_log.hpp"
#include "core/properties.hpp"
#include "core/tree.hpp"
#include "runtime/parallel_system.hpp"

namespace perfbench {

using byzcast::GroupId;
using byzcast::Time;

struct Workload {
  std::string name;
  std::size_t payload = 64;     // bytes per multicast
  bool pairs = false;           // dst = uniform pair of target groups
  double open_rate = 0.0;       // msg/s of the open-loop phase (0: none)
  int clients = 4;
  int outstanding = 1;          // closed loop: in flight per client
  std::uint32_t trace_sample_every = 8;
};

[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Steady-clock nanoseconds; every driver-side time uses this clock.
[[nodiscard]] Time now_ns();

/// Threads of the system under test.
struct Threads {
  std::size_t workers = 1;    // runtime executor workers (groups pinned to them)
  std::size_t verifiers = 0;  // stage-pool threads (Profile::verify_workers)
};

/// The system under test: a runtime ParallelSystem (an auxiliary root over
/// four target groups, f = 1) with real HMAC-SHA256, read only through public
/// accessors. Client callbacks and post()ed closures run in the client's own
/// runtime worker.
class Cluster {
 public:
  /// `traced` attaches a SpanLog and a metrics registry.
  Cluster(const Workload& w, std::uint64_t seed, Threads threads, bool traced);

  void start() { sys_->start(); }
  /// Stops every runtime thread; afterwards the readers below are safe.
  void stop() { sys_->stop(); }

  [[nodiscard]] int clients() const { return static_cast<int>(clients_.size()); }
  [[nodiscard]] byzcast::core::Client& client(int i) const {
    return *clients_[static_cast<std::size_t>(i)];
  }
  /// Runs `fn` in client `i`'s context from the driver thread. May block on
  /// the client's mailbox backpressure.
  void post(int i, std::function<void()> fn) {
    sys_->env().run_on(client(i).id(), std::move(fn));
  }

  [[nodiscard]] const byzcast::core::OverlayTree& tree() const {
    return sys_->system().tree();
  }
  [[nodiscard]] std::uint64_t total_deliveries() const {
    return sys_->delivery_log().total_deliveries();
  }

  // --- after stop() ---------------------------------------------------------
  /// Every replica's a-deliveries, in recording-time order.
  [[nodiscard]] std::vector<byzcast::core::DeliveryRecord> deliveries() const {
    return sys_->delivery_log().records();
  }
  [[nodiscard]] std::map<GroupId, std::vector<byzcast::ProcessId>>
  correct_replicas() const;
  /// Layer counters read from public accessors, by metric name (totals, not
  /// yet divided by the completed multicasts).
  [[nodiscard]] std::map<std::string, double> counters() const;
  /// Per-actor mailbox/service spans (traced systems only; one record per
  /// wire message, so they are kept to a short window).
  void set_actor_spans(bool on) {
    if (spans_) spans_->set_actor_spans(on);
  }
  /// Null when untraced.
  [[nodiscard]] const byzcast::SpanLog* spans() const { return spans_.get(); }
  [[nodiscard]] std::uint64_t spans_dropped() const {
    return spans_ ? spans_->dropped() : 0;
  }

 private:
  byzcast::MetricsRegistry metrics_;
  std::unique_ptr<byzcast::SpanLog> spans_;
  std::unique_ptr<byzcast::runtime::ParallelSystem> sys_;
  std::vector<byzcast::core::Client*> clients_;
};

// --- oracle ----------------------------------------------------------------

struct OracleResult {
  std::uint64_t expected_deliveries = 0;
  std::uint64_t missing_deliveries = 0;
  int checks = 0;         // safety checks run
  int failed_checks = 0;  // of which failed
  std::uint64_t monitor_violations = 0;
  std::vector<std::string> failures;
};

/// The atomic-multicast oracle over one run's delivery log: the §II-B
/// safety checkers (integrity, prefix order, acyclic order), the streaming
/// monitors replayed over the log (fifo, group agreement, acyclic order),
/// and the count of expected a-deliveries (multicast × correct destination
/// replica) that are missing — validity and agreement as a number.
[[nodiscard]] OracleResult run_oracle(
    const std::vector<byzcast::core::DeliveryRecord>& deliveries,
    const std::vector<byzcast::core::SentMessage>& sent,
    const std::map<GroupId, std::vector<byzcast::ProcessId>>& correct,
    const byzcast::core::OverlayTree& tree);

/// Oracle self-check: a clean synthetic log passes, and the same log with
/// one a-delivery removed is flagged. Returns false (with prose) on failure.
[[nodiscard]] bool oracle_self_test(std::string* why);

// --- layer call timings ------------------------------------------------------

struct LayerSizes {
  std::size_t payload = 64;         // multicast payload bytes
  double mean_batch = 1.0;          // observed requests per decided batch
};

/// Times calls into common/, bft/ and net/ at the workload's sizes, median of
/// several repetitions, within roughly `budget_s` seconds. Keys are metric
/// names (microseconds per call).
[[nodiscard]] std::map<std::string, double> time_layers(const LayerSizes& s,
                                                        std::uint64_t seed,
                                                        double budget_s);

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile in ms of unsorted samples (0 when empty).
[[nodiscard]] double percentile_ms(std::vector<Time> samples, double p);
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
