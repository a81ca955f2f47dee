// The load generator: one driver thread offering a Poisson open loop or
// keeping a fixed number of multicasts in flight (closed loop), with every
// request's destinations drawn from the run seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {

struct OpenStats {
  std::vector<Time> latencies;   // of each measured request, from its due time
  double offered_per_s = 0.0;
  double achieved_per_s = 0.0;   // requests actually issued per second
  double lag_ms = 0.0;           // mean lateness of the issue vs its due time
  double edge_us = 0.0;          // mean driver time inside Cluster::post
};

struct ClosedStats {
  /// Of each measured request; a closed loop has no schedule, so a request
  /// is due when it is submitted.
  std::vector<Time> latencies;
  double peak_per_s = 0.0;       // completions per second over the window
  double cpu_us_per_op = 0.0;    // process user+sys CPU per completion
};

class Load {
 public:
  Load(Cluster& cluster, const Workload& w, std::uint64_t seed);

  /// Issues one multicast from client 0 and waits for its completion; false
  /// on timeout. The system set-up time ends here.
  bool first(double timeout_s);

  OpenStats open_loop(double rate, double seconds, double warmup_s);
  ClosedStats closed_loop(double seconds, double warmup_s);

  /// Waits until every issued multicast completed; false on timeout.
  bool drain(double timeout_s);

  /// Waits until the replicas a-delivered every issued multicast, or until
  /// the delivery count stops moving for `quiet_s`, or `timeout_s` passes.
  void await_deliveries(double quiet_s, double timeout_s);

  // --- after drain() ---------------------------------------------------------
  [[nodiscard]] std::uint64_t issued() const { return issued_.load(); }
  [[nodiscard]] std::uint64_t completed() const { return completed_.load(); }
  /// Multicasts issued so far by each client (they carry seq 0..n-1).
  [[nodiscard]] std::vector<std::uint64_t> issued_per_client() const;
  /// Every issued multicast with its canonical destinations.
  [[nodiscard]] std::vector<byzcast::core::SentMessage> sent();
  [[nodiscard]] std::uint64_t expected_deliveries() const;
  /// Empty when every completion matched an issued message exactly once.
  [[nodiscard]] std::string reply_errors() const;
  /// Mean time of core::Client::a_multicast, in microseconds.
  [[nodiscard]] double client_submit_us() const;

 private:
  struct PerClient {
    byzcast::Rng rng{1};
    byzcast::Bytes payload;
    std::vector<std::vector<GroupId>> dsts;  // canonical, by message seq
    std::vector<std::uint8_t> done;
    std::vector<Time> open_lat;
    std::vector<Time> closed_lat;
    Time submit_ns = 0;
    std::uint64_t submits = 0;
    std::string error;
  };

  enum class Phase : int { kOpen, kClosed };

  /// Client context: draws destinations and a-multicasts one message.
  void issue(int c, Time due, Phase phase, bool record);
  void on_done(int c, const byzcast::core::MulticastMessage& m, Time due,
               Phase phase, bool record);
  [[nodiscard]] std::vector<GroupId> draw_dst(byzcast::Rng& rng) const;

  Cluster& cluster_;
  const Workload& w_;
  std::uint64_t seed_;
  std::vector<PerClient> clients_;
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<bool> reissue_{false};  // closed loop running
  std::atomic<bool> window_{false};   // closed loop measuring
};

}  // namespace perfbench
