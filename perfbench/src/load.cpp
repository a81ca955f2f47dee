#include "load.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "workload/rate.hpp"

namespace perfbench {

namespace core = byzcast::core;

namespace {

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

void sleep_until_ns(Time t) {
  const Time d = t - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

template <typename Pred>
bool poll(Pred done, double timeout_s,
          Time step = 200 * byzcast::kMicrosecond) {
  const Time deadline = now_ns() + static_cast<Time>(timeout_s * 1e9);
  while (!done()) {
    if (now_ns() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::nanoseconds(step));
  }
  return true;
}

}  // namespace

Load::Load(Cluster& cluster, const Workload& w, std::uint64_t seed)
    : cluster_(cluster), w_(w), seed_(seed) {
  clients_.resize(static_cast<std::size_t>(cluster.clients()));
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    PerClient& pc = clients_[c];
    pc.rng = byzcast::Rng(seed * 1000003 + c);
    pc.payload.resize(w.payload);
    for (auto& b : pc.payload) {
      b = static_cast<std::uint8_t>(pc.rng.next_below(256));
    }
  }
}

std::vector<GroupId> Load::draw_dst(byzcast::Rng& rng) const {
  const auto targets = cluster_.tree().target_groups();
  const auto n = static_cast<std::uint64_t>(targets.size());
  const auto a = rng.next_below(n);
  if (!w_.pairs) return {targets[a]};
  auto b = rng.next_below(n - 1);
  if (b >= a) ++b;
  return {targets[a], targets[b]};
}

void Load::issue(int c, Time due, Phase phase, bool record) {
  PerClient& pc = clients_[static_cast<std::size_t>(c)];
  std::vector<GroupId> dst = draw_dst(pc.rng);
  core::MulticastMessage canon;
  canon.dst = dst;
  canon.canonicalize();
  pc.dsts.push_back(std::move(canon.dst));
  pc.done.push_back(0);
  core::Client& client = cluster_.client(c);
  const Time t0 = now_ns();
  client.a_multicast(std::move(dst), pc.payload,
                     [this, c, due, phase, record](
                         const core::MulticastMessage& m, Time) {
                       on_done(c, m, due, phase, record);
                     });
  pc.submit_ns += now_ns() - t0;
  ++pc.submits;
}

void Load::on_done(int c, const core::MulticastMessage& m, Time due,
                   Phase phase, bool record) {
  const Time latency = now_ns() - due;
  PerClient& pc = clients_[static_cast<std::size_t>(c)];
  const std::uint64_t seq = m.id.seq;
  if (pc.error.empty()) {
    if (!(m.id.origin == cluster_.client(c).id()) || seq >= pc.dsts.size()) {
      pc.error = "completion for a message never issued: " + to_string(m.id);
    } else if (pc.done[seq] != 0) {
      pc.error = "completed twice: " + to_string(m.id);
    } else if (m.dst != pc.dsts[seq] || m.payload != pc.payload) {
      pc.error = "completion does not match the issued message: " +
                 to_string(m.id);
    }
  }
  if (seq < pc.done.size()) pc.done[seq] = 1;
  if (record) {
    (phase == Phase::kOpen ? pc.open_lat : pc.closed_lat).push_back(latency);
  }
  if (phase == Phase::kClosed && reissue_.load()) {
    issued_.fetch_add(1);
    issue(c, now_ns(), Phase::kClosed, window_.load());
  }
  completed_.fetch_add(1);
}

bool Load::first(double timeout_s) {
  const std::uint64_t target = issued_.fetch_add(1) + 1;
  cluster_.post(0, [this] { issue(0, now_ns(), Phase::kOpen, false); });
  return poll([&] { return completed_.load() >= target; }, timeout_s,
              20 * byzcast::kMicrosecond);
}

OpenStats Load::open_loop(double rate, double seconds, double warmup_s) {
  OpenStats out;
  out.offered_per_s = rate;
  const Time start = now_ns();
  const Time warm_end = start + static_cast<Time>(warmup_s * 1e9);
  const Time end = start + static_cast<Time>(seconds * 1e9);
  byzcast::workload::RateController rc(
      rate, byzcast::Rng(seed_ ^ 0x9e3779b97f4a7c15ULL), start);
  std::uint64_t measured = 0;
  Time lag_ns = 0;
  Time edge_ns = 0;
  int next = 0;
  for (;;) {
    const Time now = now_ns();
    const std::uint64_t behind = rc.behind_ns();
    const Time delay = rc.next_delay(now);
    // A late driver gets 0: the arrival was due when the controller says,
    // and its latency counts from then.
    const Time due =
        delay > 0 ? now + delay
                  : now - static_cast<Time>(rc.behind_ns() - behind);
    if (due >= end) break;
    sleep_until_ns(due);
    const int c = next;
    next = (next + 1) % cluster_.clients();
    const bool record = due >= warm_end;
    issued_.fetch_add(1);
    const Time posted = now_ns();
    cluster_.post(c, [this, c, due, record] {
      issue(c, due, Phase::kOpen, record);
    });
    const Time back = now_ns();
    if (record) {
      ++measured;
      lag_ns += posted - due;
      edge_ns += back - posted;
    }
  }
  const double window_s = seconds - warmup_s;
  out.achieved_per_s = static_cast<double>(measured) / window_s;
  if (measured > 0) {
    const auto n = static_cast<double>(measured);
    out.lag_ms = static_cast<double>(lag_ns) / 1e6 / n;
    out.edge_us = static_cast<double>(edge_ns) / 1e3 / n;
  }
  drain(10.0);
  for (PerClient& pc : clients_) {
    out.latencies.insert(out.latencies.end(), pc.open_lat.begin(),
                         pc.open_lat.end());
    pc.open_lat.clear();
  }
  return out;
}

ClosedStats Load::closed_loop(double seconds, double warmup_s) {
  ClosedStats out;
  const Time start = now_ns();
  const Time end = start + static_cast<Time>(seconds * 1e9);
  reissue_.store(true);
  window_.store(false);
  for (int c = 0; c < cluster_.clients(); ++c) {
    issued_.fetch_add(static_cast<std::uint64_t>(w_.outstanding));
    cluster_.post(c, [this, c] {
      for (int k = 0; k < w_.outstanding; ++k) {
        issue(c, now_ns(), Phase::kClosed, window_.load());
      }
    });
  }
  sleep_until_ns(start + static_cast<Time>(warmup_s * 1e9));
  window_.store(true);
  // One rate over the whole window, not a median of short windows: on a
  // shared host the per-window rate is bimodal (the host's CPUs run fast or
  // slow for seconds at a time), and a median jumps between the two modes
  // where a mean averages over them.
  const double cpu0 = cpu_seconds();
  const Time t0 = now_ns();
  const std::uint64_t done0 = completed_.load();
  sleep_until_ns(end);
  const double cpu1 = cpu_seconds();
  const Time t1 = now_ns();
  const std::uint64_t done = completed_.load();
  window_.store(false);
  reissue_.store(false);
  out.peak_per_s =
      static_cast<double>(done - done0) * 1e9 / static_cast<double>(t1 - t0);
  if (done > done0) {
    out.cpu_us_per_op = (cpu1 - cpu0) * 1e6 / static_cast<double>(done - done0);
  }
  drain(10.0);
  for (PerClient& pc : clients_) {
    out.latencies.insert(out.latencies.end(), pc.closed_lat.begin(),
                         pc.closed_lat.end());
    pc.closed_lat.clear();
  }
  return out;
}

bool Load::drain(double timeout_s) {
  return poll([this] { return completed_.load() == issued_.load(); },
              timeout_s);
}

void Load::await_deliveries(double quiet_s, double timeout_s) {
  const std::uint64_t expected = expected_deliveries();
  const Time deadline = now_ns() + static_cast<Time>(timeout_s * 1e9);
  std::uint64_t last = cluster_.total_deliveries();
  Time stable_since = now_ns();
  while (last < expected && now_ns() < deadline &&
         now_ns() - stable_since < static_cast<Time>(quiet_s * 1e9)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t d = cluster_.total_deliveries();
    if (d != last) {
      last = d;
      stable_since = now_ns();
    }
  }
}

std::vector<std::uint64_t> Load::issued_per_client() const {
  std::vector<std::uint64_t> out;
  for (const PerClient& pc : clients_) out.push_back(pc.dsts.size());
  return out;
}

std::vector<core::SentMessage> Load::sent() {
  std::vector<core::SentMessage> out;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    const auto origin = cluster_.client(static_cast<int>(c)).id();
    const auto& dsts = clients_[c].dsts;
    for (std::size_t k = 0; k < dsts.size(); ++k) {
      out.push_back(core::SentMessage{
          byzcast::MessageId{origin, static_cast<std::uint64_t>(k)}, dsts[k]});
    }
  }
  return out;
}

std::uint64_t Load::expected_deliveries() const {
  std::uint64_t n = 0;
  for (const PerClient& pc : clients_) {
    for (const auto& d : pc.dsts) n += d.size() * 4;  // 3f+1 replicas, f=1
  }
  return n;
}

std::string Load::reply_errors() const {
  for (const PerClient& pc : clients_) {
    if (!pc.error.empty()) return pc.error;
  }
  return {};
}

double Load::client_submit_us() const {
  Time ns = 0;
  std::uint64_t n = 0;
  for (const PerClient& pc : clients_) {
    ns += pc.submit_ns;
    n += pc.submits;
  }
  return n == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(n);
}

}  // namespace perfbench
