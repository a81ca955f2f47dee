// Cluster deployment config for the net backend: the overlay tree, the
// endpoint of every replica, protocol knobs and (optionally) a region RTT
// matrix for single-host WAN emulation (the paper's Table I). One JSON file
// describes the whole cluster; every byzcastd and the load generator load
// the same file, which is what makes the cross-process pid/key assignment
// consistent (see env.hpp).
//
// All validation is non-aborting: malformed input yields std::nullopt plus
// prose, never a crash — configs are operator input, not internal state.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/tree.hpp"
#include "net/transport.hpp"
#include "sim/profile.hpp"

namespace byzcast::net {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
  /// HTTP introspection port of the daemon hosting this replica (0 = the
  /// introspection server is disabled for this process).
  std::uint16_t introspect_port = 0;
};

struct GroupSpec {
  GroupId id;
  bool is_target = true;
  std::optional<GroupId> parent;  // nullopt = tree root
  std::string region;             // empty unless WAN emulation is on
  std::vector<Endpoint> replicas; // exactly 3f+1 entries
};

/// Optional Table-I-style WAN emulation: symmetric region RTT matrix in
/// milliseconds; one-way link delay = RTT / 2.
struct WanModel {
  std::vector<std::string> regions;
  std::vector<std::vector<double>> rtt_ms;  // regions × regions
  double intra_region_rtt_ms = 0.0;
};

struct ClusterConfig {
  std::string name;
  int f = 1;
  std::uint64_t seed = 42;

  // Protocol knobs layered over Profile::wallclock().
  std::uint32_t pipeline_depth = 4;
  std::uint32_t batch_min = 1;
  std::uint32_t batch_max = 400;
  Time batch_timeout = 0;
  Time leader_timeout = 2 * kSecond;
  std::uint32_t checkpoint_period = 256;

  TransportOptions transport;

  std::optional<WanModel> wan;
  /// Region the load generator's clients live in (WAN emulation only);
  /// empty = replies to clients travel with zero artificial delay.
  std::string client_region;
  /// Introspection port of the load generator process (0 = disabled). The
  /// collector scrapes it for the client-side end-to-end spans.
  std::uint16_t client_introspect_port = 0;

  std::vector<GroupSpec> groups;

  // --- construction ------------------------------------------------------

  /// Parses and validates. Returns nullopt with `error` prose on any
  /// structural problem (bad JSON shape, duplicate group, parent cycle,
  /// wrong replica count, unknown region, ...).
  [[nodiscard]] static std::optional<ClusterConfig> from_json(
      const Json& j, std::string* error);
  [[nodiscard]] static std::optional<ClusterConfig> parse(
      const std::string& text, std::string* error);
  [[nodiscard]] static std::optional<ClusterConfig> load_file(
      const std::string& path, std::string* error);

  /// Inverse of from_json: to_json(x).from_json == x. Used by the
  /// round-trip test and by tooling that rewrites ports.
  [[nodiscard]] Json to_json() const;

  // --- derived views -----------------------------------------------------

  [[nodiscard]] int replicas_per_group() const { return 3 * f + 1; }
  [[nodiscard]] int replica_count() const {
    return static_cast<int>(groups.size()) * replicas_per_group();
  }

  /// The deterministic pid of replica `index` of `g`: groups ordered by id
  /// (the same std::map order ByzCastSystem allocates in), replicas within
  /// a group in index order.
  [[nodiscard]] ProcessId pid_of(GroupId g, int index) const;
  /// Inverse of pid_of; nullopt for client pids (>= replica_count()).
  [[nodiscard]] std::optional<std::pair<GroupId, int>> replica_of(
      ProcessId pid) const;
  [[nodiscard]] const GroupSpec* group(GroupId g) const;
  [[nodiscard]] const Endpoint* endpoint_of(ProcessId pid) const;

  /// Builds the finalized overlay tree. Call only on a validated config.
  [[nodiscard]] core::OverlayTree tree() const;

  /// Profile::wallclock() with this config's protocol knobs applied.
  [[nodiscard]] sim::Profile profile() const;

  /// One-way artificial delay for a frame leaving a process in
  /// `from_region` towards `to` (a replica pid resolves to its group's
  /// region; anything else resolves to client_region). 0 without WAN.
  [[nodiscard]] Time link_delay(const std::string& from_region,
                                ProcessId to) const;
  /// Region of the process hosting `pid` (client pids → client_region).
  [[nodiscard]] std::string region_of(ProcessId pid) const;

  friend bool operator==(const ClusterConfig&, const ClusterConfig&);

 private:
  [[nodiscard]] std::optional<std::size_t> region_index(
      const std::string& region) const;
};

}  // namespace byzcast::net
