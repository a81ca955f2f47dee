// Run artifacts for the multi-process deployment. Each byzcastd writes a
// delivery dump (its replica's a-delivery sequence plus monitor verdicts)
// on shutdown; the load generator writes a sent dump (every message it
// a-multicast with its canonical destinations). check_cluster_dumps() merges
// all dumps from a directory and runs the five §II-B property checkers over
// the reassembled global log — the cross-process analogue of what the
// in-process harnesses do against a shared DeliveryLog.
//
// Timestamps in dumps are per-process clocks and never compared across
// files; the checkers consume only per-replica delivery order, which each
// dump preserves by construction (records are appended in delivery order).
#pragma once

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/delivery_log.hpp"
#include "core/properties.hpp"
#include "net/config.hpp"

namespace byzcast::net {

inline constexpr const char* kDeliveryDumpSchema = "byzcast-delivery-dump-v1";
inline constexpr const char* kSentDumpSchema = "byzcast-sent-dump-v1";

struct DeliveryDump {
  std::string node;  // "g0_r2"
  std::uint64_t monitor_violations = 0;
  std::vector<core::DeliveryRecord> records;
};

struct SentDump {
  std::string node;  // "client"
  std::vector<core::SentMessage> sent;
};

[[nodiscard]] Json delivery_dump_to_json(const DeliveryDump& dump);
[[nodiscard]] Json sent_dump_to_json(const SentDump& dump);
[[nodiscard]] std::optional<DeliveryDump> delivery_dump_from_json(
    const Json& j, std::string* error);
[[nodiscard]] std::optional<SentDump> sent_dump_from_json(
    const Json& j, std::string* error);

struct DumpCheckResult {
  bool ok = false;
  std::string error;  // property violation or IO/parse failure prose
  std::size_t delivery_files = 0;
  std::size_t sent_files = 0;
  std::size_t deliveries = 0;
  std::size_t sent_messages = 0;
  std::uint64_t monitor_violations = 0;  // summed over delivery dumps
};

/// Loads every delivery_*.json / sent_*.json under `dir`, reassembles the
/// global run and checks the five properties. Seats in `excluded` (group
/// id, replica index) are treated as faulty: their dumps (possibly absent —
/// a killed daemon flushes nothing) impose no obligations.
[[nodiscard]] DumpCheckResult check_cluster_dumps(
    const ClusterConfig& cfg, const std::string& dir,
    const std::set<std::pair<std::int32_t, int>>& excluded = {});

}  // namespace byzcast::net
