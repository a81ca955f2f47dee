#include "net/dump.hpp"

#include <algorithm>
#include <filesystem>

namespace byzcast::net {

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error) *error = what;
  return false;
}

}  // namespace

Json delivery_dump_to_json(const DeliveryDump& dump) {
  Json j = Json::object();
  j.set("schema", Json::string(kDeliveryDumpSchema));
  j.set("node", Json::string(dump.node));
  j.set("monitor_violations",
        Json::number(static_cast<double>(dump.monitor_violations)));
  Json records = Json::array();
  for (const core::DeliveryRecord& r : dump.records) {
    Json rec = Json::object();
    rec.set("group", Json::number(r.group.value));
    rec.set("replica", Json::number(r.replica.value));
    rec.set("origin", Json::number(r.msg.origin.value));
    rec.set("seq", Json::number(static_cast<double>(r.msg.seq)));
    rec.set("when", Json::number(static_cast<double>(r.when)));
    records.push_back(std::move(rec));
  }
  j.set("records", std::move(records));
  return j;
}

Json sent_dump_to_json(const SentDump& dump) {
  Json j = Json::object();
  j.set("schema", Json::string(kSentDumpSchema));
  j.set("node", Json::string(dump.node));
  Json sent = Json::array();
  for (const core::SentMessage& s : dump.sent) {
    Json m = Json::object();
    m.set("origin", Json::number(s.id.origin.value));
    m.set("seq", Json::number(static_cast<double>(s.id.seq)));
    Json dst = Json::array();
    for (const GroupId g : s.dst) dst.push_back(Json::number(g.value));
    m.set("dst", std::move(dst));
    sent.push_back(std::move(m));
  }
  j.set("sent", std::move(sent));
  return j;
}

std::optional<DeliveryDump> delivery_dump_from_json(const Json& j,
                                                    std::string* error) {
  if (!j.is_object() || j.get("schema").as_string() != kDeliveryDumpSchema) {
    fail(error, "not a " + std::string(kDeliveryDumpSchema) + " file");
    return std::nullopt;
  }
  DeliveryDump dump;
  dump.node = j.get("node").as_string();
  dump.monitor_violations =
      static_cast<std::uint64_t>(j.int_or("monitor_violations", 0));
  const Json& records = j.get("records");
  if (!records.is_array()) {
    fail(error, "\"records\" must be an array");
    return std::nullopt;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Json& r = records.at(i);
    if (!r.is_object() || !r.get("group").is_number() ||
        !r.get("replica").is_number() || !r.get("origin").is_number() ||
        !r.get("seq").is_number()) {
      fail(error, "record " + std::to_string(i) + " malformed");
      return std::nullopt;
    }
    core::DeliveryRecord rec;
    rec.group = GroupId(static_cast<std::int32_t>(r.get("group").as_int()));
    rec.replica =
        ProcessId(static_cast<std::int32_t>(r.get("replica").as_int()));
    rec.msg.origin =
        ProcessId(static_cast<std::int32_t>(r.get("origin").as_int()));
    rec.msg.seq = static_cast<std::uint64_t>(r.get("seq").as_int());
    rec.when = r.int_or("when", 0);
    dump.records.push_back(rec);
  }
  return dump;
}

std::optional<SentDump> sent_dump_from_json(const Json& j,
                                            std::string* error) {
  if (!j.is_object() || j.get("schema").as_string() != kSentDumpSchema) {
    fail(error, "not a " + std::string(kSentDumpSchema) + " file");
    return std::nullopt;
  }
  SentDump dump;
  dump.node = j.get("node").as_string();
  const Json& sent = j.get("sent");
  if (!sent.is_array()) {
    fail(error, "\"sent\" must be an array");
    return std::nullopt;
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Json& m = sent.at(i);
    if (!m.is_object() || !m.get("origin").is_number() ||
        !m.get("seq").is_number() || !m.get("dst").is_array()) {
      fail(error, "sent entry " + std::to_string(i) + " malformed");
      return std::nullopt;
    }
    core::SentMessage s;
    s.id.origin =
        ProcessId(static_cast<std::int32_t>(m.get("origin").as_int()));
    s.id.seq = static_cast<std::uint64_t>(m.get("seq").as_int());
    const Json& dst = m.get("dst");
    for (std::size_t d = 0; d < dst.size(); ++d) {
      s.dst.push_back(
          GroupId(static_cast<std::int32_t>(dst.at(d).as_int())));
    }
    dump.sent.push_back(std::move(s));
  }
  return dump;
}

DumpCheckResult check_cluster_dumps(
    const ClusterConfig& cfg, const std::string& dir,
    const std::set<std::pair<std::int32_t, int>>& excluded) {
  DumpCheckResult result;
  core::DeliveryLog merged;
  std::vector<core::SentMessage> sent;

  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    result.error = "cannot list " + dir + ": " + ec.message();
    return result;
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : it) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  // Deterministic merge order (per-replica order is all that matters, and
  // one replica's records live in one file, but stable output helps debug).
  std::sort(files.begin(), files.end());

  for (const auto& path : files) {
    const std::string stem = path.filename().string();
    std::string error;
    if (stem.rfind("delivery_", 0) == 0 && path.extension() == ".json") {
      const auto j = read_json_file(path.string(), &error);
      if (!j) {
        result.error = error;
        return result;
      }
      const auto dump = delivery_dump_from_json(*j, &error);
      if (!dump) {
        result.error = path.string() + ": " + error;
        return result;
      }
      ++result.delivery_files;
      result.monitor_violations += dump->monitor_violations;
      for (const auto& rec : dump->records) {
        merged.record(rec.group, rec.replica, rec.msg, rec.when);
      }
    } else if (stem.rfind("sent_", 0) == 0 && path.extension() == ".json") {
      const auto j = read_json_file(path.string(), &error);
      if (!j) {
        result.error = error;
        return result;
      }
      const auto dump = sent_dump_from_json(*j, &error);
      if (!dump) {
        result.error = path.string() + ": " + error;
        return result;
      }
      ++result.sent_files;
      sent.insert(sent.end(), dump->sent.begin(), dump->sent.end());
    }
  }
  result.deliveries = merged.records().size();
  result.sent_messages = sent.size();

  core::PropertyInput in;
  in.log = &merged;
  in.sent = std::move(sent);
  for (const GroupSpec& g : cfg.groups) {
    if (!g.is_target) continue;
    for (int i = 0; i < cfg.replicas_per_group(); ++i) {
      if (excluded.contains({g.id.value, i})) continue;
      in.correct_replicas[g.id].push_back(cfg.pid_of(g.id, i));
    }
  }
  const core::PropertyResult verdict = core::check_all_properties(in);
  result.ok = verdict.ok;
  if (!verdict.ok) result.error = verdict.error;
  if (result.ok && result.monitor_violations > 0) {
    result.ok = false;
    result.error = std::to_string(result.monitor_violations) +
                   " online monitor violation(s) reported by replicas";
  }
  return result;
}

}  // namespace byzcast::net
