// Run-artifact dumps: JSON round trips for delivery/sent dumps, atomic file
// write/read, and check_cluster_dumps() — the offline cross-process property
// checker that merges per-daemon artifacts and re-runs the five §II-B
// checkers (plus the summed online-monitor verdict) over the whole run.
#include "net/dump.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "net/config.hpp"

namespace byzcast::net {
namespace {

ClusterConfig two_group_config() {
  std::string err;
  auto cfg = ClusterConfig::parse(
      R"({"name": "d", "f": 1, "groups": [
        {"id": 0, "parent": null, "replicas": [
          {"host": "h", "port": 1}, {"host": "h", "port": 2},
          {"host": "h", "port": 3}, {"host": "h", "port": 4}]},
        {"id": 1, "parent": 0, "replicas": [
          {"host": "h", "port": 5}, {"host": "h", "port": 6},
          {"host": "h", "port": 7}, {"host": "h", "port": 8}]}
      ]})",
      &err);
  BZC_EXPECTS(cfg.has_value());
  return *cfg;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "bzc_dump_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// One global message (origin 100, seq 0, dst {g0, g1}) delivered by every
/// replica, unless its pid is in `skip`; plus the matching sent dump.
void write_run(const ClusterConfig& cfg, const std::string& dir,
               const std::vector<std::int32_t>& skip = {},
               std::uint64_t monitor_violations = 0) {
  const MessageId id{ProcessId{100}, 0};
  std::string err;
  for (const GroupSpec& g : cfg.groups) {
    for (int i = 0; i < cfg.replicas_per_group(); ++i) {
      const ProcessId pid = cfg.pid_of(g.id, i);
      DeliveryDump dump;
      dump.node = "g" + std::to_string(g.id.value) + "_r" + std::to_string(i);
      if (g.id.value == 0 && i == 0) {
        dump.monitor_violations = monitor_violations;
      }
      const bool skipped =
          std::find(skip.begin(), skip.end(), pid.value) != skip.end();
      if (!skipped) {
        dump.records.push_back(
            core::DeliveryRecord{g.id, pid, id, /*when=*/1000});
      }
      ASSERT_TRUE(write_json_file(dir + "/delivery_" + dump.node + ".json",
                                  delivery_dump_to_json(dump), &err))
          << err;
    }
  }
  SentDump sent;
  sent.node = "client";
  sent.sent.push_back(core::SentMessage{id, {GroupId{0}, GroupId{1}}});
  ASSERT_TRUE(write_json_file(dir + "/sent_client.json",
                              sent_dump_to_json(sent), &err))
      << err;
}

TEST(Dump, DeliveryDumpJsonRoundTrip) {
  DeliveryDump dump;
  dump.node = "g1_r2";
  dump.monitor_violations = 3;
  dump.records.push_back(core::DeliveryRecord{
      GroupId{1}, ProcessId{6}, MessageId{ProcessId{100}, 7}, 123456});
  dump.records.push_back(core::DeliveryRecord{
      GroupId{1}, ProcessId{6}, MessageId{ProcessId{101}, 0}, 123999});

  std::string err;
  const auto back = delivery_dump_from_json(delivery_dump_to_json(dump), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->node, dump.node);
  EXPECT_EQ(back->monitor_violations, 3u);
  ASSERT_EQ(back->records.size(), 2u);
  EXPECT_EQ(back->records[0].msg.origin.value, 100);
  EXPECT_EQ(back->records[0].msg.seq, 7u);
  EXPECT_EQ(back->records[1].when, 123999);

  // Wrong schema is rejected with prose, not a crash.
  EXPECT_FALSE(delivery_dump_from_json(Json::object(), &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(Dump, SentDumpJsonRoundTrip) {
  SentDump dump;
  dump.node = "client";
  dump.sent.push_back(
      core::SentMessage{MessageId{ProcessId{100}, 0}, {GroupId{2}}});
  dump.sent.push_back(core::SentMessage{MessageId{ProcessId{100}, 1},
                                        {GroupId{0}, GroupId{2}}});
  std::string err;
  const auto back = sent_dump_from_json(sent_dump_to_json(dump), &err);
  ASSERT_TRUE(back.has_value()) << err;
  ASSERT_EQ(back->sent.size(), 2u);
  EXPECT_EQ(back->sent[1].dst,
            (std::vector<GroupId>{GroupId{0}, GroupId{2}}));
  EXPECT_FALSE(sent_dump_from_json(Json::object(), &err).has_value());
}

TEST(Dump, WriteAndReadJsonFile) {
  const std::string dir = fresh_dir("io");
  Json j = Json::object();
  j.set("k", Json::number(7));
  std::string err;
  // The parent directory is created on demand.
  const std::string path = dir + "/sub/x.json";
  ASSERT_TRUE(write_json_file(path, j, &err)) << err;
  // The tmp file is gone after the rename.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const auto back = read_json_file(path, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, j);
  EXPECT_FALSE(read_json_file(dir + "/missing.json", &err).has_value());
  EXPECT_NE(err.find("missing.json"), std::string::npos);
}

TEST(Dump, CheckPassesOnCompleteConsistentRun) {
  const ClusterConfig cfg = two_group_config();
  const std::string dir = fresh_dir("pass");
  write_run(cfg, dir);
  const DumpCheckResult result = check_cluster_dumps(cfg, dir);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.delivery_files, 8u);
  EXPECT_EQ(result.sent_files, 1u);
  EXPECT_EQ(result.deliveries, 8u);
  EXPECT_EQ(result.sent_messages, 1u);
  EXPECT_EQ(result.monitor_violations, 0u);
}

TEST(Dump, CheckFailsWhenACorrectReplicaMissesADelivery) {
  const ClusterConfig cfg = two_group_config();
  const std::string dir = fresh_dir("missing");
  // pid 6 = g1 replica 2 never delivers: agreement/validity must trip.
  write_run(cfg, dir, /*skip=*/{6});
  const DumpCheckResult result = check_cluster_dumps(cfg, dir);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(Dump, ExcludedSeatImposesNoObligations) {
  const ClusterConfig cfg = two_group_config();
  const std::string dir = fresh_dir("excluded");
  write_run(cfg, dir, /*skip=*/{6});
  const DumpCheckResult result =
      check_cluster_dumps(cfg, dir, /*excluded=*/{{1, 2}});
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(Dump, OnlineMonitorViolationsFailTheCheck) {
  const ClusterConfig cfg = two_group_config();
  const std::string dir = fresh_dir("monitor");
  write_run(cfg, dir, /*skip=*/{}, /*monitor_violations=*/2);
  const DumpCheckResult result = check_cluster_dumps(cfg, dir);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.monitor_violations, 2u);
  EXPECT_NE(result.error.find("monitor"), std::string::npos);
}

TEST(Dump, MalformedDumpFileIsAnError) {
  const ClusterConfig cfg = two_group_config();
  const std::string dir = fresh_dir("malformed");
  write_run(cfg, dir);
  std::ofstream bad(dir + "/delivery_zz.json");
  bad << "{not json";
  bad.close();
  const DumpCheckResult result = check_cluster_dumps(cfg, dir);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("delivery_zz.json"), std::string::npos);
}

}  // namespace
}  // namespace byzcast::net
