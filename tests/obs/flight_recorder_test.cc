#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/json.h"

namespace xupdate::obs {
namespace {

TEST(FlightRecorderTest, RecordsInSeqOrder) {
  FlightRecorder rec(8);
  rec.Record(FlightEventKind::kAdmit, "t0", 1, 0, 3);
  rec.Record(FlightEventKind::kBatchSeal, "", 0, 7, 2);
  rec.Record(FlightEventKind::kFsyncOk, "t0", 0, 7, 2);
  std::vector<FlightRecorder::Event> events = rec.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kAdmit);
  EXPECT_EQ(events[0].tenant, "t0");
  EXPECT_EQ(events[0].request, 1u);
  EXPECT_EQ(events[0].value, 3u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].batch, 7u);
  EXPECT_EQ(events[2].kind, FlightEventKind::kFsyncOk);
  EXPECT_EQ(rec.total_recorded(), 3u);
}

TEST(FlightRecorderTest, RingKeepsOnlyTheNewestWindow) {
  FlightRecorder rec(4);
  for (uint64_t i = 0; i < 10; ++i) {
    rec.Record(FlightEventKind::kAdmit, "t", i + 1, 0, i);
  }
  std::vector<FlightRecorder::Event> events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and only seqs 6..9 survive.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
    EXPECT_EQ(events[i].value, 6 + i);
  }
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.capacity(), 4u);
}

TEST(FlightRecorderTest, DumpJsonlIsDeterministic) {
  FlightRecorder rec(8);
  rec.Record(FlightEventKind::kShed, "t1", 5, 0, 12, "tenant-quota");
  rec.Record(FlightEventKind::kWalPoison, "t1", 0, 3, 0, "io error");
  std::string dump = rec.DumpJsonl();
  EXPECT_EQ(dump,
            "{\"seq\":0,\"kind\":\"shed\",\"tenant\":\"t1\",\"request\":5,"
            "\"batch\":0,\"value\":12,\"detail\":\"tenant-quota\"}\n"
            "{\"seq\":1,\"kind\":\"wal-poison\",\"tenant\":\"t1\","
            "\"request\":0,\"batch\":3,\"value\":0,"
            "\"detail\":\"io error\"}\n");
  // Byte-identical on a second dump and for an identical sequence.
  EXPECT_EQ(rec.DumpJsonl(), dump);
  FlightRecorder rec2(8);
  rec2.Record(FlightEventKind::kShed, "t1", 5, 0, 12, "tenant-quota");
  rec2.Record(FlightEventKind::kWalPoison, "t1", 0, 3, 0, "io error");
  EXPECT_EQ(rec2.DumpJsonl(), dump);
}

TEST(FlightRecorderTest, DumpLinesParseAsJson) {
  FlightRecorder rec(8);
  rec.Record(FlightEventKind::kBatchSeal, "", 0, 1, 3);
  rec.Record(FlightEventKind::kApply, "quote\"tenant", 0, 1, 3,
             "line\nbreak");
  std::string dump = rec.DumpJsonl();
  size_t start = 0;
  int lines = 0;
  while (start < dump.size()) {
    size_t end = dump.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    auto parsed = json::Parse(dump.substr(start, end - start));
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const json::Value& v = parsed.value();
    EXPECT_TRUE(v.Find("seq")->is_number());
    EXPECT_TRUE(v.Find("kind")->is_string());
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 2);
  // Hostile tenant / detail strings round-trip through the escaping.
  auto second = json::Parse(dump.substr(dump.find('\n') + 1,
                                        dump.rfind('\n') - dump.find('\n') -
                                            1));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().Find("tenant")->str, "quote\"tenant");
  EXPECT_EQ(second.value().Find("detail")->str, "line\nbreak");
}

TEST(FlightRecorderTest, EmptyDumpIsEmptyString) {
  FlightRecorder rec(8);
  EXPECT_EQ(rec.DumpJsonl(), "");
  EXPECT_EQ(rec.Events().size(), 0u);
}

TEST(FlightRecorderTest, KindNamesAreStable) {
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kAdmit), "admit");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kShed), "shed");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kBatchSeal), "batch-seal");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kFsyncOk), "fsync-ok");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kFsyncFail), "fsync-fail");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kApply), "apply");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kWalPoison), "wal-poison");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kTenantOpen), "tenant-open");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kShutdown), "shutdown");
}

TEST(FlightRecorderTest, ConcurrentRecordsAreLossless) {
  FlightRecorder rec(1 << 16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rec] {
      for (int i = 0; i < 500; ++i) {
        rec.Record(FlightEventKind::kAdmit, "t", 1, 0, 0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.total_recorded(), 2000u);
  std::vector<FlightRecorder::Event> events = rec.Events();
  ASSERT_EQ(events.size(), 2000u);
  // Seqs are unique and ordered even under contention.
  for (size_t i = 0; i < events.size(); ++i) EXPECT_EQ(events[i].seq, i);
}

}  // namespace
}  // namespace xupdate::obs
