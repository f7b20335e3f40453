#include "server/stat.h"

#include <gtest/gtest.h>

#include <string>

#include "common/json.h"
#include "common/metrics.h"

namespace xupdate::server {
namespace {

MetricsSnapshot SampleRegistry() {
  Metrics m;
  m.AddCounter("server.requests", 9);
  m.AddCounter("tenant/t0/commit.count", 4);
  m.AddCounter("tenant/t1/commit.count", 2);
  m.SetGauge("server.queue.depth", 3);
  m.SetGauge("tenant/t0/wal.bytes", 4096);
  m.RecordDuration("store.commit.seconds", 0.004);
  m.RecordDuration("tenant/t0/commit.seconds", 0.004);
  return m.Snapshot();
}

TEST(StatJsonTest, BuildSplitsTenantSections) {
  std::string json = BuildStatJson(SampleRegistry(), 7, 1234);
  Result<StatSnapshot> parsed = ParseStatJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const StatSnapshot& stat = parsed.value();
  EXPECT_EQ(stat.version, kStatVersion);
  EXPECT_EQ(stat.seq, 7u);
  EXPECT_EQ(stat.uptime_ticks, 1234u);
  // Tenant-scoped names are re-keyed by the bare remainder.
  EXPECT_EQ(stat.global.counters.at("server.requests"), 9u);
  EXPECT_EQ(stat.global.counters.count("tenant/t0/commit.count"), 0u);
  ASSERT_EQ(stat.tenants.size(), 2u);
  EXPECT_EQ(stat.tenants.at("t0").counters.at("commit.count"), 4u);
  EXPECT_EQ(stat.tenants.at("t1").counters.at("commit.count"), 2u);
  EXPECT_EQ(stat.tenants.at("t0").gauges.at("wal.bytes"), 4096);
  EXPECT_EQ(stat.tenants.at("t0").timers.at("commit.seconds").count, 1u);
}

TEST(StatJsonTest, BuildIsByteDeterministic) {
  EXPECT_EQ(BuildStatJson(SampleRegistry(), 7, 1234),
            BuildStatJson(SampleRegistry(), 7, 1234));
}

TEST(StatJsonTest, FlattenRoundTripsTheRegistryShape) {
  MetricsSnapshot original = SampleRegistry();
  std::string json = BuildStatJson(original, 1, 1);
  Result<StatSnapshot> parsed = ParseStatJson(json);
  ASSERT_TRUE(parsed.ok());
  MetricsSnapshot flat = FlattenStatSnapshot(parsed.value());
  // Build -> parse -> flatten reproduces the registry snapshot exactly,
  // which is what lets remote pollers feed DeltaSnapshots.
  EXPECT_EQ(MetricsSnapshotToJson(flat), MetricsSnapshotToJson(original));
}

TEST(StatJsonTest, DeltaOverParsedSnapshotsYieldsRates) {
  Metrics m;
  m.AddCounter("tenant/t0/commit.count", 10);
  Result<StatSnapshot> before =
      ParseStatJson(BuildStatJson(m.Snapshot(), 1, 1000));
  m.AddCounter("tenant/t0/commit.count", 5);
  Result<StatSnapshot> after =
      ParseStatJson(BuildStatJson(m.Snapshot(), 2, 2000));
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  MetricsDelta delta = DeltaSnapshots(FlattenStatSnapshot(before.value()),
                                      FlattenStatSnapshot(after.value()));
  EXPECT_EQ(delta.counters.at("tenant/t0/commit.count"), 5u);
}

TEST(StatJsonTest, ParsesLegacyBarePayloadAsVersionZero) {
  // A pre-versioning server's payload is a bare metrics object.
  Result<StatSnapshot> parsed = ParseStatJson(
      "{\"counters\":{\"server.requests\":3},\"timers\":{}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().version, 0u);
  EXPECT_EQ(parsed.value().seq, 0u);
  EXPECT_EQ(parsed.value().global.counters.at("server.requests"), 3u);
  EXPECT_TRUE(parsed.value().tenants.empty());
}

TEST(StatJsonTest, IgnoresUnknownKeysFromNewerServers) {
  // Forward compatibility: a v2 server may add fields; a v1 reader
  // must read what it knows and skip the rest.
  Result<StatSnapshot> parsed = ParseStatJson(
      "{\"v\":2,\"seq\":4,\"uptime_ticks\":99,\"future_field\":[1,2],"
      "\"global\":{\"counters\":{\"a\":1},\"histograms\":{}},"
      "\"tenants\":{\"t0\":{\"counters\":{\"b\":2}}}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().version, 2u);
  EXPECT_EQ(parsed.value().seq, 4u);
  EXPECT_EQ(parsed.value().global.counters.at("a"), 1u);
  EXPECT_EQ(parsed.value().tenants.at("t0").counters.at("b"), 2u);
}

TEST(StatJsonTest, ToleratesForeignBucketLadderLengths) {
  // A server with a different bucket ladder: the overlap is read, the
  // excess ignored, and parsing does not fail.
  Result<StatSnapshot> parsed = ParseStatJson(
      "{\"v\":1,\"seq\":1,\"uptime_ticks\":1,"
      "\"global\":{\"timers\":{\"t\":{\"seconds\":1.0,\"count\":2,"
      "\"buckets\":[1,1]}}},\"tenants\":{}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const MetricsSnapshot::TimerState& t =
      parsed.value().global.timers.at("t");
  EXPECT_EQ(t.count, 2u);
  EXPECT_EQ(t.buckets[0], 1u);
  EXPECT_EQ(t.buckets[1], 1u);
  EXPECT_EQ(t.buckets[2], 0u);
}

TEST(StatJsonTest, RejectsMalformedPayloads) {
  EXPECT_FALSE(ParseStatJson("").ok());
  EXPECT_FALSE(ParseStatJson("not json").ok());
  EXPECT_FALSE(ParseStatJson("[1,2,3]").ok());
  EXPECT_FALSE(ParseStatJson("{\"v\":1,\"global\":3}").ok());
  EXPECT_FALSE(
      ParseStatJson("{\"v\":1,\"global\":{\"counters\":[]}}").ok());
}

// Names are written back unescaped, so a name outside the registry's
// charset must not survive parsing: a timer called "a\nb" would re-render
// as a raw newline inside a JSON string.
TEST(StatJsonTest, RejectsNamesThatCannotRoundTrip) {
  const char* kPayloads[] = {
      "{\"v\":1,\"global\":{\"timers\":{\"a\\nb\":{\"count\":1}}},"
      "\"tenants\":{}}",
      "{\"v\":1,\"global\":{\"counters\":{\"q\\\"uote\":1}}}",
      "{\"v\":1,\"global\":{\"gauges\":{\"\":1}}}",
      "{\"v\":1,\"tenants\":{\"t0\":{\"counters\":{\"b c\":2}}}}",
      "{\"v\":1,\"tenants\":{\"t\\u0000x\":{}}}",
      "{\"v\":1,\"tenants\":{\"a.b\":{}}}",
      "{\"counters\":{\"tenant/a.b/x\":1}}",
      "{\"counters\":{\"back\\\\slash\":1}}",
  };
  for (const char* payload : kPayloads) {
    Result<StatSnapshot> parsed = ParseStatJson(payload);
    ASSERT_FALSE(parsed.ok()) << payload;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << payload;
  }
  // Valid names still round-trip through both renderers.
  Result<StatSnapshot> parsed = ParseStatJson(
      "{\"v\":1,\"global\":{\"timers\":{\"a.b\":{\"count\":1}}},"
      "\"tenants\":{\"t-0\":{\"counters\":{\"c/d\":2}}}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  MetricsSnapshot flat = FlattenStatSnapshot(parsed.value());
  EXPECT_TRUE(json::Parse(MetricsSnapshotToJson(flat)).ok());
  EXPECT_TRUE(json::Parse(BuildStatJson(flat, 1, 1)).ok());
}

TEST(StatJsonTest, ParseMetricsJsonReadsARawDump) {
  Metrics m;
  m.AddCounter("c", 2);
  m.RecordDuration("t", 0.02);
  Result<MetricsSnapshot> parsed = ParseMetricsJson(m.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().counters.at("c"), 2u);
  EXPECT_EQ(parsed.value().timers.at("t").count, 1u);
  EXPECT_EQ(MetricsSnapshotToJson(parsed.value()), m.ToJson());
}

}  // namespace
}  // namespace xupdate::server
