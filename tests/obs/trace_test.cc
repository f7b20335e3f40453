#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/sinks.h"

namespace xupdate::obs {
namespace {

TEST(TraceLaneTest, DisabledLaneSwallowsEmissions) {
  TraceLane lane;  // default-constructed = disabled
  EXPECT_FALSE(lane.enabled());
  lane.Emit(EventKind::kRuleFired, "I5", {"#1", "#2"}, "#1");  // no crash
}

TEST(TraceLaneTest, SequencesEmissionsPerLane) {
  Tracer tracer;
  uint32_t phase = tracer.NextPhase();
  TraceLane lane = tracer.Lane(phase, 0, "reduce");
  ASSERT_TRUE(lane.enabled());
  lane.Emit(EventKind::kNote, "first");
  lane.Emit(EventKind::kNote, "second");
  std::vector<TraceEvent> events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[0].name, "first");
  EXPECT_EQ(events[1].name, "second");
  EXPECT_EQ(events[0].scope, "reduce");
}

TEST(TracerTest, NextPhaseIsMonotonic) {
  Tracer tracer;
  EXPECT_EQ(tracer.NextPhase(), 0u);
  EXPECT_EQ(tracer.NextPhase(), 1u);
  EXPECT_EQ(tracer.NextPhase(), 2u);
}

TEST(TracerTest, SortedEventsOrderByPhaseLaneSeq) {
  Tracer tracer;
  uint32_t p0 = tracer.NextPhase();
  uint32_t p1 = tracer.NextPhase();
  TraceLane late = tracer.Lane(p1, 0, "reduce");
  TraceLane shard2 = tracer.Lane(p0, 2, "reduce");
  TraceLane shard1 = tracer.Lane(p0, 1, "reduce");
  // Emission order deliberately scrambled relative to the sort key.
  late.Emit(EventKind::kNote, "d");
  shard2.Emit(EventKind::kNote, "c");
  shard1.Emit(EventKind::kNote, "a");
  shard1.Emit(EventKind::kNote, "b");
  std::vector<TraceEvent> events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[2].name, "c");
  EXPECT_EQ(events[3].name, "d");
}

TEST(TracerTest, ClearDropsEvents) {
  Tracer tracer;
  TraceLane lane = tracer.Lane(tracer.NextPhase(), 0, "x");
  lane.Emit(EventKind::kNote, "n");
  EXPECT_EQ(tracer.size(), 1u);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TraceSpanTest, EmitsBeginAndEnd) {
  Tracer tracer;
  TraceLane lane = tracer.Lane(tracer.NextPhase(), 0, "reduce");
  {
    TraceSpan span(&lane, "partition");
    lane.Emit(EventKind::kNote, "inside");
  }
  std::vector<TraceEvent> events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kSpanBegin);
  EXPECT_EQ(events[0].name, "partition");
  EXPECT_EQ(events[1].name, "inside");
  EXPECT_EQ(events[2].kind, EventKind::kSpanEnd);
  EXPECT_EQ(events[2].name, "partition");
}

TEST(TraceSpanTest, NullAndDisabledLanesAreNoOps) {
  TraceSpan null_span(nullptr, "x");
  TraceLane disabled;
  TraceSpan disabled_span(&disabled, "y");  // must not crash
}

TEST(EventKindNameTest, RoundTripsEveryKind) {
  const EventKind kinds[] = {
      EventKind::kSpanBegin,    EventKind::kSpanEnd,
      EventKind::kShardAssigned, EventKind::kRuleFired,
      EventKind::kConflictDetected, EventKind::kPolicyApplied,
      EventKind::kOpSurvived,   EventKind::kNote};
  for (EventKind kind : kinds) {
    std::string_view name = EventKindName(kind);
    EXPECT_FALSE(name.empty());
    EventKind back;
    ASSERT_TRUE(EventKindFromName(name, &back)) << name;
    EXPECT_EQ(back, kind);
  }
  EventKind ignored;
  EXPECT_FALSE(EventKindFromName("no-such-kind", &ignored));
}

TEST(JournalSinkTest, GoldenLine) {
  TraceEvent event;
  event.phase = 3;
  event.lane = 1;
  event.seq = 7;
  event.kind = EventKind::kRuleFired;
  event.scope = "reduce";
  event.name = "I5";
  event.ops = {"#1", "#4"};
  event.result = "#1";
  event.detail = "insLast";
  EXPECT_EQ(EventToJournalLine(event),
            "{\"phase\":3,\"lane\":1,\"seq\":7,\"kind\":\"rule-fired\","
            "\"scope\":\"reduce\",\"name\":\"I5\",\"ops\":[\"#1\",\"#4\"],"
            "\"result\":\"#1\",\"detail\":\"insLast\"}");
}

TEST(JournalSinkTest, EscapesEmbeddedQuotes) {
  TraceEvent event;
  event.name = "say \"hi\"";
  event.detail = "back\\slash";
  std::string line = EventToJournalLine(event);
  EXPECT_NE(line.find("\"name\":\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(line.find("\"detail\":\"back\\\\slash\""), std::string::npos);
}

TEST(JournalSinkTest, JournalHasNoTimestamps) {
  Tracer tracer;
  TraceLane lane = tracer.Lane(tracer.NextPhase(), 0, "reduce");
  lane.Emit(EventKind::kNote, "n");
  std::string journal = ToJournalJsonl(tracer);
  EXPECT_EQ(journal.find("\"ts\""), std::string::npos);
  EXPECT_EQ(journal.find("t_us"), std::string::npos);
}

TEST(ChromeSinkTest, EmitsThreadTracksAndSpans) {
  Tracer tracer;
  uint32_t phase = tracer.NextPhase();
  TraceLane main = tracer.Lane(phase, 0, "reduce");
  TraceLane shard = tracer.Lane(phase, 1, "reduce");
  {
    TraceSpan span(&main, "partition");
  }
  shard.Emit(EventKind::kRuleFired, "O1", {"#0", "#1"});
  std::string trace = ToChromeTrace(tracer);
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"name\":\"main\"}"), std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"name\":\"shard-0\"}"),
            std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("rule-fired:O1"), std::string::npos);
}

}  // namespace
}  // namespace xupdate::obs
