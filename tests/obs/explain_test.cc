#include "obs/explain.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/sinks.h"
#include "obs/trace.h"

namespace xupdate::obs {
namespace {

TEST(ParseJournalTest, RoundTripsSinkOutput) {
  Tracer tracer;
  uint32_t phase = tracer.NextPhase();
  TraceLane lane = tracer.Lane(phase, 0, "reduce");
  lane.Emit(EventKind::kShardAssigned, "", {"#0", "#1"});
  lane.Emit(EventKind::kRuleFired, "I5", {"#0", "#1"}, "#0",
            "detail \"quoted\"");
  std::string journal = ToJournalJsonl(tracer);
  auto events = ParseJournal(journal);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].kind, EventKind::kShardAssigned);
  EXPECT_EQ((*events)[1].name, "I5");
  EXPECT_EQ((*events)[1].ops, (std::vector<std::string>{"#0", "#1"}));
  EXPECT_EQ((*events)[1].result, "#0");
  EXPECT_EQ((*events)[1].detail, "detail \"quoted\"");
  // Re-serializing the parsed events must reproduce the journal bytes.
  std::string again;
  for (const TraceEvent& e : *events) {
    again += EventToJournalLine(e);
    again += '\n';
  }
  EXPECT_EQ(again, journal);
}

TEST(ParseJournalTest, ToleratesReorderedAndUnknownKeys) {
  auto events = ParseJournal(
      "{\"kind\":\"note\",\"seq\":2,\"phase\":1,\"lane\":0,"
      "\"future\":\"ignored\",\"name\":\"n\",\"ops\":[],\"result\":\"\","
      "\"detail\":\"\"}\n");
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].phase, 1u);
  EXPECT_EQ((*events)[0].seq, 2u);
}

TEST(ParseJournalTest, RejectsGarbage) {
  EXPECT_FALSE(ParseJournal("not json\n").ok());
  EXPECT_FALSE(ParseJournal("{\"kind\":\"bogus-kind\"}\n").ok());
}

// A hand-built reduce journal: #0 absorbs #1 (merge), #2 is killed by
// #0, #0 survives.
std::vector<TraceEvent> SmallReduceJournal() {
  Tracer tracer;
  uint32_t phase = tracer.NextPhase();
  TraceLane lane = tracer.Lane(phase, 1, "reduce");
  lane.Emit(EventKind::kShardAssigned, "", {"#0", "#1", "#2"});
  lane.Emit(EventKind::kRuleFired, "I5", {"#0", "#1"}, "#0", "insLast");
  lane.Emit(EventKind::kRuleFired, "O1", {"#0", "#2"}, "",
            "del overrides insLast");
  uint32_t merge = tracer.NextPhase();
  TraceLane merge_lane = tracer.Lane(merge, 0, "reduce");
  merge_lane.Emit(EventKind::kOpSurvived, "insLast", {"#0"}, "out#0");
  return tracer.SortedEvents();
}

TEST(ExplainTest, BuildsOneChainPerInputOp) {
  auto report = BuildExplainReport(SmallReduceJournal());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->chains.size(), 3u);
  EXPECT_EQ(report->scopes, (std::vector<std::string>{"reduce"}));

  const ProvenanceChain& survivor = report->chains[0];
  EXPECT_EQ(survivor.id, "#0");
  EXPECT_TRUE(survivor.survived);
  EXPECT_EQ(survivor.output_id, "out#0");
  EXPECT_EQ(survivor.op_kind, "insLast");

  const ProvenanceChain& absorbed = report->chains[1];
  EXPECT_EQ(absorbed.id, "#1");
  EXPECT_FALSE(absorbed.survived);

  const ProvenanceChain& killed = report->chains[2];
  EXPECT_EQ(killed.id, "#2");
  EXPECT_FALSE(killed.survived);
}

TEST(ExplainTest, RendersGoldenChains) {
  auto report = BuildExplainReport(SmallReduceJournal());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(RenderChains(*report),
            "#0 [insLast]: survived -> out#0\n"
            "  - assigned to shard 0\n"
            "  - I5: #0, #1 -> #0 [insLast]\n"
            "  - O1: overrode #2 [del overrides insLast]\n"
            "  - survived as out#0\n"
            "#1: eliminated\n"
            "  - assigned to shard 0\n"
            "  - I5: #0, #1 -> #0 [insLast] (absorbed into #0)\n"
            "#2: eliminated\n"
            "  - assigned to shard 0\n"
            "  - O1: killed by #0 [del overrides insLast]\n");
}

TEST(ExplainTest, RendersSingleOpAndUnknownId) {
  auto report = BuildExplainReport(SmallReduceJournal());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(RenderChains(*report, "#2"),
            "#2: eliminated\n"
            "  - assigned to shard 0\n"
            "  - O1: killed by #0 [del overrides insLast]\n");
  std::string unknown = RenderChains(*report, "#99");
  EXPECT_NE(unknown.find("unknown op id \"#99\""), std::string::npos);
  EXPECT_NE(unknown.find("#0"), std::string::npos);
}

// Reduce names its assignment events "unit", integrate "shard"; an
// unnamed one reads as a shard.
TEST(ExplainTest, NamesAssignmentsAfterTheirEvent) {
  Tracer tracer;
  uint32_t phase = tracer.NextPhase();
  TraceLane unit = tracer.Lane(phase, 2, "reduce");
  unit.Emit(EventKind::kShardAssigned, "unit", {"#0"});
  TraceLane shard = tracer.Lane(phase, 1, "integrate");
  shard.Emit(EventKind::kShardAssigned, "shard", {"#1"});
  auto report = BuildExplainReport(tracer.SortedEvents());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(RenderChains(*report, "#0"),
            "#0: eliminated\n"
            "  - assigned to unit 1\n");
  EXPECT_EQ(RenderChains(*report, "#1"),
            "#1: eliminated\n"
            "  - assigned to shard 0\n");
}

TEST(ExplainTest, CollectsConflicts) {
  Tracer tracer;
  uint32_t phase = tracer.NextPhase();
  TraceLane lane = tracer.Lane(phase, 0, "integrate");
  lane.Emit(EventKind::kNote, "input", {"P0#0", "P1#0"});
  lane.Emit(EventKind::kConflictDetected, "insertion-order",
            {"P0#0", "P1#0"});
  auto report = BuildExplainReport(tracer.SortedEvents());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->chains.size(), 2u);
  ASSERT_EQ(report->chains[0].steps.size(), 1u);
  EXPECT_EQ(report->chains[0].steps[0],
            "insertion-order conflict with P1#0");
}

}  // namespace
}  // namespace xupdate::obs
