// Differential soundness sweep for the type-level independence decision
// (schema::DecideIndependence). Over hundreds of seeded PUL pairs on
// XMark documents (which conform to the builtin schema by construction —
// schema_test.cc walks one node by node), a kProvenIndependent verdict
// must imply BOTH that the exact analyzer returns kIndependent and that
// dynamic Integrate finds zero conflicts.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/independence.h"
#include "core/integrate.h"
#include "label/labeling.h"
#include "pul/pul.h"
#include "schema/schema.h"
#include "schema/summary.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"
#include "xml/document.h"

namespace xupdate::schema {
namespace {

using pul::Pul;
using workload::PulGenerator;

std::string ConflictSummary(const std::vector<core::Conflict>& conflicts) {
  std::string out;
  for (const core::Conflict& c : conflicts) {
    out += "type=" + std::to_string(static_cast<int>(c.type));
    if (!c.symmetric()) {
      out += " overrider=" + std::to_string(c.overrider.pul) + ":" +
             std::to_string(c.overrider.op);
    }
    out += " ops=";
    for (const core::OpRef& r : c.ops) {
      out += std::to_string(r.pul) + ":" + std::to_string(r.op) + ",";
    }
    out += "\n";
  }
  return out;
}

struct SoundnessTally {
  size_t pairs = 0;
  size_t proven = 0;
  size_t unknown = 0;
};

// One pair through the whole stack: verdict soundness against both the
// exact analyzer and the dynamic detector.
void CheckPair(const Schema& schema, const Pul& a, const Pul& b,
               SoundnessTally* tally, const std::string& context) {
  ++tally->pairs;
  TypeSummary sa = InferTouchedTypes(schema, a);
  TypeSummary sb = InferTouchedTypes(schema, b);
  SchemaVerdict verdict = DecideIndependence(sa, sb);

  auto dynamic = core::Integrate({&a, &b});
  ASSERT_TRUE(dynamic.ok()) << dynamic.status() << " " << context;

  if (verdict == SchemaVerdict::kProvenIndependent) {
    ++tally->proven;
    // The exact analyzer must agree, with the plain independent report
    // (`xupdate analyze --schema` prints it next to the tier0 marker)...
    analysis::IndependenceReport exact = analysis::AnalyzeIndependence(a, b);
    EXPECT_EQ(exact.verdict, analysis::IndependenceVerdict::kIndependent)
        << context << ": type-level decision proved independence but the exact "
        << "analyzer said " << analysis::IndependenceVerdictName(exact.verdict)
        << " (reason " << exact.reason << ", ops " << exact.op_a << "/"
        << exact.op_b << ")";
    // ...and so must the ground truth.
    EXPECT_TRUE(dynamic->conflicts.empty())
        << context << ": type-level decision proved independence but dynamic "
        << "Integrate found " << dynamic->conflicts.size() << " conflicts:\n"
        << ConflictSummary(dynamic->conflicts);
    EXPECT_EQ(exact.reason, "disjoint") << context;
    EXPECT_EQ(exact.op_a, -1) << context;
    EXPECT_EQ(exact.op_b, -1) << context;
  } else {
    ++tally->unknown;
  }
}

TEST(SchemaSoundnessTest, SeededXmarkSweep) {
  Schema schema = Schema::BuiltinXmark();
  xmark::Config config;
  config.target_bytes = 64 << 10;
  auto doc = xmark::GenerateDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();
  label::Labeling labeling = label::Labeling::Build(*doc);

  SoundnessTally tally;

  // Half the sweep: independent draws of small random PULs in disjoint
  // id spaces — the indep-leaning side.
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    PulGenerator gen(*doc, labeling, seed);
    PulGenerator::PulOptions options;
    options.num_ops = 4;
    options.id_base = doc->max_assigned_id() + 1;
    auto a = gen.Generate(options);
    ASSERT_TRUE(a.ok()) << a.status();
    options.id_base = doc->max_assigned_id() + 100000;
    auto b = gen.Generate(options);
    ASSERT_TRUE(b.ok()) << b.status();
    CheckPair(schema, *a, *b, &tally,
              "draw seed " + std::to_string(seed));
  }

  // Other half: conflict-seeded pairs — the decision must never prove one
  // of the planted conflicts away.
  for (uint64_t seed = 1; seed <= 110; ++seed) {
    PulGenerator gen(*doc, labeling, seed * 31 + 7);
    PulGenerator::ConflictOptions options;
    options.num_puls = 2;
    options.ops_per_pul = 8;
    options.conflicting_fraction = (seed % 2 == 0) ? 0.5 : 0.0;
    options.ops_per_conflict = 2;
    auto puls = gen.GenerateConflicting(options);
    ASSERT_TRUE(puls.ok()) << puls.status();
    ASSERT_EQ(puls->size(), 2u);
    CheckPair(schema, (*puls)[0], (*puls)[1], &tally,
              "conflict seed " + std::to_string(seed));
  }

  EXPECT_EQ(tally.pairs, 260u);
  EXPECT_EQ(tally.proven + tally.unknown, tally.pairs);
}

// Hand-built indep-heavy workload: single-op PULs on structurally
// disjoint regions. This pins down that the decision actually proves
// something (the sweep above asserts only soundness) so a precision
// regression cannot hide behind an all-unknown verdict.
TEST(SchemaSoundnessTest, DisjointRegionPairsProve) {
  Schema schema = Schema::BuiltinXmark();
  xmark::Config config;
  config.target_bytes = 48 << 10;
  config.seed = 3;
  auto doc = xmark::GenerateDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();
  label::Labeling labeling = label::Labeling::Build(*doc);

  // person/@id edits versus item deletions: attr atoms at level 2
  // against a level-3 subtree kill — provably disjoint under the DTD.
  std::vector<xml::NodeId> person_attrs;
  std::vector<xml::NodeId> items;
  for (xml::NodeId id : doc->AllNodesInOrder()) {
    if (doc->type(id) != xml::NodeType::kElement) continue;
    if (doc->name(id) == "person" && !doc->attributes(id).empty()) {
      person_attrs.push_back(doc->attributes(id)[0]);
    } else if (doc->name(id) == "item") {
      items.push_back(id);
    }
  }
  ASSERT_GE(person_attrs.size(), 3u);
  ASSERT_GE(items.size(), 3u);

  SoundnessTally tally;
  for (size_t i = 0; i < 3; ++i) {
    Pul a;
    a.BindIdSpace(doc->max_assigned_id() + 1);
    ASSERT_TRUE(a.AddStringOp(pul::OpKind::kReplaceValue, person_attrs[i],
                              labeling, "edited")
                    .ok());
    Pul b;
    b.BindIdSpace(doc->max_assigned_id() + 100000);
    ASSERT_TRUE(b.AddDelete(items[i], labeling).ok());
    CheckPair(schema, a, b, &tally, "region pair " + std::to_string(i));
  }
  EXPECT_EQ(tally.proven, 3u);
}

}  // namespace
}  // namespace xupdate::schema
