// Unit tests for the schema model: the DTD-subset parser, the derived
// content-model judgments (allowed/required children, AcceptsChildren),
// the per-depth element-type tables, the touched-type summaries of
// summary.h and the XU008-XU010 schema lint. The builtin XMark schema
// is additionally validated against an actual generated document —
// every node of the generator's output must be admitted by the DTD the
// schema lint and `analyze --schema` trust.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/schema_lint.h"
#include "label/labeling.h"
#include "pul/pul.h"
#include "schema/schema.h"
#include "schema/summary.h"
#include "xmark/generator.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace xupdate::schema {
namespace {

TEST(TypeSetTest, SetTestAndAlgebra) {
  TypeSet a(130);
  EXPECT_TRUE(a.Empty());
  a.Set(0);
  a.Set(64);
  a.Set(129);
  EXPECT_FALSE(a.Empty());
  EXPECT_EQ(a.Count(), 3u);
  EXPECT_TRUE(a.Test(0));
  EXPECT_TRUE(a.Test(64));
  EXPECT_TRUE(a.Test(129));
  EXPECT_FALSE(a.Test(1));
  EXPECT_FALSE(a.Test(1000));  // out of capacity: false, not UB

  TypeSet b(130);
  b.Set(64);
  EXPECT_TRUE(a.Intersects(b));
  TypeSet c(130);
  c.Set(65);
  EXPECT_FALSE(a.Intersects(c));

  c.UnionWith(b);
  EXPECT_TRUE(c.Test(64));
  EXPECT_TRUE(c.Test(65));
  EXPECT_EQ(c.Count(), 2u);

  TypeSet d(130);
  d.Set(64);
  d.Set(65);
  EXPECT_TRUE(c == d);
  EXPECT_FALSE(a == d);
}

constexpr std::string_view kRecordDtd = R"(
  <!-- a small record schema -->
  <!ELEMENT record (header, body+, note?)>
  <!ELEMENT header (title)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT body (#PCDATA|em)*>
  <!ELEMENT em (#PCDATA)>
  <!ELEMENT note EMPTY>
  <!ATTLIST record id CDATA #REQUIRED
                   lang (en|it) "en">
  <!ATTLIST note ref CDATA #IMPLIED>
)";

TEST(SchemaDtdTest, ParsesDeclarationsAndDerivedTables) {
  auto schema = Schema::ParseDtd(kRecordDtd);
  ASSERT_TRUE(schema.ok()) << schema.status();

  int record = schema->TypeId("record");
  int header = schema->TypeId("header");
  int title = schema->TypeId("title");
  int body = schema->TypeId("body");
  int em = schema->TypeId("em");
  int note = schema->TypeId("note");
  ASSERT_GE(record, 0);
  ASSERT_GE(header, 0);
  ASSERT_GE(title, 0);
  ASSERT_GE(body, 0);
  ASSERT_GE(em, 0);
  ASSERT_GE(note, 0);
  EXPECT_EQ(schema->root_type(), record);
  EXPECT_EQ(schema->TypeId("nope"), -1);
  EXPECT_EQ(schema->TypeName(em), "em");

  // Alphabet membership and requiredness.
  EXPECT_TRUE(schema->AllowsChild(record, header));
  EXPECT_TRUE(schema->AllowsChild(record, note));
  EXPECT_FALSE(schema->AllowsChild(record, em));
  EXPECT_TRUE(schema->AllowsChildName(body, "em"));
  EXPECT_FALSE(schema->AllowsChildName(body, "header"));
  EXPECT_TRUE(schema->IsRequiredChild(record, header));
  EXPECT_TRUE(schema->IsRequiredChild(record, body));
  EXPECT_FALSE(schema->IsRequiredChild(record, note));
  EXPECT_TRUE(schema->IsRequiredChild(header, title));
  EXPECT_FALSE(schema->IsRequiredChild(body, em));

  // Mixed content and EMPTY.
  EXPECT_TRUE(schema->AllowsText(body));
  EXPECT_TRUE(schema->MayHaveText(title));
  EXPECT_FALSE(schema->MayHaveText(record));
  EXPECT_FALSE(schema->MayHaveText(note));

  // Attributes.
  EXPECT_TRUE(schema->HasAttribute(record, "id"));
  EXPECT_TRUE(schema->HasAttribute(record, "lang"));
  EXPECT_FALSE(schema->HasAttribute(record, "ref"));
  EXPECT_TRUE(schema->MayHaveAttributes(note));
  EXPECT_FALSE(schema->MayHaveAttributes(body));
  ASSERT_EQ(schema->Attributes(record).size(), 2u);
  EXPECT_TRUE(schema->Attributes(record)[0].required);
  EXPECT_FALSE(schema->Attributes(record)[1].required);

  // Content-model word membership.
  EXPECT_TRUE(schema->AcceptsChildren(record, {"header", "body"}));
  EXPECT_TRUE(
      schema->AcceptsChildren(record, {"header", "body", "body", "note"}));
  EXPECT_FALSE(schema->AcceptsChildren(record, {"header"}));  // body+ missing
  EXPECT_FALSE(schema->AcceptsChildren(record, {"body", "header"}));
  EXPECT_FALSE(
      schema->AcceptsChildren(record, {"header", "body", "note", "note"}));
  EXPECT_TRUE(schema->AcceptsChildren(body, {}));
  EXPECT_TRUE(schema->AcceptsChildren(body, {"em", "em", "em"}));
  EXPECT_TRUE(schema->AcceptsChildren(note, {}));
  EXPECT_FALSE(schema->AcceptsChildren(note, {"em"}));

  // Level tables: record at 0, header/body/note at 1, title/em at 2.
  EXPECT_TRUE(schema->ElementTypesAtLevel(0).Test(record));
  EXPECT_EQ(schema->ElementTypesAtLevel(0).Count(), 1u);
  const TypeSet& l1 = schema->ElementTypesAtLevel(1);
  EXPECT_TRUE(l1.Test(header));
  EXPECT_TRUE(l1.Test(body));
  EXPECT_TRUE(l1.Test(note));
  EXPECT_FALSE(l1.Test(title));
  const TypeSet& l2 = schema->ElementTypesAtLevel(2);
  EXPECT_TRUE(l2.Test(title));
  EXPECT_TRUE(l2.Test(em));
  EXPECT_FALSE(l2.Test(header));
  // The schema is finite-depth: nothing lives at level 3.
  EXPECT_TRUE(schema->ElementTypesAtLevel(3).Empty());
  EXPECT_TRUE(schema->ElementTypesAtLevel(64).Empty());

  // Descendant closure.
  TypeSet from_record(schema->num_types());
  from_record.Set(record);
  TypeSet below = schema->ProperDescendantTypes(from_record);
  EXPECT_TRUE(below.Test(header));
  EXPECT_TRUE(below.Test(title));
  EXPECT_TRUE(below.Test(em));
  EXPECT_FALSE(below.Test(record));
  TypeSet from_note(schema->num_types());
  from_note.Set(note);
  EXPECT_TRUE(schema->ProperDescendantTypes(from_note).Empty());
}

TEST(SchemaDtdTest, UndeclaredReferencesBecomeImplicitAny) {
  auto schema = Schema::ParseDtd("<!ELEMENT r (mystery+)>");
  ASSERT_TRUE(schema.ok()) << schema.status();
  int mystery = schema->TypeId("mystery");
  ASSERT_GE(mystery, 0);
  EXPECT_TRUE(schema->AllowsAny(mystery));
  EXPECT_TRUE(schema->MayHaveText(mystery));
  EXPECT_TRUE(schema->MayHaveAttributes(mystery));
  // ANY admits every declared type, so the level table saturates instead
  // of cutting off below the undeclared type.
  EXPECT_TRUE(schema->ElementTypesAtLevel(2).Test(schema->TypeId("r")));
}

TEST(SchemaDtdTest, RecursiveContentModelsSaturateTheLevelTable) {
  auto schema = Schema::ParseDtd(
      "<!ELEMENT tree (leaf | tree)*>"
      "<!ELEMENT leaf (#PCDATA)>");
  ASSERT_TRUE(schema.ok()) << schema.status();
  int tree = schema->TypeId("tree");
  int leaf = schema->TypeId("leaf");
  // Far past any tabulated depth the set must stay a sound
  // over-approximation, not become empty.
  const TypeSet& deep = schema->ElementTypesAtLevel(100000);
  EXPECT_TRUE(deep.Test(tree));
  EXPECT_TRUE(deep.Test(leaf));
}

TEST(SchemaDtdTest, RejectsMalformedDeclarations) {
  EXPECT_FALSE(Schema::ParseDtd("").ok());
  EXPECT_FALSE(Schema::ParseDtd("<!ELEMENT r (a)> <!ELEMENT r (b)>").ok());
  EXPECT_FALSE(Schema::ParseDtd("<!ELEMENT r (a,>").ok());
  EXPECT_FALSE(Schema::ParseDtd("<!WHATEVER r>").ok());
  EXPECT_FALSE(Schema::ParseDtd("<!ELEMENT r (#PCDATA|a)>").ok());
  EXPECT_FALSE(Schema::ParseDtd("<!ELEMENT r EMPTY> <!ATTLIST r a CDATA>")
                   .ok());
}

// The generator's output is the document the soundness argument leans
// on; walk one and check full conformance against the builtin DTD.
TEST(BuiltinXmarkTest, GeneratedDocumentConforms) {
  Schema schema = Schema::BuiltinXmark();
  EXPECT_EQ(schema.TypeName(schema.root_type()), "site");

  xmark::Config config;
  config.target_bytes = 96 << 10;
  config.seed = 7;
  auto doc = xmark::GenerateDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();

  label::Labeling labeling = label::Labeling::Build(*doc);
  size_t elements = 0;
  for (xml::NodeId id : doc->AllNodesInOrder()) {
    if (doc->type(id) != xml::NodeType::kElement) continue;
    ++elements;
    int type = schema.TypeId(doc->name(id));
    ASSERT_GE(type, 0) << "undeclared element <" << doc->name(id) << ">";

    // Depth table admits the node.
    auto label = labeling.Get(id);
    ASSERT_TRUE(label.ok()) << label.status();
    EXPECT_TRUE(schema.ElementTypesAtLevel(label->level).Test(type))
        << "<" << doc->name(id) << "> unexpected at level " << label->level;

    // Attributes are declared.
    for (xml::NodeId attr : doc->attributes(id)) {
      EXPECT_TRUE(schema.HasAttribute(type, doc->name(attr)))
          << "undeclared @" << doc->name(attr) << " on <" << doc->name(id)
          << ">";
    }

    // Child sequence is a word of the content model; text children only
    // under mixed-content types.
    std::vector<std::string> child_names;
    for (xml::NodeId child : doc->children(id)) {
      if (doc->type(child) == xml::NodeType::kText) {
        EXPECT_TRUE(schema.AllowsText(type))
            << "text child under <" << doc->name(id) << ">";
      } else {
        child_names.emplace_back(doc->name(child));
      }
    }
    EXPECT_TRUE(schema.AcceptsChildren(type, child_names))
        << "<" << doc->name(id) << "> rejects its own child sequence";
  }
  EXPECT_GT(elements, 100u);
}

// --- Touched-type summaries -------------------------------------------

// Finds the first element named `name` in document order.
xml::NodeId FindElement(const xml::Document& doc, std::string_view name) {
  for (xml::NodeId id : doc.AllNodesInOrder()) {
    if (doc.type(id) == xml::NodeType::kElement && doc.name(id) == name) {
      return id;
    }
  }
  return xml::kInvalidNode;
}

struct XmarkFixture {
  Schema schema = Schema::BuiltinXmark();
  xml::Document doc;
  label::Labeling labeling;

  XmarkFixture() {
    xmark::Config config;
    config.target_bytes = 48 << 10;
    config.seed = 11;
    auto generated = xmark::GenerateDocument(config);
    EXPECT_TRUE(generated.ok()) << generated.status();
    doc = std::move(*generated);
    labeling = label::Labeling::Build(doc);
  }
};

TEST(TypeSummaryTest, AttributeEditVersusDeepDeleteProvesIndependent) {
  XmarkFixture fx;
  xml::NodeId person = FindElement(fx.doc, "person");
  xml::NodeId item = FindElement(fx.doc, "item");
  ASSERT_NE(person, xml::kInvalidNode);
  ASSERT_NE(item, xml::kInvalidNode);
  ASSERT_FALSE(fx.doc.attributes(person).empty());
  xml::NodeId person_id_attr = fx.doc.attributes(person)[0];

  pul::Pul a;
  a.BindIdSpace(fx.doc.max_assigned_id() + 1);
  ASSERT_TRUE(a.AddStringOp(pul::OpKind::kReplaceValue, person_id_attr,
                            fx.labeling, "p-new")
                  .ok());
  pul::Pul b;
  b.BindIdSpace(fx.doc.max_assigned_id() + 1000);
  ASSERT_TRUE(b.AddDelete(item, fx.labeling).ok());

  TypeSummary sa = InferTouchedTypes(fx.schema, a);
  TypeSummary sb = InferTouchedTypes(fx.schema, b);
  ASSERT_FALSE(sa.unknown);
  ASSERT_FALSE(sb.unknown);

  // The attribute edit touches only Attr atoms of level-2 attributed
  // types; the item deletion kills the item subtree, none of which can
  // be a person/@id.
  int person_type = fx.schema.TypeId("person");
  int item_type = fx.schema.TypeId("item");
  EXPECT_TRUE(sa.targets.Test(AttrAtom(person_type)));
  EXPECT_FALSE(sa.targets.Test(ElemAtom(person_type)));
  EXPECT_FALSE(sa.targets.Test(TextAtom(person_type)));
  EXPECT_TRUE(sb.targets.Test(ElemAtom(item_type)));
  // item's subtree reaches description -> text (#PCDATA): both the
  // element atoms and the text content land in the kill set.
  EXPECT_TRUE(sb.killed.Test(ElemAtom(fx.schema.TypeId("description"))));
  EXPECT_TRUE(sb.killed.Test(TextAtom(fx.schema.TypeId("text"))));

  EXPECT_EQ(DecideIndependence(sa, sb), SchemaVerdict::kProvenIndependent);
  EXPECT_EQ(SchemaVerdictName(SchemaVerdict::kProvenIndependent),
            "proven-independent");
}

TEST(TypeSummaryTest, SameLevelTextTargetsStayUnknown) {
  XmarkFixture fx;
  // Two text edits whose owners share a depth: the type-level view
  // cannot split them, so the verdict must abstain.
  xml::NodeId person = FindElement(fx.doc, "person");
  ASSERT_NE(person, xml::kInvalidNode);
  xml::NodeId name = xml::kInvalidNode;
  for (xml::NodeId child : fx.doc.children(person)) {
    if (fx.doc.name(child) == "name") name = child;
  }
  ASSERT_NE(name, xml::kInvalidNode);
  ASSERT_FALSE(fx.doc.children(name).empty());
  xml::NodeId name_text = fx.doc.children(name)[0];

  pul::Pul a;
  a.BindIdSpace(fx.doc.max_assigned_id() + 1);
  ASSERT_TRUE(a.AddStringOp(pul::OpKind::kReplaceValue, name_text,
                            fx.labeling, "left")
                  .ok());
  pul::Pul b;
  b.BindIdSpace(fx.doc.max_assigned_id() + 1000);
  ASSERT_TRUE(b.AddStringOp(pul::OpKind::kReplaceValue, name_text,
                            fx.labeling, "right")
                  .ok());

  TypeSummary sa = InferTouchedTypes(fx.schema, a);
  TypeSummary sb = InferTouchedTypes(fx.schema, b);
  EXPECT_EQ(DecideIndependence(sa, sb), SchemaVerdict::kUnknown);
}

TEST(TypeSummaryTest, InvalidLabelAbstains) {
  XmarkFixture fx;
  pul::Pul chained;
  chained.BindIdSpace(fx.doc.max_assigned_id() + 1);
  // Target an id the labeling has never seen: the op carries no label,
  // exactly like a PUL built against a prior PUL's insertions.
  label::Labeling empty_labeling;
  ASSERT_FALSE(chained
                   .AddStringOp(pul::OpKind::kRename,
                                fx.doc.max_assigned_id() + 500, empty_labeling,
                                "zz")
                   .ok());
  // Build the op through the raw mutable interface instead.
  pul::UpdateOp op;
  op.kind = pul::OpKind::kRename;
  op.target = fx.doc.max_assigned_id() + 500;
  op.param_string = "zz";
  chained.mutable_ops().push_back(op);

  TypeSummary summary = InferTouchedTypes(fx.schema, chained);
  EXPECT_TRUE(summary.unknown);
  EXPECT_EQ(DecideIndependence(summary, summary), SchemaVerdict::kUnknown);
}

// --- Schema lint -------------------------------------------------------

std::string Golden(const analysis::DiagnosticReport& report) {
  std::string out;
  for (const analysis::Diagnostic& d : report) {
    out += d.code;
    out += " op=" + std::to_string(d.op_index);
    out += " ";
    out += analysis::SeverityName(d.severity);
    out += ": " + d.message + "\n";
  }
  return out;
}

TEST(SchemaLintTest, FlagsInvalidInsertionAndUndeclaredAttribute) {
  XmarkFixture fx;
  xml::NodeId person = FindElement(fx.doc, "person");
  ASSERT_NE(person, xml::kInvalidNode);

  pul::Pul pul;
  pul.BindIdSpace(fx.doc.max_assigned_id() + 1);
  auto bogus = pul.AddFragment("<bogus/>");
  ASSERT_TRUE(bogus.ok()) << bogus.status();
  ASSERT_TRUE(pul.AddTreeOp(pul::OpKind::kInsLast, person, fx.labeling,
                            {*bogus})
                  .ok());
  ASSERT_TRUE(pul.AddTreeOp(pul::OpKind::kInsAttributes, person, fx.labeling,
                            {pul.NewAttributeParam("nonsuch", "v")})
                  .ok());
  // A legitimate insertion draws no finding: <watch> under an
  // open_auction-level parent... use an address under person instead.
  auto address = pul.AddFragment("<address/>");
  ASSERT_TRUE(address.ok()) << address.status();
  ASSERT_TRUE(pul.AddTreeOp(pul::OpKind::kInsLast, person, fx.labeling,
                            {*address})
                  .ok());

  analysis::DiagnosticReport report =
      analysis::LintPulWithSchema(fx.schema, pul);
  ASSERT_EQ(report.size(), 2u) << Golden(report);
  EXPECT_EQ(report[0].code, analysis::kCodeSchemaInvalidInsertion);
  EXPECT_EQ(report[0].op_index, 0);
  EXPECT_EQ(report[1].code, analysis::kCodeUndeclaredAttribute);
  EXPECT_EQ(report[1].op_index, 1);
}

TEST(SchemaLintTest, FlagsRequiredChildDeletion) {
  auto schema = Schema::ParseDtd(
      "<!ELEMENT r (a, b)>"
      "<!ELEMENT a (#PCDATA)>"
      "<!ELEMENT b (#PCDATA)>");
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto doc = xml::ParseDocument("<r><a>1</a><b>2</b></r>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  label::Labeling labeling = label::Labeling::Build(*doc);
  xml::NodeId a = FindElement(*doc, "a");
  ASSERT_NE(a, xml::kInvalidNode);

  pul::Pul pul;
  pul.BindIdSpace(doc->max_assigned_id() + 1);
  ASSERT_TRUE(pul.AddDelete(a, labeling).ok());
  analysis::DiagnosticReport report =
      analysis::LintPulWithSchema(*schema, pul);
  ASSERT_EQ(report.size(), 1u) << Golden(report);
  EXPECT_EQ(report[0].code, analysis::kCodeDeletesRequiredChild);
  EXPECT_EQ(report[0].severity, analysis::Severity::kWarning);
}

TEST(SchemaLintTest, CleanPulDrawsNoFindings) {
  XmarkFixture fx;
  xml::NodeId person = FindElement(fx.doc, "person");
  ASSERT_NE(person, xml::kInvalidNode);
  pul::Pul pul;
  pul.BindIdSpace(fx.doc.max_assigned_id() + 1);
  ASSERT_TRUE(pul.AddStringOp(pul::OpKind::kRename, person, fx.labeling,
                              "person")
                  .ok());
  EXPECT_TRUE(analysis::LintPulWithSchema(fx.schema, pul).empty());
}

}  // namespace
}  // namespace xupdate::schema
