#include "pul/pul_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "label/labeling.h"
#include "pul/apply.h"
#include "pul/obtainable.h"
#include "testing/test_docs.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"
#include "xml/parser.h"

namespace xupdate::pul {
namespace {

using xml::Document;
using xml::NodeId;
using xml::NodeType;

// ---------------------------------------------------------------------------
// Reference reader: the two-pass algorithm ParsePul used before the
// one-pass SAX reader. It parses the whole record into a temporary
// Document (wrapper elements take ids from 2^62 up, clear of the
// producer's ids), then walks it and deep-copies each <elem> parameter
// into the PUL's forest. Test-only: the oracle ParsePul is compared with.

Result<std::string> ReferenceAttrValue(const Document& doc, NodeId node,
                                       std::string_view name, bool required) {
  for (NodeId a : doc.attributes(node)) {
    if (doc.name(a) == name) return std::string(doc.value(a));
  }
  if (required) {
    return Status::ParseError("missing attribute \"" + std::string(name) +
                              "\" on <" + std::string(doc.name(node)) + ">");
  }
  return std::string();
}

Status ReferenceParseOp(const Document& temp, NodeId op_node, Pul* out) {
  UpdateOp op;
  XUPDATE_ASSIGN_OR_RETURN(std::string kind_name,
                           ReferenceAttrValue(temp, op_node, "kind", true));
  if (!OpKindFromName(kind_name, &op.kind)) {
    return Status::ParseError("unknown op kind \"" + kind_name + "\"");
  }
  XUPDATE_ASSIGN_OR_RETURN(std::string target_text,
                           ReferenceAttrValue(temp, op_node, "target", true));
  int64_t target = ParseNonNegativeInt(target_text);
  if (target <= 0) return Status::ParseError("bad op target id");
  op.target = static_cast<NodeId>(target);
  XUPDATE_ASSIGN_OR_RETURN(std::string label_text,
                           ReferenceAttrValue(temp, op_node, "label", false));
  if (!label_text.empty()) {
    XUPDATE_ASSIGN_OR_RETURN(op.target_label,
                             label::NodeLabel::Parse(label_text, op.target));
  }
  XUPDATE_ASSIGN_OR_RETURN(op.param_string,
                           ReferenceAttrValue(temp, op_node, "arg", false));
  for (NodeId param : temp.children(op_node)) {
    if (temp.type(param) != NodeType::kElement) {
      return Status::ParseError("unexpected content inside <op>");
    }
    std::string_view wrapper = temp.name(param);
    if (wrapper == "elem") {
      const auto& kids = temp.children(param);
      if (kids.size() != 1 || temp.type(kids[0]) != NodeType::kElement) {
        return Status::ParseError("<elem> must wrap exactly one element");
      }
      XUPDATE_ASSIGN_OR_RETURN(
          NodeId adopted,
          out->forest().AdoptSubtree(temp, kids[0], /*preserve_ids=*/true));
      op.param_trees.push_back(adopted);
    } else if (wrapper == "text" || wrapper == "attr") {
      XUPDATE_ASSIGN_OR_RETURN(std::string id_text,
                               ReferenceAttrValue(temp, param, "id", true));
      int64_t id = ParseNonNegativeInt(id_text);
      if (id <= 0) return Status::ParseError("bad parameter node id");
      XUPDATE_ASSIGN_OR_RETURN(std::string value,
                               ReferenceAttrValue(temp, param, "value", true));
      if (wrapper == "text") {
        XUPDATE_RETURN_IF_ERROR(out->forest().CreateWithId(
            static_cast<NodeId>(id), NodeType::kText, "", value));
      } else {
        XUPDATE_ASSIGN_OR_RETURN(std::string name,
                                 ReferenceAttrValue(temp, param, "name", true));
        XUPDATE_RETURN_IF_ERROR(out->forest().CreateWithId(
            static_cast<NodeId>(id), NodeType::kAttribute, name, value));
      }
      op.param_trees.push_back(static_cast<NodeId>(id));
    } else {
      return Status::ParseError("unknown parameter wrapper <" +
                                std::string(wrapper) + ">");
    }
  }
  return out->AddOp(std::move(op));
}

Result<Pul> ReferenceParsePul(std::string_view xml_text) {
  if (xml_text.find('\0') != std::string_view::npos) {
    return Status::ParseError("serialized PUL contains an embedded NUL byte");
  }
  Document temp;
  temp.ReserveIdsBelow(NodeId{1} << 62);
  xml::ParseOptions options;
  options.sax.keep_whitespace_text = true;
  XUPDATE_ASSIGN_OR_RETURN(NodeId root,
                           xml::ParseFragment(&temp, xml_text, options));
  if (temp.name(root) != "pul") {
    return Status::ParseError("root element must be <pul>");
  }
  Pul out;
  for (NodeId child : temp.children(root)) {
    if (temp.type(child) != NodeType::kElement) {
      return Status::ParseError("unexpected content inside <pul>");
    }
    if (temp.name(child) == "policies") {
      Policies p;
      XUPDATE_ASSIGN_OR_RETURN(
          std::string order,
          ReferenceAttrValue(temp, child, "insertionOrder", false));
      XUPDATE_ASSIGN_OR_RETURN(
          std::string inserted,
          ReferenceAttrValue(temp, child, "insertedData", false));
      XUPDATE_ASSIGN_OR_RETURN(
          std::string removed,
          ReferenceAttrValue(temp, child, "removedData", false));
      p.preserve_insertion_order = order == "1";
      p.preserve_inserted_data = inserted == "1";
      p.preserve_removed_data = removed == "1";
      out.set_policies(p);
    } else if (temp.name(child) == "op") {
      XUPDATE_RETURN_IF_ERROR(ReferenceParseOp(temp, child, &out));
    } else {
      return Status::ParseError("unknown element <" +
                                std::string(temp.name(child)) +
                                "> inside <pul>");
    }
  }
  return out;
}

constexpr NodeId kUnannotatedFloor = NodeId{1} << 62;

// Both readers accept or both reject `wire`. When both accept they agree
// on the re-serialization, every op's param ids and the forest's id
// counter -- unless the record has unannotated <elem> nodes, whose
// numbering differs by design (UnannotatedParamsNumberFromTheFloor);
// then the parameter trees must still match node for node.
void ExpectReadersAgree(std::string_view wire, const std::string& what) {
  Result<Pul> fast = ParsePul(wire);
  Result<Pul> reference = ReferenceParsePul(wire);
  ASSERT_EQ(fast.ok(), reference.ok())
      << what << "\n  ParsePul: " << fast.status()
      << "\n  reference: " << reference.status();
  if (!fast.ok()) return;
  ASSERT_EQ(fast->size(), reference->size()) << what;
  if (fast->forest().max_assigned_id() >= kUnannotatedFloor) {
    for (size_t i = 0; i < fast->size(); ++i) {
      const UpdateOp& a = fast->ops()[i];
      const UpdateOp& b = reference->ops()[i];
      EXPECT_EQ(a.kind, b.kind) << what;
      EXPECT_EQ(a.target, b.target) << what;
      ASSERT_EQ(a.param_trees.size(), b.param_trees.size()) << what;
      for (size_t t = 0; t < a.param_trees.size(); ++t) {
        EXPECT_TRUE(Document::SubtreeEquals(
            fast->forest(), a.param_trees[t], reference->forest(),
            b.param_trees[t], /*compare_ids=*/false))
            << what << " op " << i;
      }
    }
    return;
  }
  auto fast_wire = SerializePul(*fast);
  auto reference_wire = SerializePul(*reference);
  ASSERT_EQ(fast_wire.ok(), reference_wire.ok()) << what;
  if (fast_wire.ok()) {
    EXPECT_EQ(*fast_wire, *reference_wire) << what;
  }
  EXPECT_EQ(fast->forest().max_assigned_id(),
            reference->forest().max_assigned_id())
      << what;
  for (size_t i = 0; i < fast->size(); ++i) {
    EXPECT_EQ(fast->ops()[i].param_trees, reference->ops()[i].param_trees)
        << what << " op " << i;
  }
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class PulIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = xupdate::testing::PaperFigureDocument();
    labeling_ = label::Labeling::Build(doc_);
  }

  Pul MakeRichPul() {
    Pul p;
    p.BindIdSpace(doc_.max_assigned_id() + 1);
    auto elem = p.AddFragment("<author lang=\"en\">M. Mesiti &amp; co</author>");
    EXPECT_TRUE(elem.ok());
    NodeId attr = p.NewAttributeParam("initPage", "132");
    NodeId text = p.NewTextParam("plain \"text\" <value>");
    EXPECT_TRUE(p.AddTreeOp(OpKind::kInsAfter, 19, labeling_, {*elem}).ok());
    EXPECT_TRUE(
        p.AddTreeOp(OpKind::kInsAttributes, 4, labeling_, {attr}).ok());
    EXPECT_TRUE(
        p.AddTreeOp(OpKind::kReplaceChildren, 3, labeling_, {text}).ok());
    EXPECT_TRUE(
        p.AddStringOp(OpKind::kReplaceValue, 15, labeling_, "new & value")
            .ok());
    EXPECT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "title2").ok());
    EXPECT_TRUE(p.AddDelete(14, labeling_).ok());
    Policies pol;
    pol.preserve_inserted_data = true;
    p.set_policies(pol);
    return p;
  }

  Document doc_;
  label::Labeling labeling_;
};

TEST_F(PulIoTest, RoundTripPreservesEverything) {
  Pul p = MakeRichPul();
  auto text = SerializePul(p);
  ASSERT_TRUE(text.ok()) << text.status();
  auto back = ParsePul(*text);
  ASSERT_TRUE(back.ok()) << back.status() << "\n" << *text;

  ASSERT_EQ(back->size(), p.size());
  for (size_t i = 0; i < p.size(); ++i) {
    const UpdateOp& a = p.ops()[i];
    const UpdateOp& b = back->ops()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.param_string, b.param_string);
    EXPECT_EQ(a.target_label.valid(), b.target_label.valid());
    if (a.target_label.valid()) {
      EXPECT_EQ(testing::LabelText(a.target_label),
                testing::LabelText(b.target_label));
    }
    ASSERT_EQ(a.param_trees.size(), b.param_trees.size());
    for (size_t t = 0; t < a.param_trees.size(); ++t) {
      EXPECT_EQ(a.param_trees[t], b.param_trees[t]);  // ids preserved
      EXPECT_TRUE(Document::SubtreeEquals(p.forest(), a.param_trees[t],
                                          back->forest(), b.param_trees[t],
                                          /*compare_ids=*/true));
    }
  }
  EXPECT_TRUE(back->policies().preserve_inserted_data);
  EXPECT_FALSE(back->policies().preserve_insertion_order);
}

TEST_F(PulIoTest, RoundTrippedPulAppliesIdentically) {
  Pul p = MakeRichPul();
  auto text = SerializePul(p);
  ASSERT_TRUE(text.ok());
  auto back = ParsePul(*text);
  ASSERT_TRUE(back.ok());

  Document d1 = doc_;
  Document d2 = doc_;
  ASSERT_TRUE(ApplyPul(&d1, p).ok());
  ASSERT_TRUE(ApplyPul(&d2, *back).ok());
  EXPECT_EQ(CanonicalForm(d1), CanonicalForm(d2));
}

TEST_F(PulIoTest, SerializedFormIsStable) {
  Pul p;
  p.BindIdSpace(100);
  ASSERT_TRUE(p.AddDelete(14, labeling_).ok());
  auto text = SerializePul(p);
  ASSERT_TRUE(text.ok());
  auto second = SerializePul(p);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*text, *second);
  EXPECT_NE(text->find("<op kind=\"del\" target=\"14\""),
            std::string::npos);
}

// SerializePul sizes its output from its ops before writing it, so the
// string is allocated once: never grown by doubling past its bound.
TEST_F(PulIoTest, SerializeSizesItsOutputOnce) {
  auto expect_sized = [](const Pul& pul, const std::string& what) {
    auto text = SerializePul(pul);
    ASSERT_TRUE(text.ok()) << what << ": " << text.status();
    EXPECT_GE(text->capacity(), text->size()) << what;
    EXPECT_LE(text->capacity(), text->size() + text->size() / 4 + 128)
        << what;
  };
  expect_sized(MakeRichPul(), "rich PUL");
  xmark::Config config;
  config.target_bytes = 64 << 10;
  auto doc = xmark::GenerateDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();
  label::Labeling labeling = label::Labeling::Build(*doc);
  for (size_t num_ops : {1, 100, 4000}) {
    workload::PulGenerator gen(*doc, labeling, num_ops);
    workload::PulGenerator::PulOptions options;
    options.num_ops = num_ops;
    auto pul = gen.Generate(options);
    ASSERT_TRUE(pul.ok()) << pul.status();
    expect_sized(*pul, std::to_string(num_ops) + " generated ops");
  }
}

TEST_F(PulIoTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParsePul("<notpul/>").ok());
  EXPECT_FALSE(ParsePul("<pul><op/></pul>").ok());
  EXPECT_FALSE(ParsePul("<pul><op kind=\"zap\" target=\"1\"/></pul>").ok());
  EXPECT_FALSE(ParsePul("<pul><op kind=\"del\" target=\"x\"/></pul>").ok());
  EXPECT_FALSE(ParsePul("<pul><op kind=\"del\" target=\"1\" "
                        "label=\"broken\"/></pul>")
                   .ok());
  EXPECT_FALSE(
      ParsePul("<pul><op kind=\"insLast\" target=\"1\">"
               "<weird/></op></pul>")
          .ok());
  EXPECT_FALSE(
      ParsePul("<pul><op kind=\"insLast\" target=\"1\">"
               "<elem><a/><b/></elem></op></pul>")
          .ok());
  EXPECT_FALSE(ParsePul("not xml at all").ok());
}

TEST_F(PulIoTest, EmptyPulRoundTrips) {
  Pul p;
  auto text = SerializePul(p);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "<pul></pul>");
  auto back = ParsePul(*text);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST_F(PulIoTest, LabelTravelsWithOps) {
  Pul p;
  p.BindIdSpace(100);
  ASSERT_TRUE(p.AddDelete(14, labeling_).ok());
  auto text = SerializePul(p);
  ASSERT_TRUE(text.ok());
  auto back = ParsePul(*text);
  ASSERT_TRUE(back.ok());
  const label::NodeLabel& lab = back->ops()[0].target_label;
  ASSERT_TRUE(lab.valid());
  EXPECT_EQ(lab.parent, 2u);
  EXPECT_EQ(lab.type, xml::NodeType::kElement);
  // Label predicates work straight off the wire (document independence).
  const label::NodeLabel* anc = labeling_.Find(2);
  ASSERT_NE(anc, nullptr);
  EXPECT_TRUE(label::IsDescendantOf(lab, *anc));
}

// NUL is not a legal XML character: a serialized PUL carrying one would
// be silently truncated by any consumer that treats records as C
// strings, so both directions reject it outright.
TEST_F(PulIoTest, ParseRejectsEmbeddedNulByte) {
  std::string wire = "<pul><op kind=\"repV\" target=\"15\" arg=\"he";
  wire += '\0';
  wire += "llo\"/></pul>";
  auto back = ParsePul(wire);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
  EXPECT_NE(back.status().message().find("NUL"), std::string::npos);
}

TEST_F(PulIoTest, ParseRejectsNulInsideParameterValue) {
  std::string wire = "<pul><op kind=\"repN\" target=\"7\">"
                     "<text id=\"900\" value=\"x";
  wire += '\0';
  wire += "y\"/></op></pul>";
  EXPECT_FALSE(ParsePul(wire).ok());
}

TEST_F(PulIoTest, SerializeRejectsEmbeddedNulByte) {
  Pul p;
  p.BindIdSpace(doc_.max_assigned_id() + 1);
  std::string value = "trun";
  value += '\0';
  value += "cated";
  ASSERT_TRUE(
      p.AddStringOp(OpKind::kReplaceValue, 15, labeling_, value).ok());
  auto text = SerializePul(p);
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PulIoTest, SerializeRejectsNulInParameterTree) {
  Pul p;
  p.BindIdSpace(doc_.max_assigned_id() + 1);
  std::string value = "a";
  value += '\0';
  value += "b";
  NodeId text_param = p.NewTextParam(value);
  ASSERT_TRUE(
      p.AddTreeOp(OpKind::kReplaceChildren, 3, labeling_, {text_param}).ok());
  EXPECT_FALSE(SerializePul(p).ok());
}

// Truncated (unterminated) records must fail loudly, never parse as a
// shorter PUL.
TEST_F(PulIoTest, RejectsUnterminatedRecord) {
  Pul p = MakeRichPul();
  auto text = SerializePul(p);
  ASSERT_TRUE(text.ok());
  // Every proper prefix is either an unterminated record or (length 0)
  // empty input; none may parse successfully.
  for (size_t cut = 0; cut < text->size(); ++cut) {
    auto back = ParsePul(std::string_view(*text).substr(0, cut));
    EXPECT_FALSE(back.ok()) << "prefix of length " << cut << " parsed";
  }
}

TEST_F(PulIoTest, RejectsTrailingGarbageAfterRecord) {
  Pul p = MakeRichPul();
  auto text = SerializePul(p);
  ASSERT_TRUE(text.ok());
  EXPECT_FALSE(ParsePul(*text + "<extra/>").ok());
  EXPECT_FALSE(ParsePul(*text + "garbage").ok());
}

TEST_F(PulIoTest, ReserveOpsPresizesOperationList) {
  Pul p;
  p.ReserveOps(37);
  EXPECT_GE(p.ops().capacity(), 37u);
}

// The reader pre-sizes from element counts it already has: the op list
// from the <pul> child count, each param list from the <op> child
// count. Every child yields exactly one entry, so the vectors must come
// out exactly-sized — doubling growth would leave e.g. capacity 4 for
// 3 entries.
TEST_F(PulIoTest, ParseReservesOpAndParamLists) {
  Pul p = MakeRichPul();
  auto text = SerializePul(p);
  ASSERT_TRUE(text.ok());
  auto back = ParsePul(*text);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), p.size());
  // The op-list reserve counts <pul> children, which here includes the
  // <policies/> element: exactly one slot of slack.
  EXPECT_GE(back->ops().capacity(), back->ops().size());
  EXPECT_LE(back->ops().capacity(), back->ops().size() + 1);
  for (const UpdateOp& op : back->ops()) {
    EXPECT_EQ(op.param_trees.capacity(), op.param_trees.size())
        << OpKindName(op.kind);
  }
}

// ---------------------------------------------------------------------------
// Equivalence with the reference reader.

TEST(PulIoEquivalenceTest, GeneratedPulsMatchReference) {
  xmark::Config config;
  config.target_bytes = 256 << 10;
  auto doc = xmark::GenerateDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();
  label::Labeling labeling = label::Labeling::Build(*doc);
  for (size_t num_ops : {1, 20, 500, 1000, 10000}) {
    for (uint64_t seed : {1, 2, 3}) {
      workload::PulGenerator gen(*doc, labeling, seed);
      workload::PulGenerator::PulOptions options;
      options.num_ops = num_ops;
      options.reducible_fraction = seed == 2 ? 0.2 : 0.0;
      auto pul = gen.Generate(options);
      ASSERT_TRUE(pul.ok()) << pul.status();
      auto wire = SerializePul(*pul);
      ASSERT_TRUE(wire.ok()) << wire.status();
      const std::string what = std::to_string(num_ops) + " ops, seed " +
                               std::to_string(seed);
      ASSERT_TRUE(ParsePul(*wire).ok()) << what;
      ExpectReadersAgree(*wire, what);
    }
  }
}

TEST(PulIoEquivalenceTest, FuzzCorpusMatchesReference) {
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(XUPDATE_PUL_CORPUS_DIR)) {
    if (!entry.is_regular_file()) continue;
    ExpectReadersAgree(ReadFile(entry.path()), entry.path().string());
    ++files;
  }
  EXPECT_GE(files, 7u);
}

TEST_F(PulIoTest, EveryPrefixMatchesReference) {
  auto text = SerializePul(MakeRichPul());
  ASSERT_TRUE(text.ok());
  for (size_t cut = 0; cut <= text->size(); ++cut) {
    ExpectReadersAgree(std::string_view(*text).substr(0, cut),
                       "prefix of length " + std::to_string(cut));
  }
}

// Deliberate divergence: unannotated <elem> parameter nodes number from
// 2^62 up in the PUL's own forest. The reference reader numbered them
// from the temporary document's counter, after the <pul>, <op> and
// wrapper elements and their attributes had taken the first ids.
TEST(PulIoEquivalenceTest, UnannotatedParamsNumberFromTheFloor) {
  const std::string wire =
      "<pul><op kind=\"insLast\" target=\"3\">"
      "<elem><a x=\"1\">t</a></elem></op></pul>";
  auto fast = ParsePul(wire);
  ASSERT_TRUE(fast.ok()) << fast.status();
  auto reference = ReferenceParsePul(wire);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const NodeId root = fast->ops()[0].param_trees[0];
  EXPECT_EQ(root, kUnannotatedFloor);
  EXPECT_EQ(fast->forest().attributes(root)[0], kUnannotatedFloor + 1);
  EXPECT_EQ(fast->forest().children(root)[0], kUnannotatedFloor + 2);
  EXPECT_EQ(fast->forest().max_assigned_id(), kUnannotatedFloor + 2);
  const NodeId reference_root = reference->ops()[0].param_trees[0];
  EXPECT_GT(reference_root, kUnannotatedFloor);
  EXPECT_TRUE(Document::SubtreeEquals(fast->forest(), root,
                                      reference->forest(), reference_root,
                                      /*compare_ids=*/false));
}

// Deliberate divergence: id annotations are read only inside <elem>
// parameters. The reference reader built the whole record as one
// document, so an xu:ids or <?xuid?> on a wrapper element, between ops
// or inside ignored content could fail to parse or clash there; the
// one-pass reader ignores it like any other unknown wrapper attribute.
// Likewise an explicit id at the floor could clash with the reference's
// temporary <pul> element.
TEST(PulIoEquivalenceTest, AnnotationsOutsideElemParamsAreIgnored) {
  const std::string floor = std::to_string(kUnannotatedFloor);
  for (const std::string& wire : std::vector<std::string>{
           "<pul><op xu:ids=\"x\" kind=\"del\" target=\"3\"/></pul>",
           "<pul><?xuid 0?><op kind=\"del\" target=\"3\"/></pul>",
           "<pul><policies><p xu:ids=\"0\"/></policies></pul>",
           "<pul><op kind=\"repN\" target=\"3\"><text id=\"5\" "
           "value=\"v\"><t xu:ids=\"9\"/></text></op>"
           "<op kind=\"insLast\" target=\"4\"><elem><a xu:ids=\"9\"/>"
           "</elem></op></pul>",
           "<pul><op kind=\"insLast\" target=\"3\"><elem><a xu:ids=\"" +
               floor + "\"/></elem></op></pul>",
       }) {
    EXPECT_TRUE(ParsePul(wire).ok()) << wire;
    EXPECT_FALSE(ReferenceParsePul(wire).ok()) << wire;
  }
}

// ---------------------------------------------------------------------------
// Edge cases of the one-pass reader, each with the error it expects.

void ExpectParseError(std::string_view wire, std::string_view message) {
  auto back = ParsePul(wire);
  ASSERT_FALSE(back.ok()) << wire;
  EXPECT_NE(back.status().message().find(message), std::string::npos)
      << wire << "\n  got: " << back.status();
}

TEST(PulIoEdgeTest, RejectsTextDirectlyInsidePulOrOp) {
  ExpectParseError("<pul>x<op kind=\"del\" target=\"3\"/></pul>",
                   "unexpected content inside <pul>");
  ExpectParseError("<pul><op kind=\"del\" target=\"3\"/> </pul>",
                   "unexpected content inside <pul>");
  ExpectParseError("<pul><op kind=\"del\" target=\"3\">x</op></pul>",
                   "unexpected content inside <op>");
}

TEST(PulIoEdgeTest, RejectsMisshapenElemWrapper) {
  const std::string op = "<pul><op kind=\"insLast\" target=\"3\">";
  const std::string end = "</op></pul>";
  ExpectParseError(op + "<elem/>" + end,
                   "<elem> must wrap exactly one element");
  ExpectParseError(op + "<elem></elem>" + end,
                   "<elem> must wrap exactly one element");
  ExpectParseError(op + "<elem><a xu:ids=\"50\"/><b xu:ids=\"51\"/></elem>" +
                       end,
                   "<elem> must wrap exactly one element");
  ExpectParseError(op + "<elem>text</elem>" + end,
                   "<elem> must wrap exactly one element");
  ExpectParseError(op + "<elem><a xu:ids=\"50\"/>tail</elem>" + end,
                   "<elem> must wrap exactly one element");
}

TEST(PulIoEdgeTest, RejectsParamIdSharedByTwoOps) {
  ExpectParseError(
      "<pul><op kind=\"repN\" target=\"3\"><text id=\"50\" value=\"a\"/>"
      "</op><op kind=\"insLast\" target=\"4\"><elem><a xu:ids=\"50\"/>"
      "</elem></op></pul>",
      "node id already in use: 50");
  ExpectParseError(
      "<pul><op kind=\"insAttr\" target=\"3\"><attr id=\"50\" name=\"n\" "
      "value=\"a\"/></op><op kind=\"insAttr\" target=\"4\"><attr id=\"50\" "
      "name=\"m\" value=\"b\"/></op></pul>",
      "node id already in use: 50");
}

TEST(PulIoEdgeTest, RejectsMalformedIdAnnotation) {
  const std::string op = "<pul><op kind=\"insLast\" target=\"3\"><elem>";
  const std::string end = "</elem></op></pul>";
  ExpectParseError(op + "<a xu:ids=\"x\"/>" + end, "bad xu:ids self id");
  ExpectParseError(op + "<a xu:ids=\"50;1,y\" p=\"1\" q=\"2\"/>" + end,
                   "bad xu:ids attribute id");
  ExpectParseError(op + "<a xu:ids=\"50\"><?xuid -3?>t</a>" + end,
                   "bad <?xuid?> id");
}

TEST(PulIoEdgeTest, UnannotatedElemDoesNotClashWithExplicitIds) {
  for (const std::string& wire : std::vector<std::string>{
           "<pul><op kind=\"insLast\" target=\"3\"><elem><a>t</a></elem>"
           "</op><op kind=\"repC\" target=\"4\"><text id=\"1\" value=\"v\"/>"
           "</op></pul>",
           "<pul><op kind=\"repC\" target=\"4\"><text id=\"1\" value=\"v\"/>"
           "</op><op kind=\"insLast\" target=\"3\"><elem><a>t</a></elem>"
           "</op></pul>",
       }) {
    auto back = ParsePul(wire);
    ASSERT_TRUE(back.ok()) << back.status() << "\n" << wire;
    ASSERT_EQ(back->size(), 2u);
    EXPECT_EQ(back->forest().type(1), NodeType::kText);
    EXPECT_EQ(back->forest().max_assigned_id(), kUnannotatedFloor + 1);
  }
}

// Ids up to INT64_MAX travel through the codec both ways, as targets
// and as parameter ids; one more is refused.
TEST(PulIoEdgeTest, MaxNodeIdRoundTrips) {
  const std::string wire =
      "<pul><op kind=\"insLast\" target=\"9223372036854775807\"><elem>"
      "<a k=\"v\" xu:ids=\"9223372036854775805;9223372036854775806\">"
      "<?xuid 9223372036854775807?>t</a></elem></op>"
      "<op kind=\"repV\" target=\"9223372036854775806\" arg=\"w\"/></pul>";
  auto parsed = ParsePul(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->ops()[0].target, xml::kMaxNodeId);
  EXPECT_EQ(parsed->forest().value(xml::kMaxNodeId), "t");
  EXPECT_EQ(parsed->forest().value(xml::kMaxNodeId - 1), "v");
  auto text = SerializePul(*parsed);
  ASSERT_TRUE(text.ok()) << text.status();
  auto back = ParsePul(*text);
  ASSERT_TRUE(back.ok()) << back.status();
  auto again = SerializePul(*back);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *text);
  EXPECT_EQ(back->ops()[0].target, xml::kMaxNodeId);
  EXPECT_EQ(back->forest().value(xml::kMaxNodeId), "t");

  EXPECT_FALSE(ParsePul("<pul><op kind=\"del\" target=\"9223372036854775808\"/>"
                        "</pul>")
                   .ok());
}

TEST(PulIoEdgeTest, IgnoresContentOfPoliciesTextAndAttr) {
  auto back = ParsePul(
      "<pul><policies removedData=\"1\"> <p>x</p> </policies>"
      "<op kind=\"repN\" target=\"3\"><text id=\"50\" value=\"v\">"
      "<b/> y </text></op><op kind=\"insAttr\" target=\"4\">"
      "<attr id=\"51\" name=\"n\" value=\"w\">z<c/></attr></op></pul>");
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->policies().preserve_removed_data);
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ(back->forest().value(50), "v");
  EXPECT_EQ(back->forest().node_count(), 2u);
}

}  // namespace
}  // namespace xupdate::pul
