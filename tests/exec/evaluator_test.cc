#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "exec/in_memory.h"
#include "exec/streaming.h"
#include "label/labeling.h"
#include "pul/apply.h"
#include "pul/obtainable.h"
#include "testing/test_docs.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xupdate::exec {
namespace {

using pul::OpKind;
using pul::Pul;
using xml::Document;
using xml::NodeId;

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = xupdate::testing::PaperFigureDocument();
    labeling_ = label::Labeling::Build(doc_);
    xml::SerializeOptions opts;
    opts.with_ids = true;
    auto text = xml::SerializeDocument(doc_, opts);
    ASSERT_TRUE(text.ok());
    doc_text_ = *text;
  }

  Pul MakePul() {
    Pul p;
    p.BindIdSpace(doc_.max_assigned_id() + 1);
    return p;
  }

  // Runs both engines, checks they agree, returns the updated document.
  Document EvaluateBoth(const Pul& pul) {
    InMemoryEvaluator in_memory;
    StreamingEvaluator streaming;
    auto mem = in_memory.Evaluate(doc_text_, pul);
    auto str = streaming.Evaluate(doc_text_, pul);
    EXPECT_TRUE(mem.ok()) << mem.status();
    EXPECT_TRUE(str.ok()) << str.status();
    if (!mem.ok() || !str.ok()) return Document();
    EXPECT_EQ(*mem, *str) << "engines disagree";
    auto parsed = xml::ParseDocument(*str);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    return parsed.ok() ? std::move(*parsed) : Document();
  }

  Document doc_;
  label::Labeling labeling_;
  std::string doc_text_;
};

TEST_F(EvaluatorTest, DeleteElement) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(14, labeling_).ok());
  Document out = EvaluateBoth(p);
  EXPECT_FALSE(out.Exists(14));
  EXPECT_FALSE(out.Exists(15));
  EXPECT_TRUE(out.Exists(16));
}

TEST_F(EvaluatorTest, SiblingInsertionsAroundDeletedNode) {
  Pul p = MakePul();
  auto pre = p.AddFragment("<pre/>");
  auto post = p.AddFragment("<post/>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsBefore, 14, labeling_, {*pre}).ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAfter, 14, labeling_, {*post}).ok());
  ASSERT_TRUE(p.AddDelete(14, labeling_).ok());
  Document out = EvaluateBoth(p);
  EXPECT_FALSE(out.Exists(14));
  EXPECT_TRUE(out.Exists(*pre));
  EXPECT_TRUE(out.Exists(*post));
  // pre and post are adjacent where 14 used to be.
  int i_pre = out.ChildIndex(*pre);
  int i_post = out.ChildIndex(*post);
  EXPECT_EQ(i_pre + 1, i_post);
}

TEST_F(EvaluatorTest, ReplaceNodeEmitsReplacementInPlace) {
  Pul p = MakePul();
  auto r = p.AddFragment("<swapped><inner/></swapped>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceNode, 14, labeling_, {*r}).ok());
  Document out = EvaluateBoth(p);
  EXPECT_FALSE(out.Exists(14));
  ASSERT_TRUE(out.Exists(*r));
  EXPECT_EQ(out.ChildIndex(*r), 2);  // position of old node 14 under 2
}

TEST_F(EvaluatorTest, AllInsertionKindsAgree) {
  Pul p = MakePul();
  auto a = p.AddFragment("<a/>");
  auto b = p.AddFragment("<b/>");
  auto c = p.AddFragment("<c/>");
  auto d = p.AddFragment("<d/>");
  auto e = p.AddFragment("<e/>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsFirst, 16, labeling_, {*a}).ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsLast, 16, labeling_, {*b}).ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsInto, 16, labeling_, {*c}).ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsBefore, 17, labeling_, {*d}).ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAfter, 17, labeling_, {*e}).ok());
  Document out = EvaluateBoth(p);
  // Expected child order of 16: a(insFirst), c(insInto@first), d, 17, e,
  // 19, b(insLast).
  const auto& kids = out.children(16);
  ASSERT_EQ(kids.size(), 7u);
  EXPECT_EQ(kids[0], *a);
  EXPECT_EQ(kids[1], *c);
  EXPECT_EQ(kids[2], *d);
  EXPECT_EQ(kids[3], 17u);
  EXPECT_EQ(kids[4], *e);
  EXPECT_EQ(kids[5], 19u);
  EXPECT_EQ(kids[6], *b);
}

TEST_F(EvaluatorTest, AttributeOperations) {
  Pul p = MakePul();
  NodeId add1 = p.NewAttributeParam("initPage", "132");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAttributes, 4, labeling_, {add1}).ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kReplaceValue, 9, labeling_, "07").ok());
  Document out = EvaluateBoth(p);
  EXPECT_EQ(out.attributes(4).size(), 1u);
  EXPECT_EQ(out.value(9), "07");
}

TEST_F(EvaluatorTest, AttributeRenameReplaceDelete) {
  {
    Pul p = MakePul();
    ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 9, labeling_, "pos").ok());
    Document out = EvaluateBoth(p);
    EXPECT_EQ(out.name(9), "pos");
  }
  {
    Pul p = MakePul();
    NodeId rep = p.NewAttributeParam("order", "1st");
    ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceNode, 9, labeling_, {rep}).ok());
    Document out = EvaluateBoth(p);
    EXPECT_FALSE(out.Exists(9));
    ASSERT_EQ(out.attributes(7).size(), 1u);
    EXPECT_EQ(out.name(out.attributes(7)[0]), "order");
  }
  {
    Pul p = MakePul();
    ASSERT_TRUE(p.AddDelete(9, labeling_).ok());
    Document out = EvaluateBoth(p);
    EXPECT_TRUE(out.attributes(7).empty());
  }
}

TEST_F(EvaluatorTest, ReplaceChildrenAndValue) {
  Pul p = MakePul();
  NodeId t = p.NewTextParam("only text now");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceChildren, 4, labeling_, {t}).ok());
  ASSERT_TRUE(
      p.AddStringOp(OpKind::kReplaceValue, 15, labeling_, "Updated").ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 16, labeling_, "writers").ok());
  Document out = EvaluateBoth(p);
  ASSERT_EQ(out.children(4).size(), 1u);
  EXPECT_EQ(out.value(out.children(4)[0]), "only text now");
  EXPECT_EQ(out.value(15), "Updated");
  EXPECT_EQ(out.name(16), "writers");
}

TEST_F(EvaluatorTest, TextNodeSiblingInsertions) {
  Pul p = MakePul();
  auto before = p.AddFragment("<bf/>");
  auto after = p.AddFragment("<af/>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsBefore, 15, labeling_, {*before}).ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAfter, 15, labeling_, {*after}).ok());
  Document out = EvaluateBoth(p);
  const auto& kids = out.children(14);
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(kids[0], *before);
  EXPECT_EQ(kids[1], 15u);
  EXPECT_EQ(kids[2], *after);
}

TEST_F(EvaluatorTest, MissingTargetFailsBothEngines) {
  Pul p = MakePul();
  pul::UpdateOp op;
  op.kind = OpKind::kDelete;
  op.target = 987654;
  ASSERT_TRUE(p.AddOp(op).ok());
  InMemoryEvaluator in_memory;
  StreamingEvaluator streaming;
  EXPECT_EQ(in_memory.Evaluate(doc_text_, p).status().code(),
            StatusCode::kNotApplicable);
  EXPECT_EQ(streaming.Evaluate(doc_text_, p).status().code(),
            StatusCode::kNotApplicable);
}

TEST_F(EvaluatorTest, DuplicateAttributeFailsBothEngines) {
  Pul p = MakePul();
  NodeId dup = p.NewAttributeParam("position", "11");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAttributes, 7, labeling_, {dup}).ok());
  InMemoryEvaluator in_memory;
  StreamingEvaluator streaming;
  EXPECT_FALSE(in_memory.Evaluate(doc_text_, p).ok());
  EXPECT_FALSE(streaming.Evaluate(doc_text_, p).ok());
}

TEST_F(EvaluatorTest, EmptyPulIsIdentity) {
  Pul p = MakePul();
  InMemoryEvaluator in_memory;
  StreamingEvaluator streaming;
  auto mem = in_memory.Evaluate(doc_text_, p);
  auto str = streaming.Evaluate(doc_text_, p);
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(*mem, doc_text_);
  EXPECT_EQ(*str, doc_text_);
}

TEST_F(EvaluatorTest, UnannotatedInputGetsDocumentOrderIds) {
  // Both engines accept plain XML and assign the same ids the DOM parser
  // would, so a PUL built against the parsed form applies cleanly.
  const std::string plain = "<r><x>v</x><y/></r>";  // ids 1,2,3,4
  auto doc = xml::ParseDocument(plain);
  ASSERT_TRUE(doc.ok());
  label::Labeling labeling = label::Labeling::Build(*doc);
  Pul p;
  p.BindIdSpace(100);
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 2, labeling, "z").ok());
  InMemoryEvaluator in_memory;
  StreamingEvaluator streaming;
  auto mem = in_memory.Evaluate(plain, p);
  auto str = streaming.Evaluate(plain, p);
  ASSERT_TRUE(mem.ok()) << mem.status();
  ASSERT_TRUE(str.ok()) << str.status();
  EXPECT_EQ(*mem, *str);
  EXPECT_NE(str->find("<z"), std::string::npos);
}

// Property sweep: on random documents and random applicable PULs the two
// engines produce byte-identical output, and that output matches a
// direct DOM application.
class EngineEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalenceTest, StreamingMatchesInMemory) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6151 + 3);
  Document doc = xupdate::testing::RandomDocument(rng, 18);
  label::Labeling labeling = label::Labeling::Build(doc);
  xml::SerializeOptions opts;
  opts.with_ids = true;
  auto text = xml::SerializeDocument(doc, opts);
  ASSERT_TRUE(text.ok());

  xupdate::testing::RandomPulOptions pul_opts;
  pul_opts.max_ops = 5;
  Pul pul = xupdate::testing::RandomPul(rng, doc, labeling, pul_opts);
  // Every PUL also replaces one attribute in place, unless RandomPul
  // already replaces it, so the labeled application below covers
  // attribute repN on every element position.
  std::vector<NodeId> attributes;
  for (NodeId id : doc.AllNodesInOrder()) {
    if (doc.type(id) == xml::NodeType::kAttribute) attributes.push_back(id);
  }
  if (!attributes.empty()) {
    NodeId attr =
        attributes[static_cast<size_t>(rng.Below(attributes.size()))];
    bool replaced = false;
    for (const pul::UpdateOp& op : pul.ops()) {
      replaced |= op.kind == OpKind::kReplaceNode && op.target == attr;
    }
    if (!replaced) {
      ASSERT_TRUE(pul.AddTreeOp(OpKind::kReplaceNode, attr, labeling,
                                {pul.NewAttributeParam(
                                    std::string(doc.name(attr)), "w")})
                      .ok());
    }
  }

  InMemoryEvaluator in_memory;
  StreamingEvaluator streaming;
  auto mem = in_memory.Evaluate(*text, pul);
  auto str = streaming.Evaluate(*text, pul);
  ASSERT_TRUE(mem.ok()) << mem.status();
  ASSERT_TRUE(str.ok()) << str.status();
  EXPECT_EQ(*mem, *str);

  // Cross-check against direct DOM application.
  Document direct = doc;
  ASSERT_TRUE(pul::ApplyPul(&direct, pul).ok());
  auto direct_text = xml::SerializeDocument(direct, opts);
  ASSERT_TRUE(direct_text.ok());
  EXPECT_EQ(*direct_text, *mem);

  // Incremental label maintenance over the same application: the labels
  // of the updated document must validate.
  Document labeled = doc;
  label::Labeling labels = labeling;
  ASSERT_TRUE(pul::ApplyPul(&labeled, pul, {.labeling = &labels}).ok());
  EXPECT_TRUE(labels.Validate(labeled).ok()) << labels.Validate(labeled);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, EngineEquivalenceTest,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace xupdate::exec
