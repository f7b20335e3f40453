#include "pul/apply.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "label/labeling.h"
#include "testing/test_docs.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xupdate::pul {
namespace {

using xml::Document;
using xml::NodeId;

class ApplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = xupdate::testing::PaperFigureDocument();
    labeling_ = label::Labeling::Build(doc_);
  }

  Pul MakePul() {
    Pul p;
    p.BindIdSpace(doc_.max_assigned_id() + 1);
    return p;
  }

  std::string Serialize() {
    auto s = xml::SerializeDocument(doc_);
    return s.ok() ? *s : "<error>";
  }

  Document doc_;
  label::Labeling labeling_;
};

TEST_F(ApplyTest, DeleteRemovesSubtree) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(14, labeling_).ok());
  ApplyOptions opts;
  opts.labeling = &labeling_;
  ASSERT_TRUE(ApplyPul(&doc_, p, opts).ok());
  EXPECT_FALSE(doc_.Exists(14));
  EXPECT_FALSE(doc_.Exists(15));
  EXPECT_TRUE(labeling_.Validate(doc_).ok());
}

TEST_F(ApplyTest, InsertSiblings) {
  Pul p = MakePul();
  auto t1 = p.AddFragment("<n1/>");
  auto t2 = p.AddFragment("<n2/>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsBefore, 5, labeling_, {*t1}).ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAfter, 5, labeling_, {*t2}).ok());
  ApplyOptions opts;
  opts.labeling = &labeling_;
  ASSERT_TRUE(ApplyPul(&doc_, p, opts).ok());
  const auto& kids = doc_.children(4);
  ASSERT_EQ(kids.size(), 5u);
  EXPECT_EQ(doc_.name(kids[0]), "n1");
  EXPECT_EQ(kids[1], 5u);
  EXPECT_EQ(doc_.name(kids[2]), "n2");
  EXPECT_TRUE(labeling_.Validate(doc_).ok()) << labeling_.Validate(doc_);
}

TEST_F(ApplyTest, InsertMultipleTreesKeepsParameterOrder) {
  Pul p = MakePul();
  auto a = p.AddFragment("<a/>");
  auto b = p.AddFragment("<b/>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAfter, 5, labeling_, {*a, *b}).ok());
  ASSERT_TRUE(ApplyPul(&doc_, p).ok());
  const auto& kids = doc_.children(4);
  EXPECT_EQ(doc_.name(kids[1]), "a");
  EXPECT_EQ(doc_.name(kids[2]), "b");
}

TEST_F(ApplyTest, InsertFirstAndLast) {
  Pul p = MakePul();
  auto a = p.AddFragment("<first/>");
  auto b = p.AddFragment("<last/>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsFirst, 4, labeling_, {*a}).ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsLast, 4, labeling_, {*b}).ok());
  ApplyOptions opts;
  opts.labeling = &labeling_;
  ASSERT_TRUE(ApplyPul(&doc_, p, opts).ok());
  const auto& kids = doc_.children(4);
  EXPECT_EQ(doc_.name(kids.front()), "first");
  EXPECT_EQ(doc_.name(kids.back()), "last");
  EXPECT_TRUE(labeling_.Validate(doc_).ok());
}

TEST_F(ApplyTest, InsIntoDefaultsToChosenPosition) {
  Pul p1 = MakePul();
  auto a = p1.AddFragment("<n/>");
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsInto, 16, labeling_, {*a}).ok());
  Document doc_first = doc_;
  ApplyOptions first;
  first.ins_into = InsIntoPosition::kAsFirst;
  ASSERT_TRUE(ApplyPul(&doc_first, p1, first).ok());
  EXPECT_EQ(doc_first.name(doc_first.children(16).front()), "n");

  Document doc_last = doc_;
  ApplyOptions last;
  last.ins_into = InsIntoPosition::kAsLast;
  ASSERT_TRUE(ApplyPul(&doc_last, p1, last).ok());
  EXPECT_EQ(doc_last.name(doc_last.children(16).back()), "n");
}

TEST_F(ApplyTest, InsertAttributes) {
  Pul p = MakePul();
  NodeId a1 = p.NewAttributeParam("initPage", "132");
  NodeId a2 = p.NewAttributeParam("lastPage", "134");
  ASSERT_TRUE(
      p.AddTreeOp(OpKind::kInsAttributes, 4, labeling_, {a1, a2}).ok());
  ApplyOptions opts;
  opts.labeling = &labeling_;
  ASSERT_TRUE(ApplyPul(&doc_, p, opts).ok());
  EXPECT_EQ(doc_.attributes(4).size(), 2u);
  EXPECT_TRUE(labeling_.Validate(doc_).ok());
}

TEST_F(ApplyTest, DuplicateAttributeNameIsDynamicError) {
  Pul p = MakePul();
  NodeId a1 = p.NewAttributeParam("position", "01");
  // Element 7 already has @position.
  ASSERT_TRUE(
      p.AddTreeOp(OpKind::kInsAttributes, 7, labeling_, {a1}).ok());
  std::string before = Serialize();
  EXPECT_EQ(CheckPulApplicable(doc_, p).code(), StatusCode::kNotApplicable);
  EXPECT_EQ(ApplyPul(&doc_, p).code(), StatusCode::kNotApplicable);
  EXPECT_EQ(Serialize(), before);  // caught before the document changed
}

// The duplicate-name check predicts the attributes each element ends
// with: ren, del and repN of an attribute change the names in play, and
// an element the PUL removes has nothing left to clash.
TEST_F(ApplyTest, DuplicateAttributeNamesArePredictedFromThePreState) {
  struct Case {
    const char* name;
    bool applicable;
    std::function<void(Pul*)> build;
  };
  auto ins_position = [this](Pul* p) {
    NodeId a = p->NewAttributeParam("position", "01");
    ASSERT_TRUE(p->AddTreeOp(OpKind::kInsAttributes, 7, labeling_, {a}).ok());
  };
  const std::vector<Case> cases = {
      {"rename onto an inserted name", false,
       [&](Pul* p) {
         NodeId a = p->NewAttributeParam("rank", "1");
         ASSERT_TRUE(
             p->AddTreeOp(OpKind::kInsAttributes, 7, labeling_, {a}).ok());
         ASSERT_TRUE(p->AddStringOp(OpKind::kRename, 9, labeling_, "rank")
                         .ok());
       }},
      {"replace with a clashing pair", false,
       [&](Pul* p) {
         NodeId a = p->NewAttributeParam("rank", "1");
         NodeId b = p->NewAttributeParam("rank", "2");
         ASSERT_TRUE(
             p->AddTreeOp(OpKind::kReplaceNode, 9, labeling_, {a, b}).ok());
       }},
      {"delete frees the name", true,
       [&](Pul* p) {
         ins_position(p);
         ASSERT_TRUE(p->AddDelete(9, labeling_).ok());
       }},
      {"rename frees the name", true,
       [&](Pul* p) {
         ins_position(p);
         ASSERT_TRUE(p->AddStringOp(OpKind::kRename, 9, labeling_, "rank")
                         .ok());
       }},
      {"replace frees the name", true,
       [&](Pul* p) {
         ins_position(p);
         NodeId a = p->NewAttributeParam("rank", "1");
         ASSERT_TRUE(
             p->AddTreeOp(OpKind::kReplaceNode, 9, labeling_, {a}).ok());
       }},
      {"element deleted", true,
       [&](Pul* p) {
         ins_position(p);
         ASSERT_TRUE(p->AddDelete(6, labeling_).ok());
       }},
      {"element emptied away by repC", true,
       [&](Pul* p) {
         ins_position(p);
         ASSERT_TRUE(
             p->AddTreeOp(OpKind::kReplaceChildren, 4, labeling_, {}).ok());
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Pul p = MakePul();
    c.build(&p);
    Document doc = doc_;
    std::string before = Serialize();
    Status checked = CheckPulApplicable(doc, p);
    Status applied = ApplyPul(&doc, p);
    EXPECT_EQ(checked.ok(), c.applicable) << checked;
    EXPECT_EQ(applied.ok(), c.applicable) << applied;
    if (!c.applicable) {
      EXPECT_EQ(checked.code(), StatusCode::kNotApplicable);
      EXPECT_EQ(xml::SerializeDocument(doc).value(), before);
    }
  }
}

// Materialization keeps parameter-tree ids, so ids in use are caught
// before the document changes.
TEST_F(ApplyTest, ParameterIdInUseIsCaughtUpFront) {
  Pul p;  // no BindIdSpace: the fragment gets id 1, the document root
  auto tree = p.AddFragment("<x/>");
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(doc_.Exists(*tree));
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsLast, 4, labeling_, {*tree}).ok());
  std::string before = Serialize();
  EXPECT_EQ(CheckPulApplicable(doc_, p).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ApplyPul(&doc_, p).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Serialize(), before);

  // One parameter tree handed to two operations: the second copy would
  // clash with the first.
  Pul shared = MakePul();
  auto x = shared.AddFragment("<x/>");
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(
      shared.AddTreeOp(OpKind::kInsLast, 4, labeling_, {*x}).ok());
  ASSERT_TRUE(
      shared.AddTreeOp(OpKind::kInsLast, 16, labeling_, {*x}).ok());
  EXPECT_EQ(CheckPulApplicable(doc_, shared).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ApplyPul(&doc_, shared).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Serialize(), before);
}

TEST_F(ApplyTest, ReplaceNode) {
  Pul p = MakePul();
  auto r = p.AddFragment("<replacement>v</replacement>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceNode, 5, labeling_, {*r}).ok());
  ApplyOptions opts;
  opts.labeling = &labeling_;
  ASSERT_TRUE(ApplyPul(&doc_, p, opts).ok());
  EXPECT_FALSE(doc_.Exists(5));
  EXPECT_EQ(doc_.name(doc_.children(4)[0]), "replacement");
  EXPECT_TRUE(labeling_.Validate(doc_).ok());
}

TEST_F(ApplyTest, ReplaceNodeWithNothingDeletes) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceNode, 5, labeling_, {}).ok());
  ASSERT_TRUE(ApplyPul(&doc_, p).ok());
  EXPECT_FALSE(doc_.Exists(5));
  EXPECT_EQ(doc_.children(4).size(), 2u);
}

TEST_F(ApplyTest, ReplaceValueAndRename) {
  Pul p = MakePul();
  ASSERT_TRUE(
      p.AddStringOp(OpKind::kReplaceValue, 11, labeling_, "New Title").ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "subject").ok());
  ASSERT_TRUE(
      p.AddStringOp(OpKind::kReplaceValue, 9, labeling_, "07").ok());
  ASSERT_TRUE(ApplyPul(&doc_, p).ok());
  EXPECT_EQ(doc_.value(11), "New Title");
  EXPECT_EQ(doc_.name(5), "subject");
  EXPECT_EQ(doc_.value(9), "07");
}

TEST_F(ApplyTest, ReplaceChildren) {
  Pul p = MakePul();
  NodeId t = p.NewTextParam("just text");
  ASSERT_TRUE(
      p.AddTreeOp(OpKind::kReplaceChildren, 4, labeling_, {t}).ok());
  ApplyOptions opts;
  opts.labeling = &labeling_;
  ASSERT_TRUE(ApplyPul(&doc_, p, opts).ok());
  ASSERT_EQ(doc_.children(4).size(), 1u);
  EXPECT_EQ(doc_.value(doc_.children(4)[0]), "just text");
  EXPECT_FALSE(doc_.Exists(5));
  EXPECT_FALSE(doc_.Exists(6));
  EXPECT_TRUE(labeling_.Validate(doc_).ok());
}

TEST_F(ApplyTest, StagePrecedenceDeleteLast) {
  // ren + del on the same node: rename happens (stage 1), then delete
  // (stage 5); net effect is deletion.
  Pul p = MakePul();
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "gone").ok());
  ASSERT_TRUE(p.AddDelete(5, labeling_).ok());
  ASSERT_TRUE(ApplyPul(&doc_, p).ok());
  EXPECT_FALSE(doc_.Exists(5));
}

TEST_F(ApplyTest, SiblingInsertionSurvivesTargetDeletion) {
  // ins-> on node 5 plus del(5): the inserted sibling remains.
  Pul p = MakePul();
  auto t = p.AddFragment("<kept/>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAfter, 5, labeling_, {*t}).ok());
  ASSERT_TRUE(p.AddDelete(5, labeling_).ok());
  ASSERT_TRUE(ApplyPul(&doc_, p).ok());
  EXPECT_FALSE(doc_.Exists(5));
  bool found = false;
  for (NodeId c : doc_.children(4)) {
    if (doc_.name(c) == "kept") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ApplyTest, NestedDeletesAreSilentlyComplete) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(7, labeling_).ok());
  ASSERT_TRUE(p.AddDelete(6, labeling_).ok());
  ASSERT_TRUE(ApplyPul(&doc_, p).ok());
  EXPECT_FALSE(doc_.Exists(6));
  EXPECT_FALSE(doc_.Exists(7));
}

TEST_F(ApplyTest, ApplicabilityErrors) {
  Pul p = MakePul();
  // Target does not exist.
  UpdateOp op;
  op.kind = OpKind::kDelete;
  op.target = 4040;
  ASSERT_TRUE(p.AddOp(op).ok());
  EXPECT_EQ(ApplyPul(&doc_, p).code(), StatusCode::kNotApplicable);
}

TEST_F(ApplyTest, ApplicabilityTypeConditions) {
  label::Labeling& lab = labeling_;
  {
    // repV on an element is not applicable.
    Pul p = MakePul();
    ASSERT_TRUE(p.AddStringOp(OpKind::kReplaceValue, 5, lab, "x").ok());
    Document d = doc_;
    EXPECT_EQ(ApplyPul(&d, p).code(), StatusCode::kNotApplicable);
  }
  {
    // ren on a text node is not applicable.
    Pul p = MakePul();
    ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 11, lab, "x").ok());
    Document d = doc_;
    EXPECT_EQ(ApplyPul(&d, p).code(), StatusCode::kNotApplicable);
  }
  {
    // child insertion into a text node is not applicable.
    Pul p = MakePul();
    auto t = p.AddFragment("<x/>");
    ASSERT_TRUE(p.AddTreeOp(OpKind::kInsLast, 11, lab, {*t}).ok());
    Document d = doc_;
    EXPECT_EQ(ApplyPul(&d, p).code(), StatusCode::kNotApplicable);
  }
  {
    // sibling insertion on the root (no parent) is not applicable.
    Pul p = MakePul();
    auto t = p.AddFragment("<x/>");
    ASSERT_TRUE(p.AddTreeOp(OpKind::kInsBefore, 1, lab, {*t}).ok());
    Document d = doc_;
    EXPECT_EQ(ApplyPul(&d, p).code(), StatusCode::kNotApplicable);
  }
  {
    // repN kind mismatch: attribute target, element replacement.
    Pul p = MakePul();
    auto t = p.AddFragment("<x/>");
    ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceNode, 9, lab, {*t}).ok());
    Document d = doc_;
    EXPECT_EQ(ApplyPul(&d, p).code(), StatusCode::kNotApplicable);
  }
  {
    // ren to an invalid XML name.
    Pul p = MakePul();
    ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, lab, "1bad name").ok());
    Document d = doc_;
    EXPECT_EQ(ApplyPul(&d, p).code(), StatusCode::kNotApplicable);
  }
}

TEST_F(ApplyTest, IncompatiblePulRejected) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "a").ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "b").ok());
  EXPECT_EQ(ApplyPul(&doc_, p).code(), StatusCode::kIncompatible);
}

TEST_F(ApplyTest, ReplaceAttributeNode) {
  Pul p = MakePul();
  NodeId na = p.NewAttributeParam("order", "first");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceNode, 9, labeling_, {na}).ok());
  ApplyOptions opts;
  opts.labeling = &labeling_;
  ASSERT_TRUE(ApplyPul(&doc_, p, opts).ok());
  ASSERT_EQ(doc_.attributes(7).size(), 1u);
  EXPECT_EQ(doc_.name(doc_.attributes(7)[0]), "order");
  EXPECT_TRUE(labeling_.Validate(doc_).ok());
}

// The replacement of a non-last attribute takes the replaced one's place
// in the attribute list, so its label must lie before the next
// attribute's, not after the last one's.
TEST_F(ApplyTest, ReplacedAttributeIsLabeledInPlace) {
  auto doc = xml::ParseDocument("<r><f a=\"1\" c=\"3\">t</f></r>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  label::Labeling labeling = label::Labeling::Build(*doc);
  NodeId f = doc->children(doc->root())[0];
  NodeId a = doc->attributes(f)[0];
  Pul p;
  p.BindIdSpace(doc->max_assigned_id() + 1);
  ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceNode, a, labeling,
                          {p.NewAttributeParam("a", "w")})
                  .ok());
  ApplyOptions opts;
  opts.labeling = &labeling;
  ASSERT_TRUE(ApplyPul(&*doc, p, opts).ok());
  ASSERT_EQ(doc->attributes(f).size(), 2u);
  EXPECT_EQ(doc->value(doc->attributes(f)[0]), "w");
  EXPECT_TRUE(labeling.Validate(*doc).ok()) << labeling.Validate(*doc);
}

TEST_F(ApplyTest, InsertedNodesKeepProducerIds) {
  Pul p = MakePul();
  auto t = p.AddFragment("<n><m/></n>");
  ASSERT_TRUE(t.ok());
  NodeId m = p.forest().children(*t)[0];
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsLast, 4, labeling_, {*t}).ok());
  ASSERT_TRUE(ApplyPul(&doc_, p).ok());
  EXPECT_TRUE(doc_.Exists(*t));
  EXPECT_TRUE(doc_.Exists(m));
  EXPECT_EQ(doc_.name(m), "m");
}

}  // namespace
}  // namespace xupdate::pul
