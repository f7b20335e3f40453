#include "xml/document.h"

#include <gtest/gtest.h>

#include "testing/test_docs.h"

namespace xupdate::xml {
namespace {

class DocumentTest : public ::testing::Test {
 protected:
  // <r><a x="1">t1</a><b/></r>
  void SetUp() override {
    root_ = doc_.NewElement("r");
    a_ = doc_.NewElement("a");
    b_ = doc_.NewElement("b");
    text_ = doc_.NewText("t1");
    attr_ = doc_.NewAttribute("x", "1");
    ASSERT_TRUE(doc_.SetRoot(root_).ok());
    ASSERT_TRUE(doc_.AppendChild(root_, a_).ok());
    ASSERT_TRUE(doc_.AppendChild(root_, b_).ok());
    ASSERT_TRUE(doc_.AppendChild(a_, text_).ok());
    ASSERT_TRUE(doc_.AddAttribute(a_, attr_).ok());
  }

  Document doc_;
  NodeId root_, a_, b_, text_, attr_;
};

TEST_F(DocumentTest, BasicAccessors) {
  EXPECT_EQ(doc_.root(), root_);
  EXPECT_EQ(doc_.name(root_), "r");
  EXPECT_EQ(doc_.type(text_), NodeType::kText);
  EXPECT_EQ(doc_.value(text_), "t1");
  EXPECT_EQ(doc_.name(attr_), "x");
  EXPECT_EQ(doc_.value(attr_), "1");
  EXPECT_EQ(doc_.parent(a_), root_);
  EXPECT_EQ(doc_.children(root_).size(), 2u);
  EXPECT_EQ(doc_.attributes(a_).size(), 1u);
  EXPECT_TRUE(doc_.Validate().ok());
}

TEST_F(DocumentTest, IdsNeverReused) {
  NodeId before = doc_.max_assigned_id();
  ASSERT_TRUE(doc_.DeleteSubtree(b_).ok());
  NodeId fresh = doc_.NewElement("c");
  EXPECT_GT(fresh, before);
  EXPECT_FALSE(doc_.Exists(b_));
}

TEST_F(DocumentTest, AccessToMissingNodeStopsTheProgram) {
  ASSERT_TRUE(doc_.DeleteSubtree(b_).ok());
  EXPECT_DEATH(doc_.type(b_), "no node");
  EXPECT_DEATH(doc_.children(doc_.max_assigned_id() + 1000), "no node");
}

TEST_F(DocumentTest, InsertBeforeAndAfter) {
  NodeId n1 = doc_.NewElement("n1");
  NodeId n2 = doc_.NewElement("n2");
  ASSERT_TRUE(doc_.InsertBefore(a_, n1).ok());
  ASSERT_TRUE(doc_.InsertAfter(a_, n2).ok());
  const auto& kids = doc_.children(root_);
  ASSERT_EQ(kids.size(), 4u);
  EXPECT_EQ(kids[0], n1);
  EXPECT_EQ(kids[1], a_);
  EXPECT_EQ(kids[2], n2);
  EXPECT_EQ(kids[3], b_);
  EXPECT_TRUE(doc_.Validate().ok());
}

TEST_F(DocumentTest, PrependChild) {
  NodeId n = doc_.NewElement("n");
  ASSERT_TRUE(doc_.PrependChild(root_, n).ok());
  EXPECT_EQ(doc_.children(root_)[0], n);
}

TEST_F(DocumentTest, InsertionRequiresDetachedNode) {
  EXPECT_FALSE(doc_.AppendChild(root_, a_).ok());
  EXPECT_FALSE(doc_.InsertBefore(b_, a_).ok());
}

TEST_F(DocumentTest, AttributeCannotBeChild) {
  NodeId bad = doc_.NewAttribute("y", "2");
  EXPECT_FALSE(doc_.AppendChild(root_, bad).ok());
  EXPECT_FALSE(doc_.InsertBefore(a_, bad).ok());
}

TEST_F(DocumentTest, NonAttributeCannotBeAttribute) {
  NodeId bad = doc_.NewElement("e");
  EXPECT_FALSE(doc_.AddAttribute(root_, bad).ok());
}

TEST_F(DocumentTest, TextCannotHaveChildren) {
  NodeId n = doc_.NewElement("n");
  EXPECT_FALSE(doc_.AppendChild(text_, n).ok());
}

TEST_F(DocumentTest, DeleteSubtreeRemovesAllNodes) {
  ASSERT_TRUE(doc_.DeleteSubtree(a_).ok());
  EXPECT_FALSE(doc_.Exists(a_));
  EXPECT_FALSE(doc_.Exists(text_));
  EXPECT_FALSE(doc_.Exists(attr_));
  EXPECT_EQ(doc_.children(root_).size(), 1u);
  EXPECT_TRUE(doc_.Validate().ok());
}

TEST_F(DocumentTest, ReplaceNodePreservesPosition) {
  NodeId r1 = doc_.NewElement("r1");
  NodeId r2 = doc_.NewElement("r2");
  std::vector<NodeId> reps = {r1, r2};
  ASSERT_TRUE(doc_.ReplaceNode(a_, reps).ok());
  const auto& kids = doc_.children(root_);
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(kids[0], r1);
  EXPECT_EQ(kids[1], r2);
  EXPECT_EQ(kids[2], b_);
  EXPECT_FALSE(doc_.Exists(a_));
  EXPECT_TRUE(doc_.Validate().ok());
}

TEST_F(DocumentTest, ReplaceNodeWithNothingDeletes) {
  ASSERT_TRUE(doc_.ReplaceNode(a_, {}).ok());
  EXPECT_EQ(doc_.children(root_).size(), 1u);
}

TEST_F(DocumentTest, ReplaceAttributeWithAttribute) {
  NodeId na = doc_.NewAttribute("z", "9");
  std::vector<NodeId> reps = {na};
  ASSERT_TRUE(doc_.ReplaceNode(attr_, reps).ok());
  ASSERT_EQ(doc_.attributes(a_).size(), 1u);
  EXPECT_EQ(doc_.name(doc_.attributes(a_)[0]), "z");
}

TEST_F(DocumentTest, ReplaceNodeKindMismatchFails) {
  NodeId elem = doc_.NewElement("e");
  std::vector<NodeId> reps = {elem};
  EXPECT_FALSE(doc_.ReplaceNode(attr_, reps).ok());
}

TEST_F(DocumentTest, ReplaceChildren) {
  NodeId t = doc_.NewText("new");
  std::vector<NodeId> reps = {t};
  ASSERT_TRUE(doc_.ReplaceChildren(a_, reps).ok());
  ASSERT_EQ(doc_.children(a_).size(), 1u);
  EXPECT_EQ(doc_.value(doc_.children(a_)[0]), "new");
  EXPECT_FALSE(doc_.Exists(text_));
  // Attributes survive repC.
  EXPECT_TRUE(doc_.Exists(attr_));
}

TEST_F(DocumentTest, RenameAndSetValue) {
  ASSERT_TRUE(doc_.Rename(a_, "renamed").ok());
  EXPECT_EQ(doc_.name(a_), "renamed");
  ASSERT_TRUE(doc_.SetValue(text_, "t2").ok());
  EXPECT_EQ(doc_.value(text_), "t2");
  EXPECT_FALSE(doc_.Rename(text_, "nope").ok());
  EXPECT_FALSE(doc_.SetValue(a_, "nope").ok());
}

TEST_F(DocumentTest, DocumentOrderCompare) {
  // root < attr? attributes come after their element, before children.
  EXPECT_EQ(doc_.Compare(root_, a_), -1);
  EXPECT_EQ(doc_.Compare(a_, attr_), -1);
  EXPECT_EQ(doc_.Compare(attr_, text_), -1);
  EXPECT_EQ(doc_.Compare(text_, b_), -1);
  EXPECT_EQ(doc_.Compare(b_, a_), 1);
  EXPECT_EQ(doc_.Compare(a_, a_), 0);
}

TEST_F(DocumentTest, LevelAndAncestry) {
  EXPECT_EQ(doc_.Level(root_), 0);
  EXPECT_EQ(doc_.Level(a_), 1);
  EXPECT_EQ(doc_.Level(text_), 2);
  EXPECT_TRUE(doc_.IsAncestor(root_, text_));
  EXPECT_TRUE(doc_.IsAncestor(a_, attr_));
  EXPECT_FALSE(doc_.IsAncestor(b_, text_));
  EXPECT_FALSE(doc_.IsAncestor(a_, a_));
}

TEST_F(DocumentTest, AllNodesInOrder) {
  std::vector<NodeId> order = doc_.AllNodesInOrder();
  std::vector<NodeId> expected = {root_, a_, attr_, text_, b_};
  EXPECT_EQ(order, expected);
}

TEST_F(DocumentTest, AdoptSubtreePreservingIds) {
  Document other;
  auto adopted = other.AdoptSubtree(doc_, a_, /*preserve_ids=*/true);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(*adopted, a_);
  EXPECT_TRUE(other.Exists(text_));
  EXPECT_TRUE(other.Exists(attr_));
  EXPECT_TRUE(Document::SubtreeEquals(doc_, a_, other, a_, true));
}

TEST_F(DocumentTest, AdoptSubtreeFreshIds) {
  Document other;
  auto adopted = other.AdoptSubtree(doc_, a_, /*preserve_ids=*/false);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(other.node_count(), 3u);
  EXPECT_TRUE(Document::SubtreeEquals(doc_, a_, other, *adopted, false));
}

TEST_F(DocumentTest, AdoptClashingIdsFails) {
  Document other;
  ASSERT_TRUE(
      other.CreateWithId(a_, NodeType::kElement, "conflict", "").ok());
  EXPECT_FALSE(
      other.AdoptSubtree(doc_, a_, /*preserve_ids=*/true).ok());
}

TEST_F(DocumentTest, SubtreeEqualsIgnoresAttributeOrder) {
  Document d1;
  NodeId e1 = d1.NewElement("e");
  (void)d1.AddAttribute(e1, d1.NewAttribute("p", "1"));
  (void)d1.AddAttribute(e1, d1.NewAttribute("q", "2"));
  Document d2;
  NodeId e2 = d2.NewElement("e");
  (void)d2.AddAttribute(e2, d2.NewAttribute("q", "2"));
  (void)d2.AddAttribute(e2, d2.NewAttribute("p", "1"));
  EXPECT_TRUE(Document::SubtreeEquals(d1, e1, d2, e2, false));
}

TEST_F(DocumentTest, CreateWithIdRejectsDuplicates) {
  EXPECT_FALSE(doc_.CreateWithId(a_, NodeType::kElement, "dup", "").ok());
  EXPECT_FALSE(doc_.CreateWithId(0, NodeType::kElement, "zero", "").ok());
}

TEST_F(DocumentTest, PaperFigureDocumentIsValid) {
  Document doc = xupdate::testing::PaperFigureDocument();
  EXPECT_TRUE(doc.Validate().ok());
  EXPECT_EQ(doc.root(), 1u);
  EXPECT_TRUE(doc.Exists(16));
  EXPECT_EQ(doc.children(16).size(), 2u);
}

}  // namespace
}  // namespace xupdate::xml
