#include "label/labeling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "testing/test_docs.h"
#include "xml/parser.h"

namespace xupdate::label {
namespace {

using xml::Document;
using xml::NodeId;

TEST(LabelingTest, BuildLabelsEveryNode) {
  auto doc = xml::ParseDocument("<r a=\"1\"><b>t</b><c><d/></c></r>");
  ASSERT_TRUE(doc.ok());
  Labeling labeling = Labeling::Build(*doc);
  EXPECT_EQ(labeling.size(), doc->node_count());
  EXPECT_TRUE(labeling.Validate(*doc).ok());
}

TEST(LabelingTest, LabelFieldsMatchStructure) {
  auto doc = xml::ParseDocument("<r><b/><c/></r>");
  ASSERT_TRUE(doc.ok());
  Labeling labeling = Labeling::Build(*doc);
  NodeId root = doc->root();
  NodeId b = doc->children(root)[0];
  NodeId c = doc->children(root)[1];
  auto lb = labeling.Get(b);
  auto lc = labeling.Get(c);
  ASSERT_TRUE(lb.ok());
  ASSERT_TRUE(lc.ok());
  EXPECT_EQ(lb->parent, root);
  EXPECT_EQ(lb->level, 1u);
  EXPECT_EQ(lb->left_sibling, xml::kInvalidNode);
  EXPECT_FALSE(lb->is_last_child);
  EXPECT_EQ(lc->left_sibling, b);
  EXPECT_TRUE(lc->is_last_child);
}

TEST(LabelingTest, InsertedSubtreeGetsLabelsWithoutTouchingOthers) {
  auto doc = xml::ParseDocument("<r><b/><c/></r>");
  ASSERT_TRUE(doc.ok());
  Labeling labeling = Labeling::Build(*doc);
  NodeId root = doc->root();
  NodeId b = doc->children(root)[0];
  std::string before_b = labeling.Get(b)->start.ToString();

  // Insert <n><m/></n> between b and c.
  NodeId n = doc->NewElement("n");
  NodeId m = doc->NewElement("m");
  ASSERT_TRUE(doc->AppendChild(n, m).ok());
  ASSERT_TRUE(doc->InsertAfter(b, n).ok());
  ASSERT_TRUE(labeling.AssignForInsertedSubtree(*doc, n).ok());

  EXPECT_EQ(labeling.Get(b)->start.ToString(), before_b);
  EXPECT_TRUE(labeling.Validate(*doc).ok()) << labeling.Validate(*doc);
}

TEST(LabelingTest, DeleteUpdatesNeighborBookkeeping) {
  auto doc = xml::ParseDocument("<r><a/><b/><c/></r>");
  ASSERT_TRUE(doc.ok());
  Labeling labeling = Labeling::Build(*doc);
  NodeId root = doc->root();
  NodeId a = doc->children(root)[0];
  NodeId b = doc->children(root)[1];
  NodeId c = doc->children(root)[2];
  ASSERT_TRUE(labeling.OnWillDeleteSubtree(*doc, b).ok());
  ASSERT_TRUE(doc->DeleteSubtree(b).ok());
  EXPECT_EQ(labeling.Find(b), nullptr);
  EXPECT_EQ(labeling.Get(c)->left_sibling, a);
  EXPECT_TRUE(labeling.Validate(*doc).ok());

  ASSERT_TRUE(labeling.OnWillDeleteSubtree(*doc, c).ok());
  ASSERT_TRUE(doc->DeleteSubtree(c).ok());
  EXPECT_TRUE(labeling.Get(a)->is_last_child);
  EXPECT_TRUE(labeling.Validate(*doc).ok());
}

TEST(LabelingTest, AttributeInsertion) {
  auto doc = xml::ParseDocument("<r a=\"1\"><b/></r>");
  ASSERT_TRUE(doc.ok());
  Labeling labeling = Labeling::Build(*doc);
  NodeId root = doc->root();
  NodeId attr = doc->NewAttribute("z", "9");
  ASSERT_TRUE(doc->AddAttribute(root, attr).ok());
  ASSERT_TRUE(labeling.AssignForInsertedSubtree(*doc, attr).ok());
  EXPECT_TRUE(labeling.Validate(*doc).ok()) << labeling.Validate(*doc);
}

TEST(LabelingTest, SerializationRoundTrip) {
  auto doc = xml::ParseDocument("<r a=\"1\"><b>t</b></r>");
  ASSERT_TRUE(doc.ok());
  Labeling labeling = Labeling::Build(*doc);
  for (NodeId id : doc->AllNodesInOrder()) {
    const NodeLabel* lab = labeling.Find(id);
    ASSERT_NE(lab, nullptr);
    auto back = NodeLabel::Parse(testing::LabelText(*lab), id);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->type, lab->type);
    EXPECT_EQ(back->level, lab->level);
    EXPECT_EQ(back->parent, lab->parent);
    EXPECT_EQ(back->left_sibling, lab->left_sibling);
    EXPECT_EQ(back->is_last_child, lab->is_last_child);
    EXPECT_EQ(back->start.Compare(lab->start), 0);
    EXPECT_EQ(back->end.Compare(lab->end), 0);
  }
}

TEST(LabelingTest, ParseRejectsGarbage) {
  EXPECT_FALSE(NodeLabel::Parse("", 1).ok());
  EXPECT_FALSE(NodeLabel::Parse("x1:1:1:0:0:0", 1).ok());
  EXPECT_FALSE(NodeLabel::Parse("e1:1:1:0:0", 1).ok());
  EXPECT_FALSE(NodeLabel::Parse("e1:12:1:0:0:0", 1).ok());
  EXPECT_FALSE(NodeLabel::Parse("e1:1:1:0:0:2", 1).ok());
}

// Property: after many random structural edits with incremental label
// maintenance, the labeling still validates and original labels are
// untouched (update tolerance).
TEST(LabelingTest, RandomEditsKeepLabelingConsistent) {
  Rng rng(424242);
  for (int trial = 0; trial < 12; ++trial) {
    xml::Document doc = xupdate::testing::RandomDocument(rng, 20);
    Labeling labeling = Labeling::Build(doc);
    for (int edit = 0; edit < 30; ++edit) {
      std::vector<NodeId> nodes = doc.AllNodesInOrder();
      NodeId pick = nodes[static_cast<size_t>(rng.Below(nodes.size()))];
      double roll = rng.NextDouble();
      if (roll < 0.5 && doc.type(pick) == xml::NodeType::kElement) {
        // Insert a small subtree as child.
        NodeId n = doc.NewElement("ins");
        if (rng.Chance(0.5)) {
          (void)doc.AppendChild(n, doc.NewText("x"));
        }
        Status s = rng.Chance(0.5) ? doc.AppendChild(pick, n)
                                   : doc.PrependChild(pick, n);
        ASSERT_TRUE(s.ok());
        ASSERT_TRUE(labeling.AssignForInsertedSubtree(doc, n).ok());
      } else if (roll < 0.75 && pick != doc.root() &&
                 doc.type(pick) != xml::NodeType::kAttribute &&
                 doc.parent(pick) != xml::kInvalidNode) {
        NodeId n = doc.NewElement("sib");
        Status s = rng.Chance(0.5) ? doc.InsertBefore(pick, n)
                                   : doc.InsertAfter(pick, n);
        ASSERT_TRUE(s.ok());
        ASSERT_TRUE(labeling.AssignForInsertedSubtree(doc, n).ok());
      } else if (pick != doc.root()) {
        ASSERT_TRUE(labeling.OnWillDeleteSubtree(doc, pick).ok());
        ASSERT_TRUE(doc.DeleteSubtree(pick).ok());
      }
      ASSERT_TRUE(labeling.Validate(doc).ok())
          << labeling.Validate(doc) << " at trial " << trial;
    }
  }
}

// Field-by-field equality of two labels.
void ExpectSameLabel(const NodeLabel& got, const NodeLabel& want) {
  EXPECT_EQ(got.self, want.self);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.start.ToString(), want.start.ToString()) << want.self;
  EXPECT_EQ(got.end.ToString(), want.end.ToString()) << want.self;
  EXPECT_EQ(got.level, want.level) << want.self;
  EXPECT_EQ(got.parent, want.parent) << want.self;
  EXPECT_EQ(got.left_sibling, want.left_sibling) << want.self;
  EXPECT_EQ(got.is_last_child, want.is_last_child) << want.self;
}

// BuildFor over every node and over random subsets of `doc` (root and
// attributes included) against Build; ids outside the rooted tree stay
// absent.
void CheckBuildForMatchesBuild(const Document& doc,
                               const std::vector<NodeId>& outside,
                               Rng& rng) {
  Labeling full = Labeling::Build(doc);
  std::vector<NodeId> all = doc.AllNodesInOrder();
  ASSERT_EQ(full.size(), all.size());
  std::vector<NodeId> every = all;
  every.insert(every.end(), outside.begin(), outside.end());
  Labeling built = Labeling::BuildFor(doc, every);
  ASSERT_EQ(built.size(), all.size());
  for (NodeId id : all) {
    ASSERT_NE(built.Find(id), nullptr) << id;
    ExpectSameLabel(*built.Find(id), *full.Find(id));
  }
  for (NodeId id : outside) EXPECT_EQ(built.Find(id), nullptr) << id;
  for (int round = 0; round < 6; ++round) {
    std::vector<NodeId> subset;
    for (NodeId id : all) {
      if (rng.Chance(0.25)) subset.push_back(id);
    }
    if (!outside.empty()) {
      subset.push_back(outside[static_cast<size_t>(
          rng.Below(outside.size()))]);
    }
    if (rng.Chance(0.5) && !subset.empty()) {
      subset.push_back(subset.front());  // duplicates are harmless
    }
    rng.Shuffle(subset);
    Labeling some = Labeling::BuildFor(doc, subset);
    size_t expected = 0;
    for (NodeId id : all) {
      bool wanted =
          std::find(subset.begin(), subset.end(), id) != subset.end();
      const NodeLabel* got = some.Find(id);
      ASSERT_EQ(got != nullptr, wanted) << id;
      if (wanted) {
        ++expected;
        ExpectSameLabel(*got, *full.Find(id));
      }
    }
    EXPECT_EQ(some.size(), expected);
  }
  EXPECT_EQ(Labeling::BuildFor(doc, {}).size(), 0u);
}

TEST(LabelingTest, BuildForMatchesBuild) {
  Rng rng(424242);
  {
    SCOPED_TRACE("paper figure document");
    Document doc = xupdate::testing::PaperFigureDocument();
    // A node of the document that is not in its rooted tree, and an id
    // that was never assigned.
    NodeId detached = doc.NewElement("loose");
    CheckBuildForMatchesBuild(doc, {detached, doc.max_assigned_id() + 1},
                              rng);
  }
  // Random documents drawn as in RandomEditsKeepLabelingConsistent
  // (same generator and seed), edited with insertions and subtree
  // deletions.
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("random document " + std::to_string(trial));
    Document doc = xupdate::testing::RandomDocument(rng, 20);
    std::vector<NodeId> outside = {doc.max_assigned_id() + 1000};
    for (int edit = 0; edit < 10; ++edit) {
      std::vector<NodeId> nodes = doc.AllNodesInOrder();
      NodeId pick = nodes[static_cast<size_t>(rng.Below(nodes.size()))];
      if (rng.Chance(0.6) && doc.type(pick) == xml::NodeType::kElement) {
        NodeId n = doc.NewElement("ins");
        (void)doc.AppendChild(n, doc.NewText("x"));
        ASSERT_TRUE(doc.PrependChild(pick, n).ok());
      } else if (pick != doc.root()) {
        outside.push_back(pick);
        ASSERT_TRUE(doc.DeleteSubtree(pick).ok());
      }
    }
    CheckBuildForMatchesBuild(doc, outside, rng);
  }
}

// Serialize -> Parse round trips of labels whose codes sit on both sides
// of the BitString inline limit (120 bits).
TEST(NodeLabelCodeWidthTest, SerializeParseRoundTripAcrossInlineLimit) {
  Rng rng(7);
  for (size_t width : {1u, 119u, 120u, 121u, 250u}) {
    NodeLabel lab;
    lab.self = 42;
    lab.type = xml::NodeType::kAttribute;
    lab.level = 3;
    lab.parent = 17;
    lab.left_sibling = 0;
    lab.is_last_child = false;
    for (size_t i = 0; i + 1 < width; ++i) {
      lab.start.AppendBit(rng.Chance(0.5));
      lab.end.AppendBit(rng.Chance(0.5));
    }
    lab.start.AppendBit(true);
    lab.end.AppendBit(true);
    const std::string text = testing::LabelText(lab);
    auto back = NodeLabel::Parse(text, lab.self);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->start.size(), width);
    EXPECT_EQ(back->start, lab.start);
    EXPECT_EQ(back->end, lab.end);
    EXPECT_EQ(back->type, lab.type);
    EXPECT_EQ(back->level, lab.level);
    EXPECT_EQ(back->parent, lab.parent);
    EXPECT_EQ(testing::LabelText(*back), text);
    // A stray character deep inside a long code is still rejected.
    std::string bad = text;
    bad[text.find(':') + width] = '2';
    EXPECT_FALSE(NodeLabel::Parse(bad, lab.self).ok()) << bad;
  }
}

// Repeated insertion at the same spot lengthens codes by a bit or two
// per insert; the chain must cross the inline limit and keep a labeling
// that validates against the document.
TEST(NodeLabelCodeWidthTest, InsertionChainPastInlineLimitValidates) {
  auto doc = xml::ParseDocument("<r><a/><b/></r>");
  ASSERT_TRUE(doc.ok());
  Labeling labeling = Labeling::Build(*doc);
  NodeId b = doc->children(doc->root())[1];
  size_t widest = 0;
  for (int i = 0; i < 150 && widest <= 130; ++i) {
    NodeId n = doc->NewElement("n");
    ASSERT_TRUE(doc->InsertBefore(b, n).ok());
    ASSERT_TRUE(labeling.AssignForInsertedSubtree(*doc, n).ok());
    b = n;
    widest = std::max(widest, labeling.Find(n)->end.size());
  }
  EXPECT_GT(widest, 121u);
  ASSERT_TRUE(labeling.Validate(*doc).ok()) << labeling.Validate(*doc);
  for (NodeId id : doc->AllNodesInOrder()) {
    const NodeLabel* lab = labeling.Find(id);
    auto back = NodeLabel::Parse(testing::LabelText(*lab), id);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->start, lab->start);
    EXPECT_EQ(back->end, lab->end);
  }
}

}  // namespace
}  // namespace xupdate::label
