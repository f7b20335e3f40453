#include "xml/document.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "testing/test_docs.h"
#include "xml/parser.h"
#include "xml/serializer.h"

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

TEST(NodeRecordTest, IsFlat) {
  static_assert(std::is_trivially_copyable_v<NodeRecord>);
  static_assert(sizeof(NodeRecord) <= 64);
  SUCCEED();
}

// Ids run up to INT64_MAX and no further, so every id a document holds
// is one its serialization can write and a parse can read back.
TEST(DocumentIdRangeTest, MaxIdRoundTripsAndAboveIsRefused) {
  Document doc;
  ASSERT_TRUE(
      doc.CreateWithId(kMaxNodeId - 2, NodeType::kElement, "r", "").ok());
  ASSERT_TRUE(
      doc.CreateWithId(kMaxNodeId - 1, NodeType::kAttribute, "a", "v").ok());
  ASSERT_TRUE(doc.CreateWithId(kMaxNodeId, NodeType::kText, "", "t").ok());
  ASSERT_TRUE(doc.SetRoot(kMaxNodeId - 2).ok());
  ASSERT_TRUE(doc.AddAttribute(kMaxNodeId - 2, kMaxNodeId - 1).ok());
  ASSERT_TRUE(doc.AppendChild(kMaxNodeId - 2, kMaxNodeId).ok());
  EXPECT_FALSE(doc.fresh_ids_left());

  Status above =
      doc.CreateWithId(kMaxNodeId + 1, NodeType::kElement, "x", "");
  EXPECT_EQ(above.code(), StatusCode::kInvalidArgument) << above;
  EXPECT_FALSE(doc.Exists(kMaxNodeId + 1));

  SerializeOptions options;
  options.with_ids = true;
  auto text = SerializeDocument(doc, options);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("9223372036854775807"), std::string::npos);
  auto back = ParseDocument(*text);
  ASSERT_TRUE(back.ok()) << back.status();
  auto same = Document::SameAnnotated(doc, *back);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(*same);

  // An unannotated node after the top id has no fresh id left.
  auto no_fresh = ParseDocument(
      "<r xu:ids=\"9223372036854775807\"><fresh/></r>");
  EXPECT_FALSE(no_fresh.ok());
  EXPECT_FALSE(ParseDocument("<r xu:ids=\"9223372036854775808\"/>").ok());
}

// --- Flat records and their storage blocks -------------------------------

SerializeOptions WithIds() {
  SerializeOptions options;
  options.with_ids = true;
  return options;
}

// `doc` is valid and equals a fresh parse of its own id-annotated
// serialization.
void ExpectMatchesReparse(const Document& doc) {
  ASSERT_TRUE(doc.Validate().ok()) << doc.Validate();
  auto text = SerializeDocument(doc, WithIds());
  ASSERT_TRUE(text.ok()) << text.status();
  auto back = ParseDocument(*text);
  ASSERT_TRUE(back.ok()) << back.status();
  auto same = Document::SameAnnotated(doc, *back);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_TRUE(*same);
}

// A non-empty value of 1..80 letters (an empty text would vanish on
// reparse).
std::string RandomValue(Rng& rng) {
  return std::string(1 + rng.Below(80),
                     static_cast<char>('a' + rng.Below(26)));
}

// Edits for the storage tests: inserts of elements (with a text child),
// texts and attributes at random positions, subtree deletes and value
// rewrites, on nodes picked uniformly from the tree.
class RandomEditor {
 public:
  explicit RandomEditor(uint64_t seed) : rng_(seed) {}

  NodeId PickNode(const Document& doc) {
    std::vector<NodeId> nodes = doc.AllNodesInOrder();
    return nodes[rng_.Below(nodes.size())];
  }

  void Insert(Document* doc) {
    NodeId v = PickNode(*doc);
    NodeId parent = doc->type(v) == NodeType::kElement ? v : doc->parent(v);
    uint64_t kind = rng_.Below(3);
    if (kind == 2) {
      NodeId attr = doc->NewAttribute("n" + std::to_string(++names_),
                                      RandomValue(rng_));
      ASSERT_TRUE(doc->AddAttribute(parent, attr).ok());
      return;
    }
    NodeId node;
    if (kind == 0) {
      node = doc->NewElement("e");
      ASSERT_TRUE(doc->AppendChild(node, doc->NewText(RandomValue(rng_))).ok());
    } else {
      node = doc->NewText(RandomValue(rng_));
    }
    std::span<const NodeId> kids = doc->children(parent);
    if (kids.empty() || rng_.Below(3) == 0) {
      ASSERT_TRUE(doc->AppendChild(parent, node).ok());
    } else {
      ASSERT_TRUE(doc->InsertBefore(kids[rng_.Below(kids.size())], node).ok());
    }
  }

  void Delete(Document* doc) {
    NodeId v = PickNode(*doc);
    if (v == doc->root()) return;
    ASSERT_TRUE(doc->DeleteSubtree(v).ok());
  }

  void RewriteValue(Document* doc) {
    NodeId v = PickNode(*doc);
    if (doc->type(v) == NodeType::kElement) return;
    ASSERT_TRUE(doc->SetValue(v, RandomValue(rng_)).ok());
  }

  // One value rewrite (a third of the time), else an insert while the
  // document holds fewer than `target` nodes and a delete once it holds
  // that many: the size of a resident head under a commit stream.
  void Edit(Document* doc, size_t target) {
    if (rng_.Below(3) == 0) return RewriteValue(doc);
    if (doc->node_count() < target) return Insert(doc);
    return Delete(doc);
  }

 private:
  Rng rng_;
  int names_ = 0;
};

// A copy owns its storage: editing either side (lists that outgrow
// their extents and move, values rewritten longer and shorter, subtrees
// deleted) never shows through on the other.
TEST(FlatRecordTest, CopyAndSourceEditIndependently) {
  Rng rng(31);
  Document source = xupdate::testing::RandomDocument(rng, 400);
  Document copy = source;
  auto source_text = SerializeDocument(source, WithIds());
  ASSERT_TRUE(source_text.ok());
  // Grow one list far past its extent, on each side.
  for (int i = 0; i < 300; ++i) {
    NodeId text = source.NewText("s" + std::to_string(i));
    ASSERT_TRUE(source.AppendChild(source.root(), text).ok());
  }
  RandomEditor source_edits(1);
  RandomEditor copy_edits(2);
  const size_t target = copy.node_count();
  for (int i = 0; i < 600; ++i) {
    ASSERT_NO_FATAL_FAILURE(source_edits.Edit(&source, target));
    ASSERT_NO_FATAL_FAILURE(copy_edits.Edit(&copy, target));
  }
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        copy.PrependChild(copy.root(), copy.NewElement("c")).ok());
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReparse(source));
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReparse(copy));
  // A second copy taken now, then its source edited further, still
  // holds the state at the time of copying.
  Document snapshot = copy;
  auto snapshot_text = SerializeDocument(snapshot, WithIds());
  ASSERT_TRUE(snapshot_text.ok());
  for (int i = 0; i < 600; ++i) {
    ASSERT_NO_FATAL_FAILURE(copy_edits.Edit(&copy, target));
  }
  EXPECT_EQ(*SerializeDocument(snapshot, WithIds()), *snapshot_text);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReparse(snapshot));
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReparse(copy));
  // The source parsed back from its first serialization is untouched by
  // every edit of its copies.
  Document reparsed = *ParseDocument(*source_text);
  Document again = reparsed;
  for (int i = 0; i < 200; ++i) {
    ASSERT_NO_FATAL_FAILURE(copy_edits.Edit(&again, target));
  }
  EXPECT_EQ(*SerializeDocument(reparsed, WithIds()), *source_text);
}

// The span of a node's list and the view of its value stay valid across
// any number of edits of other nodes.
TEST(FlatRecordTest, HeldSpanSurvivesEditsOfOtherNodes) {
  Rng rng(5);
  Document doc = xupdate::testing::RandomDocument(rng, 300);
  NodeId held = doc.NewElement("held");
  NodeId held_text = doc.NewText(std::string(100, 'h'));
  ASSERT_TRUE(doc.AppendChild(held, held_text).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(doc.AppendChild(held, doc.NewElement("k")).ok());
  }
  // Detached: the random edits pick nodes of the rooted tree only.
  std::span<const NodeId> kids = doc.children(held);
  std::vector<NodeId> expected(kids.begin(), kids.end());
  std::string_view value = doc.value(held_text);
  RandomEditor editor(9);
  const size_t target = doc.node_count();
  for (int i = 0; i < 10000; ++i) {
    ASSERT_NO_FATAL_FAILURE(editor.Edit(&doc, target));
  }
  EXPECT_TRUE(std::equal(kids.begin(), kids.end(), expected.begin(),
                         expected.end()));
  EXPECT_EQ(value, std::string(100, 'h'));
  EXPECT_EQ(kids.data(), doc.children(held).data());
  ASSERT_TRUE(doc.Validate().ok());
}

// Space vacated by edits is reused: under a long stream of inserts,
// deletes and value rewrites that keeps the document's node count
// steady, the blocks held stay within twice the most bytes the
// document has held in use, plus one block. (Right after a large
// delete, in-use bytes drop while the blocks their neighbours share
// stay; the inserts that follow fill the freed space before any new
// block is taken.)
TEST(FlatRecordTest, StorageStaysWithinTwiceLivePlusOneBlock) {
  Rng rng(17);
  Document doc = xupdate::testing::RandomDocument(rng, 3000);
  const size_t target = doc.node_count();
  RandomEditor editor(23);
  size_t peak_live = doc.live_storage_bytes();
  for (int round = 0; round < 10000; ++round) {
    ASSERT_NO_FATAL_FAILURE(editor.Edit(&doc, target));
    peak_live = std::max(peak_live, doc.live_storage_bytes());
    ASSERT_LE(doc.reserved_storage_bytes(),
              2 * peak_live + BlockStore::kBlockBytes)
        << "round " << round;
  }
  // The stream rewrote the document several times over.
  EXPECT_GT(peak_live, 2 * BlockStore::kBlockBytes);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReparse(doc));
}

// A delete of most of a freshly built document releases the blocks it
// leaves wholly free.
TEST(FlatRecordTest, LargeDeleteReleasesFreedBlocks) {
  Document doc;
  NodeId root = doc.NewElement("r");
  ASSERT_TRUE(doc.SetRoot(root).ok());
  NodeId keep = doc.NewElement("keep");
  ASSERT_TRUE(doc.AppendChild(root, keep).ok());
  ASSERT_TRUE(doc.AppendChild(keep, doc.NewText("kept")).ok());
  NodeId drop = doc.NewElement("drop");
  ASSERT_TRUE(doc.AppendChild(root, drop).ok());
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(doc.AppendChild(drop, doc.NewText(std::string(40, 'x'))).ok());
  }
  size_t before = doc.reserved_storage_bytes();
  ASSERT_GT(before, 10 * BlockStore::kBlockBytes);
  ASSERT_TRUE(doc.DeleteSubtree(drop).ok());
  EXPECT_LE(doc.reserved_storage_bytes(),
            2 * doc.live_storage_bytes() + 2 * BlockStore::kBlockBytes);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReparse(doc));
}

}  // namespace

// Reaches a record, so a test can corrupt a storage reference.
struct DocumentTestAccess {
  static NodeRecord& Record(Document* doc, NodeId id) { return doc->Get(id); }
};

namespace {

// Validate checks every list and value reference against the bounds of
// its block before reading through it.
TEST(FlatRecordTest, ValidateChecksReferencesAgainstBlocks) {
  Rng rng(3);
  Document doc = xupdate::testing::RandomDocument(rng, 50);
  ASSERT_TRUE(doc.Validate().ok());
  NodeId text = kInvalidNode;
  for (NodeId id : doc.AllNodesInOrder()) {
    if (doc.type(id) == NodeType::kText) text = id;
  }
  ASSERT_NE(text, kInvalidNode);
  NodeRecord& root = DocumentTestAccess::Record(&doc, doc.root());
  NodeRecord& leaf = DocumentTestAccess::Record(&doc, text);
  struct Corruption {
    const char* what;
    StorageRef* ref;
    StorageRef bad;
  };
  const StorageRef kids = root.children;
  const StorageRef value = leaf.value;
  const Corruption corruptions[] = {
      {"block past the last", &root.children,
       {1000, kids.offset, kids.size, kids.capacity}},
      {"extent past the block end", &root.children,
       {kids.block, BlockStore::kBlockBytes, kids.size, kids.capacity}},
      {"misaligned offset", &leaf.value,
       {value.block, value.offset + 1, value.size, value.capacity}},
      {"size above capacity", &leaf.value,
       {value.block, value.offset, value.capacity + 1, value.capacity}},
      {"size without storage", &leaf.value, {0, 0, 1, 0}},
  };
  for (const Corruption& c : corruptions) {
    SCOPED_TRACE(c.what);
    StorageRef good = *c.ref;
    *c.ref = c.bad;
    Status status = doc.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
    EXPECT_NE(status.message().find("out of bounds"), std::string::npos)
        << status;
    *c.ref = good;
    EXPECT_TRUE(doc.Validate().ok());
  }
}

#if defined(__SANITIZE_ADDRESS__)
// Under ASan the space a list vacates when it moves is poisoned: a read
// through a span taken before the move is reported.
TEST(FlatRecordDeathTest, StaleSpanReadIsReported) {
  Document doc;
  NodeId root = doc.NewElement("r");
  ASSERT_TRUE(doc.SetRoot(root).ok());
  ASSERT_TRUE(doc.AppendChild(root, doc.NewElement("a")).ok());
  std::span<const NodeId> stale = doc.children(root);
  // The one-id list outgrows its extent and moves.
  ASSERT_TRUE(doc.AppendChild(root, doc.NewElement("b")).ok());
  EXPECT_DEATH(
      {
        volatile NodeId first = stale[0];
        (void)first;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace xupdate::xml
