// Coverage for the small public surfaces the larger suites use only in
// passing: the name pool, traversal early-exit, id watermarks, node-type
// helpers and writer formatting details.

#include <gtest/gtest.h>

#include "xml/document.h"
#include "xml/name_pool.h"
#include "xml/parser.h"
#include "xml/sax.h"

namespace xupdate::xml {
namespace {

TEST(NamePoolTest, InternsAndDeduplicates) {
  NamePool pool;
  uint32_t a = pool.Intern("alpha");
  uint32_t b = pool.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("alpha"), a);
  EXPECT_EQ(pool.Get(a), "alpha");
  EXPECT_EQ(pool.Get(b), "beta");
  EXPECT_EQ(pool.Get(0), "");
}

TEST(NamePoolTest, ViewsSurviveGrowth) {
  NamePool pool;
  std::string_view first = pool.Get(pool.Intern("pinned"));
  for (int i = 0; i < 1000; ++i) {
    pool.Intern("filler" + std::to_string(i));
  }
  EXPECT_EQ(first, "pinned");  // deque storage never moves strings
}

TEST(DocumentSurfaceTest, VisitStopsEarly) {
  auto doc = ParseDocument("<r><a/><b/><c/></r>");
  ASSERT_TRUE(doc.ok());
  int visited = 0;
  doc->Visit(doc->root(), [&](NodeId) { return ++visited < 2; });
  EXPECT_EQ(visited, 2);
}

TEST(DocumentSurfaceTest, CompareAcrossDetachedTrees) {
  Document doc;
  NodeId r1 = doc.NewElement("r1");
  NodeId r2 = doc.NewElement("r2");
  NodeId c1 = doc.NewElement("c1");
  ASSERT_TRUE(doc.AppendChild(r1, c1).ok());
  // Total order across detached trees is by root id.
  EXPECT_EQ(doc.Compare(r1, r2), -1);
  EXPECT_EQ(doc.Compare(c1, r2), -1);
  EXPECT_EQ(doc.Compare(r2, c1), 1);
}

TEST(DocumentSurfaceTest, ReserveIdsBelowOnlyRaises) {
  Document doc;
  doc.ReserveIdsBelow(100);
  EXPECT_GE(doc.NewElement("x"), 100u);
  doc.ReserveIdsBelow(50);  // no-op: the counter never moves back
  EXPECT_GT(doc.NewElement("y"), 100u);
}

TEST(DocumentSurfaceTest, DetachClearsRoot) {
  auto doc = ParseDocument("<r><a/></r>");
  ASSERT_TRUE(doc.ok());
  NodeId root = doc->root();
  ASSERT_TRUE(doc->Detach(root).ok());
  EXPECT_EQ(doc->root(), kInvalidNode);
  EXPECT_TRUE(doc->Exists(root));
}

TEST(NodeTypeTest, CharRoundTrip) {
  for (NodeType type : {NodeType::kElement, NodeType::kAttribute,
                        NodeType::kText}) {
    NodeType back;
    ASSERT_TRUE(NodeTypeFromChar(NodeTypeToChar(type), &back));
    EXPECT_EQ(back, type);
  }
  NodeType dummy;
  EXPECT_FALSE(NodeTypeFromChar('x', &dummy));
  EXPECT_EQ(NodeTypeToString(NodeType::kElement), "element");
}

TEST(SaxWriterTest, PrettyPrintingWithPis) {
  std::string out;
  SaxWriter writer(&out, /*pretty=*/true);
  ASSERT_TRUE(writer.StartElement("r", {}).ok());
  ASSERT_TRUE(writer.ProcessingInstruction("xuid", "7").ok());
  ASSERT_TRUE(writer.Text("mixed").ok());
  ASSERT_TRUE(writer.EndElement("r").ok());
  // PIs glue to their text: no indentation may split them.
  EXPECT_EQ(out, "<r><?xuid 7?>mixed</r>");
}

TEST(SaxWriterTest, RawSplicesVerbatim) {
  std::string out = "<!-- kept -->";
  SaxWriter writer(&out);
  ASSERT_TRUE(writer.StartElement("r", {}).ok());
  *writer.Raw() += "<pre-serialized x=\"1\"/>";
  ASSERT_TRUE(writer.EndElement("r").ok());
  EXPECT_EQ(out, "<!-- kept --><r><pre-serialized x=\"1\"/></r>");
}

}  // namespace
}  // namespace xupdate::xml
