#include <gtest/gtest.h>

#include "label/labeling.h"
#include "pul/apply.h"
#include "pul/obtainable.h"
#include "testing/test_docs.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/eval.h"
#include "xquery/parser.h"

namespace xupdate::xquery {
namespace {

using pul::OpKind;
using xml::Document;
using xml::NodeId;

class PathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = xml::ParseDocument(
        "<lib>"
        "<book year=\"2001\"><title>XML</title><author>G</author>"
        "<author>M</author></book>"
        "<book year=\"2011\"><title>PULs</title><author>F</author></book>"
        "<journal year=\"2011\"><title>XQuery</title></journal>"
        "</lib>");
    ASSERT_TRUE(doc.ok());
    doc_ = std::move(*doc);
  }

  std::vector<std::string> Names(std::string_view path_text) {
    auto path = ParsePath(path_text);
    EXPECT_TRUE(path.ok()) << path.status();
    if (!path.ok()) return {};
    auto nodes = EvaluatePath(doc_, *path);
    EXPECT_TRUE(nodes.ok()) << nodes.status();
    if (!nodes.ok()) return {};
    std::vector<std::string> out;
    for (NodeId id : *nodes) {
      if (doc_.type(id) == xml::NodeType::kText) {
        out.push_back("#" + std::string(doc_.value(id)));
      } else if (doc_.type(id) == xml::NodeType::kAttribute) {
        out.push_back("@" + std::string(doc_.name(id)) + "=" +
                      std::string(doc_.value(id)));
      } else {
        out.push_back(std::string(doc_.name(id)));
      }
    }
    return out;
  }

  Document doc_;
};

TEST_F(PathTest, RootAndChildSteps) {
  EXPECT_EQ(Names("/lib"), (std::vector<std::string>{"lib"}));
  EXPECT_EQ(Names("/lib/book"),
            (std::vector<std::string>{"book", "book"}));
  EXPECT_EQ(Names("/nothere"), (std::vector<std::string>{}));
  EXPECT_EQ(Names("/lib/book/title"),
            (std::vector<std::string>{"title", "title"}));
}

TEST_F(PathTest, DescendantStep) {
  EXPECT_EQ(Names("//author").size(), 3u);
  EXPECT_EQ(Names("//title").size(), 3u);
  EXPECT_EQ(Names("/lib//title").size(), 3u);
  EXPECT_EQ(Names("//lib"), (std::vector<std::string>{"lib"}));
}

TEST_F(PathTest, Wildcards) {
  EXPECT_EQ(Names("/lib/*").size(), 3u);
  EXPECT_EQ(Names("/lib/*/title").size(), 3u);
}

TEST_F(PathTest, AttributeSteps) {
  EXPECT_EQ(Names("/lib/book/@year"),
            (std::vector<std::string>{"@year=2001", "@year=2011"}));
  EXPECT_EQ(Names("//@*").size(), 3u);
}

TEST_F(PathTest, TextSteps) {
  EXPECT_EQ(Names("/lib/book/title/text()"),
            (std::vector<std::string>{"#XML", "#PULs"}));
}

TEST_F(PathTest, PositionPredicates) {
  EXPECT_EQ(Names("/lib/book[1]/title/text()"),
            (std::vector<std::string>{"#XML"}));
  EXPECT_EQ(Names("/lib/book[2]/title/text()"),
            (std::vector<std::string>{"#PULs"}));
  EXPECT_EQ(Names("/lib/book[last()]/title/text()"),
            (std::vector<std::string>{"#PULs"}));
  // Positions are per-context: the first author of *each* book.
  EXPECT_EQ(Names("/lib/book/author[1]"),
            (std::vector<std::string>{"author", "author"}));
}

TEST_F(PathTest, ValuePredicates) {
  EXPECT_EQ(Names("/lib/book[@year='2011']/title/text()"),
            (std::vector<std::string>{"#PULs"}));
  EXPECT_EQ(Names("/lib/book[title='XML']/@year"),
            (std::vector<std::string>{"@year=2001"}));
  EXPECT_EQ(Names("//book[author='M']/title/text()"),
            (std::vector<std::string>{"#XML"}));
}

TEST_F(PathTest, NotEqualsPredicates) {
  EXPECT_EQ(Names("/lib/book[@year!='2001']/title/text()"),
            (std::vector<std::string>{"#PULs"}));
  // Existential semantics: a book with *some* author other than 'M'.
  EXPECT_EQ(Names("//book[author!='M']").size(), 2u);
  // No author at all: != selects nothing.
  EXPECT_EQ(Names("//journal[author!='M']").size(), 0u);
}

TEST_F(PathTest, ExistencePredicates) {
  EXPECT_EQ(Names("/lib/*[author]").size(), 2u);
  EXPECT_EQ(Names("/lib/*[@year]").size(), 3u);
}

TEST_F(PathTest, ResultsInDocumentOrder) {
  std::vector<std::string> all = Names("//text()");
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all.front(), "#XML");
  EXPECT_EQ(all.back(), "#XQuery");
}

TEST(ParserErrorsTest, RejectsMalformedScripts) {
  EXPECT_FALSE(ParseUpdate("").ok());
  EXPECT_FALSE(ParseUpdate("destroy node /a").ok());
  EXPECT_FALSE(ParseUpdate("insert nodes <x/> sideways /a").ok());
  EXPECT_FALSE(ParseUpdate("delete node a").ok());  // path must start /
  EXPECT_FALSE(ParseUpdate("replace node /a with").ok());
  EXPECT_FALSE(ParseUpdate("rename node /a").ok());
  EXPECT_FALSE(ParseUpdate("delete nodes /a extra").ok());
  EXPECT_FALSE(ParseUpdate("insert nodes <x> into /a").ok());
  EXPECT_FALSE(ParseUpdate("delete nodes /a[0]").ok());
}

class ProduceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = xupdate::testing::PaperFigureDocument();
    labeling_ = label::Labeling::Build(doc_);
    context_.doc = &doc_;
    context_.labeling = &labeling_;
  }

  Document Apply(const pul::Pul& pul) {
    Document copy = doc_;
    EXPECT_TRUE(pul::ApplyPul(&copy, pul).ok());
    return copy;
  }

  Document doc_;
  label::Labeling labeling_;
  ProducerContext context_;
};

TEST_F(ProduceTest, InsertNodes) {
  auto pul = ProducePul(
      "insert nodes <author>New</author> as last into //authors",
      context_);
  ASSERT_TRUE(pul.ok()) << pul.status();
  // Two <authors> elements in the figure document.
  EXPECT_EQ(pul->size(), 2u);
  EXPECT_EQ(pul->ops()[0].kind, OpKind::kInsLast);
  Document out = Apply(*pul);
  EXPECT_EQ(out.children(6).size(), 2u);
  EXPECT_EQ(out.children(16).size(), 3u);
}

TEST_F(ProduceTest, ContentClonedPerTarget) {
  auto pul = ProducePul("insert nodes <x/><y/> into //authors", context_);
  ASSERT_TRUE(pul.ok()) << pul.status();
  ASSERT_EQ(pul->size(), 2u);
  // Each target got its own two fresh trees.
  EXPECT_EQ(pul->ops()[0].param_trees.size(), 2u);
  EXPECT_EQ(pul->ops()[1].param_trees.size(), 2u);
  EXPECT_NE(pul->ops()[0].param_trees[0], pul->ops()[1].param_trees[0]);
}

TEST_F(ProduceTest, DeleteNodes) {
  auto pul = ProducePul("delete nodes //author[position]", context_);
  // "position" is an attribute only via @: this selects nothing.
  EXPECT_FALSE(pul.ok());
  pul = ProducePul("delete nodes //author[@position='00']", context_);
  ASSERT_TRUE(pul.ok()) << pul.status();
  ASSERT_EQ(pul->size(), 1u);
  EXPECT_EQ(pul->ops()[0].kind, OpKind::kDelete);
  EXPECT_EQ(pul->ops()[0].target, 7u);
}

TEST_F(ProduceTest, InsertAttributes) {
  auto pul = ProducePul(
      "insert attributes initPage=\"132\" lastPage=\"134\" into "
      "/sigmodRecord/issue/article[1]",
      context_);
  ASSERT_TRUE(pul.ok()) << pul.status();
  ASSERT_EQ(pul->size(), 1u);
  EXPECT_EQ(pul->ops()[0].kind, OpKind::kInsAttributes);
  EXPECT_EQ(pul->ops()[0].target, 4u);
  EXPECT_EQ(pul->ops()[0].param_trees.size(), 2u);
  Document out = Apply(*pul);
  EXPECT_EQ(out.attributes(4).size(), 2u);
}

TEST_F(ProduceTest, ReplaceNode) {
  auto pul = ProducePul(
      "replace node //article[1]/title with <heading>New</heading>",
      context_);
  ASSERT_TRUE(pul.ok()) << pul.status();
  ASSERT_EQ(pul->size(), 1u);
  EXPECT_EQ(pul->ops()[0].kind, OpKind::kReplaceNode);
  EXPECT_EQ(pul->ops()[0].target, 5u);
}

TEST_F(ProduceTest, ReplaceValueDispatch) {
  // On a text node: repV.
  auto on_text =
      ProducePul("replace value of node //title[1]/text() with \"T\"",
                 context_);
  ASSERT_TRUE(on_text.ok()) << on_text.status();
  EXPECT_EQ(on_text->ops()[0].kind, OpKind::kReplaceValue);
  // On an attribute: repV.
  auto on_attr = ProducePul(
      "replace value of node //author/@position with \"01\"", context_);
  ASSERT_TRUE(on_attr.ok()) << on_attr.status();
  EXPECT_EQ(on_attr->ops()[0].kind, OpKind::kReplaceValue);
  // On an element: repC (replace element content).
  auto on_elem = ProducePul(
      "replace value of node //article[1]/title with \"T\"", context_);
  ASSERT_TRUE(on_elem.ok()) << on_elem.status();
  EXPECT_EQ(on_elem->ops()[0].kind, OpKind::kReplaceChildren);
  ASSERT_EQ(on_elem->ops()[0].param_trees.size(), 1u);
}

TEST_F(ProduceTest, RenameNode) {
  auto pul = ProducePul("rename node //authors as \"writers\"", context_);
  ASSERT_TRUE(pul.ok()) << pul.status();
  EXPECT_EQ(pul->size(), 2u);
  EXPECT_EQ(pul->ops()[0].kind, OpKind::kRename);
  EXPECT_EQ(pul->ops()[0].param_string, "writers");
}

TEST_F(ProduceTest, SnapshotSemanticsMergesExpressions) {
  auto pul = ProducePul(
      "insert nodes <a1/> as first into //authors[1], "
      "delete nodes //article[1]/initPage, "
      "rename node /sigmodRecord/issue as \"number\"",
      context_);
  ASSERT_TRUE(pul.ok()) << pul.status();
  EXPECT_EQ(pul->size(), 3u);
  Document out = Apply(*pul);
  EXPECT_EQ(out.name(2), "number");
  EXPECT_FALSE(out.Exists(12));
}

TEST_F(ProduceTest, IncompatibleExpressionsRejected) {
  auto pul = ProducePul(
      "rename node //authors[1] as \"a\", rename node //authors[1] as "
      "\"b\"",
      context_);
  ASSERT_FALSE(pul.ok());
  EXPECT_EQ(pul.status().code(), StatusCode::kIncompatible);
}

TEST_F(ProduceTest, EmptyTargetIsAnError) {
  EXPECT_FALSE(ProducePul("delete nodes //nonexistent", context_).ok());
}

TEST_F(ProduceTest, PolicyAndIdSpaceFlowThrough) {
  context_.id_base = 5000;
  context_.policies.preserve_inserted_data = true;
  auto pul = ProducePul("insert nodes <n/> into //authors[1]", context_);
  ASSERT_TRUE(pul.ok());
  EXPECT_TRUE(pul->policies().preserve_inserted_data);
  EXPECT_GE(pul->ops()[0].param_trees[0], 5000u);
}

TEST_F(ProduceTest, TextContentInsertion) {
  auto pul = ProducePul(
      "insert nodes \"trailing text\" as last into //article[1]/title",
      context_);
  ASSERT_TRUE(pul.ok()) << pul.status();
  ASSERT_EQ(pul->ops()[0].param_trees.size(), 1u);
  EXPECT_EQ(pul->forest().type(pul->ops()[0].param_trees[0]),
            xml::NodeType::kText);
}

}  // namespace
}  // namespace xupdate::xquery
