// The binary document image (xml/document_image.h): decoding an image
// gives what parsing the id-annotated text gives, the bytes depend only
// on annotated content, and the decoder refuses every image it could
// not re-encode byte for byte.

#include "xml/document_image.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "testing/test_docs.h"
#include "xmark/generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xupdate::xml {
namespace {

std::string Annotated(const Document& doc) {
  SerializeOptions options;
  options.with_ids = true;
  auto text = SerializeDocument(doc, options);
  EXPECT_TRUE(text.ok()) << text.status();
  return text.ok() ? *text : "";
}

std::string Image(const Document& doc) {
  std::string image;
  Status encoded = EncodeImage(doc, &image);
  EXPECT_TRUE(encoded.ok()) << encoded;
  return image;
}

// DecodeImage(EncodeImage(doc)) matches ParseDocument(SerializeAnnotated
// (doc)): the same annotated bytes and the same fresh-id counter; the
// decoded document re-encodes to the same image and validates.
void ExpectDecodeMatchesParse(const Document& doc) {
  std::string image = Image(doc);
  auto decoded = DecodeImage(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto parsed = ParseDocument(Annotated(doc));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(Annotated(*decoded), Annotated(*parsed));
  EXPECT_EQ(decoded->max_assigned_id(), parsed->max_assigned_id());
  EXPECT_EQ(decoded->node_count(), parsed->node_count());
  EXPECT_TRUE(decoded->Validate().ok()) << decoded->Validate();
  EXPECT_EQ(Image(*decoded), image);
}

Document Xmark(uint64_t seed, size_t bytes) {
  xmark::Config config;
  config.seed = seed;
  config.target_bytes = bytes;
  auto doc = xmark::GenerateDocument(config);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(*doc);
}

TEST(DocumentImageTest, DecodeMatchesParseOnTestDocuments) {
  ASSERT_NO_FATAL_FAILURE(
      ExpectDecodeMatchesParse(xupdate::testing::PaperFigureDocument()));
  ASSERT_NO_FATAL_FAILURE(ExpectDecodeMatchesParse(Xmark(7, 16384)));
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE(i);
    ASSERT_NO_FATAL_FAILURE(
        ExpectDecodeMatchesParse(xupdate::testing::RandomDocument(rng, 40)));
  }
}

// Fresh ids continue above the largest id present, as after a parse,
// also when ids are sparse and out of document order.
TEST(DocumentImageTest, NextIdIsLargestPresentPlusOne) {
  auto parsed = ParseDocument(
      "<r xu:ids=\"900;5\" a=\"1\"><?xuid 70000?>t<c xu:ids=\"3\"/></r>");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto decoded = DecodeImage(Image(*parsed));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->max_assigned_id(), 70000u);
  EXPECT_EQ(decoded->NewElement("n"), 70001u);
}

// The bytes are a function of annotated content: not of the NamePool
// ids a document's edit history interned, nor of its block layout.
TEST(DocumentImageTest, BytesDependOnlyOnAnnotatedContent) {
  Document doc = Xmark(3, 8192);
  Document other;
  // Intern names in another order and leave freed extents behind.
  for (const char* name : {"zzz", "text", "item", "site", "keyword"}) {
    NodeId scratch = other.NewElement(name);
    NodeId text = other.NewText(std::string(300, 'x'));
    ASSERT_TRUE(other.SetValue(text, "short").ok());
    ASSERT_TRUE(other.DeleteSubtree(scratch).ok());
    ASSERT_TRUE(other.DeleteSubtree(text).ok());
  }
  auto root = other.AdoptSubtree(doc, doc.root(), /*preserve_ids=*/true);
  ASSERT_TRUE(root.ok()) << root.status();
  ASSERT_TRUE(other.SetRoot(*root).ok());
  EXPECT_EQ(Image(other), Image(doc));
  // Renaming a node and back re-interns nothing new in the image.
  NodeId first_child = doc.children(doc.root())[0];
  std::string name(doc.name(first_child));
  ASSERT_TRUE(doc.Rename(first_child, "renamed").ok());
  ASSERT_TRUE(doc.Rename(first_child, name).ok());
  EXPECT_EQ(Image(doc), Image(other));
}

// Text nodes the text form cannot carry survive the image: a
// whitespace-only text (the parser drops it) and an empty one.
TEST(DocumentImageTest, KeepsWhitespaceAndEmptyText) {
  Document doc;
  NodeId root = doc.NewElement("a");
  ASSERT_TRUE(doc.SetRoot(root).ok());
  NodeId b = doc.NewElement("b");
  ASSERT_TRUE(doc.AppendChild(root, b).ok());
  NodeId space = doc.NewText("   ");
  NodeId empty = doc.NewText("");
  ASSERT_TRUE(doc.AppendChild(b, space).ok());
  ASSERT_TRUE(doc.AppendChild(root, empty).ok());
  auto decoded = DecodeImage(Image(doc));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto same = Document::SameAnnotated(*decoded, doc);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_TRUE(*same);
  EXPECT_EQ(decoded->value(space), "   ");
  EXPECT_EQ(decoded->value(empty), "");
}

// Only the rooted tree is encoded; detached parameter trees are not.
TEST(DocumentImageTest, EncodesTheRootedTreeOnly) {
  Document doc;
  NodeId root = doc.NewElement("a");
  ASSERT_TRUE(doc.SetRoot(root).ok());
  doc.NewElement("detached");
  auto decoded = DecodeImage(Image(doc));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->node_count(), 1u);
  EXPECT_EQ(decoded->max_assigned_id(), 1u);
}

TEST(DocumentImageTest, EncodeFailsWhereTheSerializerFails) {
  Document doc;
  std::string image;
  EXPECT_EQ(EncodeImage(doc, &image).code(), StatusCode::kInvalidArgument);
  NodeId text = doc.NewText("t");
  ASSERT_TRUE(doc.SetRoot(text).ok());
  EXPECT_EQ(EncodeImage(doc, &image).code(), StatusCode::kInvalidArgument);
}

// Every proper prefix of an image and every image with a byte added
// is refused.
TEST(DocumentImageTest, RefusesTruncatedAndExtendedImages) {
  std::string image = Image(Xmark(5, 4096));
  for (size_t cut = 0; cut < image.size(); ++cut) {
    auto decoded = DecodeImage(std::string_view(image).substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  }
  EXPECT_FALSE(DecodeImage(image + '\0').ok());
}

// Hand-built images, each breaking one rule of the format.
std::string Varint(uint64_t v) {
  std::string out;
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
  return out;
}

// <a xu:ids="1"><?xuid 2?>x</a>: the image every case below edits.
std::string SmallImage(const std::string& nodes_override = "") {
  std::string nodes = nodes_override.empty()
                          ? std::string("\x00\x02\x00\x00\x01", 5) +
                                std::string("\x02\x02\x01", 3)
                          : nodes_override;
  return Varint(2) + Varint(1) + Varint(1) + "a" + Varint(1) + nodes + "x";
}

TEST(DocumentImageTest, SmallImageIsTheAnnotatedDocument) {
  auto parsed = ParseDocument("<a xu:ids=\"1\"><?xuid 2?>x</a>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(Image(*parsed), SmallImage());
  EXPECT_TRUE(DecodeImage(SmallImage()).ok());
}

TEST(DocumentImageTest, RefusesMalformedImages) {
  const std::string elem("\x00\x02\x00\x00\x01", 5);  // a, id 1, 1 child
  struct Case {
    const char* what;
    std::string image;
  };
  const Case cases[] = {
      {"empty", ""},
      {"zero nodes", Varint(0) + Varint(0) + Varint(0)},
      {"node count beyond the bytes", Varint(1000) + SmallImage().substr(1)},
      {"name count beyond the bytes",
       Varint(2) + Varint(1u << 30) + Varint(1) + "a"},
      {"pool beyond the bytes",
       Varint(2) + Varint(1) + Varint(1) + "a" + Varint(99) + elem +
           std::string("\x02\x02\x01", 3) + "x"},
      {"unknown kind", SmallImage(elem + std::string("\x03\x02\x01", 3))},
      {"text root", SmallImage(std::string("\x02\x02\x01", 3) + elem)},
      {"id 0", SmallImage(std::string("\x00\x00\x00\x00\x01", 5) +
                          std::string("\x02\x02\x01", 3))},
      {"duplicate id", SmallImage(elem + std::string("\x02\x00\x01", 3))},
      {"id above kMaxNodeId",
       SmallImage(elem + std::string("\x02", 1) +
                  Varint(uint64_t{0x7fffffffffffffff} << 1) +
                  std::string("\x01", 1))},
      {"overlong varint",
       SmallImage(elem + std::string("\x02\x82\x00\x01", 4))},
      {"name used before its turn",
       Varint(2) + Varint(2) + Varint(1) + "a" + Varint(1) + "b" +
           Varint(1) + std::string("\x00\x02\x01\x00\x01", 5) +
           std::string("\x02\x02\x01", 3) + "x"},
      {"unused name",
       Varint(2) + Varint(2) + Varint(1) + "a" + Varint(1) + "b" +
           Varint(1) + elem + std::string("\x02\x02\x01", 3) + "x"},
      {"duplicate name",
       Varint(2) + Varint(2) + Varint(1) + "a" + Varint(1) + "a" +
           Varint(1) + elem + std::string("\x02\x02\x01", 3) + "x"},
      {"attribute in a child list",
       Varint(2) + Varint(1) + Varint(1) + "a" + Varint(1) + elem +
           std::string("\x01\x02\x00\x01", 4) + "x"},
      {"child where an attribute is due",
       SmallImage(std::string("\x00\x02\x00\x01\x00", 5) +
                  std::string("\x02\x02\x01", 3))},
      {"child count beyond the nodes",
       SmallImage(std::string("\x00\x02\x00\x00\x05", 5) +
                  std::string("\x02\x02\x01", 3))},
      {"second tree",
       Varint(2) + Varint(1) + Varint(1) + "a" + Varint(0) +
           std::string("\x00\x02\x00\x00\x00", 5) +
           std::string("\x00\x02\x00\x00\x00", 5)},
      {"value beyond the pool",
       SmallImage(elem + std::string("\x02\x02\x02", 3))},
      {"unused pool byte",
       Varint(2) + Varint(1) + Varint(1) + "a" + Varint(2) + elem +
           std::string("\x02\x02\x01", 3) + "xy"},
  };
  for (const Case& c : cases) {
    auto decoded = DecodeImage(c.image);
    EXPECT_FALSE(decoded.ok()) << c.what;
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << c.what;
    }
  }
}

}  // namespace
}  // namespace xupdate::xml
