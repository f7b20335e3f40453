#include "xml/sax.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace xupdate::xml {
namespace {

// Records events as strings for easy assertions.
class Recorder : public SaxHandler {
 public:
  Status StartElement(std::string_view name,
                      std::span<const SaxAttribute> attrs) override {
    std::string e = "<" + std::string(name);
    for (const auto& a : attrs) {
      e += " " + std::string(a.name) + "=" + std::string(a.value);
    }
    events.push_back(e);
    return Status::OK();
  }
  Status EndElement(std::string_view name) override {
    events.push_back("</" + std::string(name));
    return Status::OK();
  }
  Status Text(std::string_view text) override {
    events.push_back("T:" + std::string(text));
    return Status::OK();
  }
  std::vector<std::string> events;
};

TEST(SaxTest, SimpleDocument) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a><b x=\"1\">hi</b></a>", &rec).ok());
  std::vector<std::string> expected = {"<a", "<b x=1", "T:hi", "</b", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, SelfClosingElement) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a><b/></a>", &rec).ok());
  std::vector<std::string> expected = {"<a", "<b", "</b", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, SkipsCommentsPIsAndDoctype) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<?xml version=\"1.0\"?><!DOCTYPE a>"
                       "<a><!-- note -->x</a>",
                       &rec)
                  .ok());
  std::vector<std::string> expected = {"<a", "T:x", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, CdataIsLiteralText) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a><![CDATA[<raw> & stuff]]></a>", &rec).ok());
  std::vector<std::string> expected = {"<a", "T:<raw> & stuff", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, EmptyCdataIsNoText) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a><![CDATA[]]><b/><![CDATA[ ]]></a>", &rec).ok());
  std::vector<std::string> expected = {"<a", "<b", "</b", "T: ", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, EntitiesUnescaped) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a p=\"&lt;v&gt;\">&amp;x</a>", &rec).ok());
  std::vector<std::string> expected = {"<a p=<v>", "T:&x", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, WhitespaceTextDroppedByDefault) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a>\n  <b/>\n</a>", &rec).ok());
  std::vector<std::string> expected = {"<a", "<b", "</b", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, WhitespaceTextKeptOnRequest) {
  Recorder rec;
  SaxOptions opts;
  opts.keep_whitespace_text = true;
  ASSERT_TRUE(ParseSax("<a> <b/></a>", &rec, opts).ok());
  std::vector<std::string> expected = {"<a", "T: ", "<b", "</b", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, SingleQuotedAttributes) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a x='q\"q'/>", &rec).ok());
  EXPECT_EQ(rec.events[0], "<a x=q\"q");
}

TEST(SaxTest, Errors) {
  Recorder rec;
  EXPECT_FALSE(ParseSax("", &rec).ok());
  EXPECT_FALSE(ParseSax("<a>", &rec).ok());
  EXPECT_FALSE(ParseSax("<a></b>", &rec).ok());
  EXPECT_FALSE(ParseSax("<a></a><b></b>", &rec).ok());
  EXPECT_FALSE(ParseSax("text only", &rec).ok());
  EXPECT_FALSE(ParseSax("<a x=1></a>", &rec).ok());
  EXPECT_FALSE(ParseSax("<a x=\"1></a>", &rec).ok());
  EXPECT_FALSE(ParseSax("<a><!-- unterminated</a>", &rec).ok());
  EXPECT_FALSE(ParseSax("< a></a>", &rec).ok());
}

TEST(SaxTest, ErrorsIncludeLineNumbers) {
  Recorder rec;
  Status s = ParseSax("<a>\n\n</b>", &rec);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 3"), std::string::npos);
}

// --- Attribute slots reused across start tags ----------------------------
//
// ParseSax reuses one attribute list and one unescape buffer for every
// start tag; each tag must still expose exactly its own attributes.

TEST(SaxAttributeReuseTest, ShortTagAfterLongerTagSeesOnlyItsOwn) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a p=\"first-long-value\" q=\"2\" r=\"3\">"
                       "<b x=\"1\"/><c/><d y=\"&amp;\"/></a>",
                       &rec)
                  .ok());
  std::vector<std::string> expected = {
      "<a p=first-long-value q=2 r=3", "<b x=1", "</b", "<c", "</c",
      "<d y=&", "</d", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxAttributeReuseTest, EscapedAndPlainValuesMixWithinAndAcrossTags) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a u=\"&lt;x&gt;\" v=\"plain\" w=\"&#x41;&#66;\">"
                       "<b v=\"plain2\" u=\"&amp;&amp;\"/>"
                       "<c u=\"no refs\" v=\"x&quot;y\" w=\"z\"/>"
                       "<d/><e q=\"&apos;\"/></a>",
                       &rec)
                  .ok());
  std::vector<std::string> expected = {
      "<a u=<x> v=plain w=AB", "<b v=plain2 u=&&", "</b",
      "<c u=no refs v=x\"y w=z", "</c", "<d", "</d", "<e q='", "</e",
      "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxAttributeReuseTest, ManyEscapedValuesInOneTagStayIntact) {
  // Enough unescaped values that a growing buffer would move: every
  // view handed to the handler must still read its own value.
  std::string input = "<a";
  std::string expected = "<a";
  for (int i = 0; i < 64; ++i) {
    const std::string n = std::to_string(i);
    input += " k" + n + "=\"&lt;" + n + "&gt;\"";
    expected += " k" + n + "=<" + n + ">";
  }
  input += "/>";
  Recorder rec;
  ASSERT_TRUE(ParseSax(input, &rec).ok());
  ASSERT_FALSE(rec.events.empty());
  EXPECT_EQ(rec.events[0], expected);
}

TEST(SaxAttributeReuseTest, ErrorInAttributeListLeavesNothingStale) {
  Recorder rec;
  Status s = ParseSax("<a><b x=\"&amp;1\" y=\"2\" z=></b></a>", &rec);
  EXPECT_FALSE(s.ok());
  std::vector<std::string> before = {"<a"};
  EXPECT_EQ(rec.events, before);
  // The next parse starts from empty slots.
  Recorder next;
  ASSERT_TRUE(ParseSax("<c/>", &next).ok());
  std::vector<std::string> expected = {"<c", "</c"};
  EXPECT_EQ(next.events, expected);
  Recorder again;
  ASSERT_TRUE(ParseSax("<c k=\"&#x41;\"/>", &again).ok());
  EXPECT_EQ(again.events[0], "<c k=A");
}

TEST(SaxAttributeReuseTest, TextReferencesDoNotLeakIntoAttributes) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a>&amp;long text with a reference</a>", &rec)
                  .ok());
  ASSERT_TRUE(ParseSax("<a>x&lt;y<b v=\"&gt;\"/>tail&amp;</a>", &rec).ok());
  std::vector<std::string> expected = {
      "<a", "T:&long text with a reference", "</a", "<a", "T:x<y",
      "<b v=>", "</b", "T:tail&", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxWriterTest, WritesNestedDocument) {
  std::string out;
  SaxWriter w(&out);
  std::vector<SaxAttribute> attrs = {{"x", "a<b"}};
  ASSERT_TRUE(w.StartElement("r", attrs).ok());
  ASSERT_TRUE(w.StartElement("c", {}).ok());
  ASSERT_TRUE(w.Text("hi & bye").ok());
  ASSERT_TRUE(w.EndElement("c").ok());
  ASSERT_TRUE(w.StartElement("d", {}).ok());
  ASSERT_TRUE(w.EndElement("d").ok());
  ASSERT_TRUE(w.EndElement("r").ok());
  EXPECT_EQ(out, "<r x=\"a&lt;b\"><c>hi &amp; bye</c><d/></r>");
}

TEST(SaxWriterTest, RoundTripThroughParser) {
  const std::string input = "<r a=\"1\"><b>text</b><c/><d>x<e/>y</d></r>";
  std::string out;
  SaxWriter w(&out);
  ASSERT_TRUE(ParseSax(input, &w).ok());
  EXPECT_EQ(out, input);
}

}  // namespace
}  // namespace xupdate::xml
