#include "common/string_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace xupdate {
namespace {

std::string Escaped(std::string_view text, bool in_attribute = false) {
  std::string out;
  XmlEscape(text, in_attribute, &out);
  return out;
}

std::string Unescaped(std::string_view text) {
  std::string out;
  XmlUnescape(text, &out);
  return out;
}

TEST(XmlEscapeTest, AppendsToExistingOutput) {
  std::string out = "<a x=\"";
  XmlEscape("1 & \"2\"", /*in_attribute=*/true, &out);
  XmlEscape("<", /*in_attribute=*/true, &out);
  EXPECT_EQ(out, "<a x=\"1 &amp; &quot;2&quot;&lt;");
  std::string plain = "t:";
  XmlUnescape("&amp;&#x41;", &plain);
  EXPECT_EQ(plain, "t:&A");
}

TEST(AppendDecimalTest, Extremes) {
  std::string out;
  AppendDecimal(&out, 0);
  out += ' ';
  AppendDecimal(&out, UINT64_MAX);
  EXPECT_EQ(out, "0 18446744073709551615");
}

// DecimalDigits and XmlEscapedSize give exactly the sizes AppendDecimal
// and XmlEscape append.
TEST(AppendDecimalTest, DigitsMatchTheAppendedText) {
  std::vector<uint64_t> values = {0, UINT64_MAX};
  for (uint64_t power = 1; power <= UINT64_MAX / 10; power *= 10) {
    values.insert(values.end(), {power - 1, power, power + 1, power * 10 - 1});
  }
  for (uint64_t value : values) {
    std::string text;
    AppendDecimal(&text, value);
    EXPECT_EQ(DecimalDigits(value), text.size()) << value;
  }
}

TEST(XmlEscapeTest, EscapedSizeMatchesTheAppendedText) {
  for (std::string_view text : {"", "plain", "a<b>&c", "say \"hi\"", "&&<<>>\"\""}) {
    for (bool in_attribute : {false, true}) {
      EXPECT_EQ(XmlEscapedSize(text, in_attribute),
                Escaped(text, in_attribute).size())
          << text << " in_attribute=" << in_attribute;
    }
  }
}

TEST(XmlEscapeTest, EscapesMarkup) {
  EXPECT_EQ(Escaped("a<b>&c"), "a&lt;b&gt;&amp;c");
}

TEST(XmlEscapeTest, QuotesOnlyInAttributes) {
  EXPECT_EQ(Escaped("say \"hi\""), "say \"hi\"");
  EXPECT_EQ(Escaped("say \"hi\"", /*in_attribute=*/true),
            "say &quot;hi&quot;");
}

TEST(XmlUnescapeTest, NamedEntities) {
  EXPECT_EQ(Unescaped("&lt;a&gt; &amp; &quot;x&quot; &apos;y&apos;"),
            "<a> & \"x\" 'y'");
}

TEST(XmlUnescapeTest, NumericEntities) {
  EXPECT_EQ(Unescaped("&#65;&#x42;"), "AB");
  EXPECT_EQ(Unescaped("&#xE9;"), "\xC3\xA9");  // e-acute in UTF-8
}

TEST(XmlUnescapeTest, UnknownEntityKeptVerbatim) {
  EXPECT_EQ(Unescaped("&nope;"), "&nope;");
  EXPECT_EQ(Unescaped("a & b"), "a & b");
}

TEST(XmlEscapeTest, RoundTrip) {
  std::string original = "x < y && z > \"q\" 'w'";
  EXPECT_EQ(Unescaped(Escaped(original, true)), original);
}

TEST(IsValidXmlNameTest, AcceptsTypicalNames) {
  EXPECT_TRUE(IsValidXmlName("author"));
  EXPECT_TRUE(IsValidXmlName("_private"));
  EXPECT_TRUE(IsValidXmlName("ns:tag"));
  EXPECT_TRUE(IsValidXmlName("a-b.c_d"));
}

TEST(IsValidXmlNameTest, RejectsBadNames) {
  EXPECT_FALSE(IsValidXmlName(""));
  EXPECT_FALSE(IsValidXmlName("1abc"));
  EXPECT_FALSE(IsValidXmlName("-x"));
  EXPECT_FALSE(IsValidXmlName("a b"));
  EXPECT_FALSE(IsValidXmlName("a<b"));
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape("line\nfeed\rback"), "line\\nfeed\\rback");
  EXPECT_EQ(JsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(JsonEscapeTest, LeavesUtf8Alone) {
  EXPECT_EQ(JsonEscape("caf\xC3\xA9"), "caf\xC3\xA9");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, TrimsWhitespace) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \r\n\t "), "");
}

TEST(ParseNonNegativeIntTest, ParsesAndRejects) {
  EXPECT_EQ(ParseNonNegativeInt("0"), 0);
  EXPECT_EQ(ParseNonNegativeInt("12345"), 12345);
  EXPECT_EQ(ParseNonNegativeInt(""), -1);
  EXPECT_EQ(ParseNonNegativeInt("-3"), -1);
  EXPECT_EQ(ParseNonNegativeInt("12x"), -1);
  EXPECT_EQ(ParseNonNegativeInt("99999999999999999999999"), -1);
}

// The overflow guard is exact: every value up to INT64_MAX parses, and
// one more is refused.
TEST(ParseNonNegativeIntTest, AcceptsExactlyTheInt64Range) {
  EXPECT_EQ(ParseNonNegativeInt("9223372036854775799"),
            INT64_C(9223372036854775799));
  EXPECT_EQ(ParseNonNegativeInt("9223372036854775800"),
            INT64_C(9223372036854775800));
  EXPECT_EQ(ParseNonNegativeInt("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseNonNegativeInt("09223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseNonNegativeInt("9223372036854775808"), -1);
  EXPECT_EQ(ParseNonNegativeInt("9223372036854775809"), -1);
  EXPECT_EQ(ParseNonNegativeInt("10000000000000000000"), -1);
}

}  // namespace
}  // namespace xupdate
