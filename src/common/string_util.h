#ifndef XUPDATE_COMMON_STRING_UTIL_H_
#define XUPDATE_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xupdate {

// Appends `text` to `out` with &, <, > (text content) — and additionally
// " when `in_attribute` — escaped per XML 1.0 character escaping rules.
// Runs without a special character are copied in one piece.
void XmlEscape(std::string_view text, bool in_attribute, std::string* out);

// The number of bytes XmlEscape appends for `text`.
size_t XmlEscapedSize(std::string_view text, bool in_attribute);

// Appends `text` to `out` with the five predefined XML entities plus
// decimal/hex character references resolved. Unknown entities are left
// verbatim (non-validating). The result never outgrows the input: every
// reference is at least as long as the UTF-8 it stands for.
void XmlUnescape(std::string_view text, std::string* out);

// Appends the decimal digits of `value` to `out`.
void AppendDecimal(std::string* out, uint64_t value);

// The number of digits AppendDecimal appends for `value`.
size_t DecimalDigits(uint64_t value);

// True if `name` is a valid (namespace-less) XML element/attribute name
// for our non-validating subset: [A-Za-z_:][A-Za-z0-9._:-]*.
bool IsValidXmlName(std::string_view name);

// Escapes a string for embedding inside a JSON string literal: quote,
// backslash, \n \r \t, and \u00XX for the remaining control characters.
// Shared by Metrics::ToJson, the analysis reports and the obs sinks so
// every JSON emitter in the tree escapes identically.
std::string JsonEscape(std::string_view text);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

// Whitespace trim (space, tab, CR, LF) from both ends.
std::string_view Trim(std::string_view s);

// Parses a non-negative integer; returns -1 on malformed input.
int64_t ParseNonNegativeInt(std::string_view s);

}  // namespace xupdate

#endif  // XUPDATE_COMMON_STRING_UTIL_H_
