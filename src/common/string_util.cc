#include "common/string_util.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cctype>
#include <cstdio>

namespace xupdate {

void XmlEscape(std::string_view text, bool in_attribute, std::string* out) {
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = 0; i < text.size(); ++i) {
    std::string_view entity;
    switch (text[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        if (!in_attribute) continue;
        entity = "&quot;";
        break;
      default:
        continue;
    }
    out->append(text.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(text.data() + run, text.size() - run);
}

size_t XmlEscapedSize(std::string_view text, bool in_attribute) {
  size_t size = text.size();
  for (char c : text) {
    switch (c) {
      case '&':
        size += 4;  // &amp;
        break;
      case '<':
      case '>':
        size += 3;  // &lt; &gt;
        break;
      case '"':
        if (in_attribute) size += 5;  // &quot;
        break;
      default:
        break;
    }
  }
  return size;
}

void XmlUnescape(std::string_view text, std::string* out) {
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      size_t amp = std::min(text.find('&', i), text.size());
      out->append(text.substr(i, amp - i));
      i = amp;
      continue;
    }
    size_t semi = text.find(';', i);
    if (semi == std::string_view::npos || semi - i > 10) {
      *out += text[i++];
      continue;
    }
    std::string_view entity = text.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      *out += '&';
    } else if (entity == "lt") {
      *out += '<';
    } else if (entity == "gt") {
      *out += '>';
    } else if (entity == "quot") {
      *out += '"';
    } else if (entity == "apos") {
      *out += '\'';
    } else if (!entity.empty() && entity[0] == '#') {
      uint32_t cp = 0;
      bool valid = entity.size() > 1;
      if (entity.size() > 2 && (entity[1] == 'x' || entity[1] == 'X')) {
        for (size_t k = 2; k < entity.size(); ++k) {
          char c = entity[k];
          uint32_t digit;
          if (c >= '0' && c <= '9') {
            digit = static_cast<uint32_t>(c - '0');
          } else if (c >= 'a' && c <= 'f') {
            digit = static_cast<uint32_t>(c - 'a' + 10);
          } else if (c >= 'A' && c <= 'F') {
            digit = static_cast<uint32_t>(c - 'A' + 10);
          } else {
            valid = false;
            break;
          }
          cp = cp * 16 + digit;
        }
      } else {
        for (size_t k = 1; k < entity.size(); ++k) {
          if (!std::isdigit(static_cast<unsigned char>(entity[k]))) {
            valid = false;
            break;
          }
          cp = cp * 10 + static_cast<uint32_t>(entity[k] - '0');
        }
      }
      if (!valid || cp == 0 || cp > 0x10ffff) {
        *out += text[i++];
        continue;
      }
      // UTF-8 encode.
      if (cp < 0x80) {
        *out += static_cast<char>(cp);
      } else if (cp < 0x800) {
        *out += static_cast<char>(0xc0 | (cp >> 6));
        *out += static_cast<char>(0x80 | (cp & 0x3f));
      } else if (cp < 0x10000) {
        *out += static_cast<char>(0xe0 | (cp >> 12));
        *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        *out += static_cast<char>(0x80 | (cp & 0x3f));
      } else {
        *out += static_cast<char>(0xf0 | (cp >> 18));
        *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
        *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        *out += static_cast<char>(0x80 | (cp & 0x3f));
      }
    } else {
      // Unknown entity: keep verbatim.
      *out += text[i];
      ++i;
      continue;
    }
    i = semi + 1;
  }
}

bool IsValidXmlName(std::string_view name) {
  if (name.empty()) return false;
  char c0 = name[0];
  if (!(std::isalpha(static_cast<unsigned char>(c0)) || c0 == '_' ||
        c0 == ':')) {
    return false;
  }
  for (char c : name.substr(1)) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '_' || c == ':' || c == '-')) {
      return false;
    }
  }
  return true;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

void AppendDecimal(std::string* out, uint64_t value) {
  char buf[20];
  char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, end);
}

size_t DecimalDigits(uint64_t value) {
  static constexpr uint64_t kPowers[20] = {
      1ull,
      10ull,
      100ull,
      1000ull,
      10000ull,
      100000ull,
      1000000ull,
      10000000ull,
      100000000ull,
      1000000000ull,
      10000000000ull,
      100000000000ull,
      1000000000000ull,
      10000000000000ull,
      100000000000000ull,
      1000000000000000ull,
      10000000000000000ull,
      100000000000000000ull,
      1000000000000000000ull,
      10000000000000000000ull};
  // From the bit width (1233 / 4096 ~ log10(2)): the digit count or
  // one less, which the power table decides. 0 counts as 1.
  value |= 1;
  const size_t estimate = (std::bit_width(value) * 1233) >> 12;
  return estimate + (value >= kPowers[estimate] ? 1 : 0);
}

int64_t ParseNonNegativeInt(std::string_view s) {
  if (s.empty()) return -1;
  int64_t value = 0;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return -1;
    int digit = c - '0';
    if (value > (INT64_MAX - digit) / 10) return -1;
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace xupdate
