#include "xml/sax.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "common/string_util.h"

namespace xupdate::xml {

namespace {

bool IsWhitespaceOnly(std::string_view s) {
  for (char c : s) {
    if (c != ' ' && c != '\t' && c != '\r' && c != '\n') return false;
  }
  return true;
}

bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) {
  return IsNameStart(c) || (c >= '0' && c <= '9') || c == '.' || c == '-';
}

// Cursor over the input with 1-based line tracking for error messages.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t ahead) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }
  void Advance() {
    if (input_[pos_] == '\n') ++line_;
    ++pos_;
  }
  bool Consume(std::string_view expected) {
    if (input_.substr(pos_, expected.size()) != expected) return false;
    for (size_t i = 0; i < expected.size(); ++i) Advance();
    return true;
  }
  // Advances past `delim`, returning the text before it.
  Status SkipUntil(std::string_view delim, std::string_view what) {
    size_t found = input_.find(delim, pos_);
    if (found == std::string_view::npos) {
      return Error(std::string("unterminated ") + std::string(what));
    }
    AdvanceTo(found + delim.size());
    return Status::OK();
  }
  // The text before the next `delim`, advancing past it; nullopt, with
  // the cursor at the end of the input, when there is none.
  std::optional<std::string_view> TakeUntil(std::string_view delim) {
    size_t found = input_.find(delim, pos_);
    if (found == std::string_view::npos) {
      AdvanceTo(input_.size());
      return std::nullopt;
    }
    std::string_view out = input_.substr(pos_, found - pos_);
    AdvanceTo(found + delim.size());
    return out;
  }
  std::string_view TextUntil(char stop) {
    size_t found = input_.find(stop, pos_);
    if (found == std::string_view::npos) found = input_.size();
    std::string_view out = input_.substr(pos_, found - pos_);
    AdvanceTo(found);
    return out;
  }
  // Moves to `end` (>= the current position), counting the lines passed.
  void AdvanceTo(size_t end) {
    line_ += static_cast<size_t>(
        std::count(input_.begin() + pos_, input_.begin() + end, '\n'));
    pos_ = end;
  }
  void SkipWhitespace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\r' ||
                        Peek() == '\n')) {
      Advance();
    }
  }
  std::string_view ReadName() {
    size_t begin = pos_;
    if (!AtEnd() && IsNameStart(Peek())) {
      Advance();
      while (!AtEnd() && IsNameChar(Peek())) Advance();
    }
    return input_.substr(begin, pos_ - begin);
  }
  Status Error(std::string message) const {
    return Status::ParseError("line " + std::to_string(line_) + ": " +
                              std::move(message));
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
  size_t line_ = 1;
};

// Reads a start tag's attribute list into `attrs` as views into the
// input. Values holding a reference are then unescaped into `scratch`,
// reserved up front for all of them (unescaping never grows a value),
// so the views into it stay put.
Status ParseAttributes(Cursor& cur, std::vector<SaxAttribute>* attrs,
                       std::string* scratch) {
  attrs->clear();
  size_t escaped_bytes = 0;
  for (;;) {
    cur.SkipWhitespace();
    if (cur.AtEnd()) return cur.Error("unterminated start tag");
    char c = cur.Peek();
    if (c == '>' || c == '/') break;
    std::string_view name = cur.ReadName();
    if (name.empty()) return cur.Error("expected attribute name");
    cur.SkipWhitespace();
    if (cur.AtEnd() || cur.Peek() != '=') {
      return cur.Error("expected '=' after attribute name");
    }
    cur.Advance();
    cur.SkipWhitespace();
    if (cur.AtEnd() || (cur.Peek() != '"' && cur.Peek() != '\'')) {
      return cur.Error("expected quoted attribute value");
    }
    char quote = cur.Peek();
    cur.Advance();
    std::string_view raw = cur.TextUntil(quote);
    if (cur.AtEnd()) return cur.Error("unterminated attribute value");
    cur.Advance();  // closing quote
    if (raw.find('&') != std::string_view::npos) escaped_bytes += raw.size();
    attrs->push_back({name, raw});
  }
  if (escaped_bytes == 0) return Status::OK();
  scratch->clear();
  scratch->reserve(escaped_bytes);
  for (SaxAttribute& a : *attrs) {
    if (a.value.find('&') == std::string_view::npos) continue;
    const size_t at = scratch->size();
    XmlUnescape(a.value, scratch);
    a.value = std::string_view(scratch->data() + at, scratch->size() - at);
  }
  assert(scratch->size() <= escaped_bytes);
  return Status::OK();
}

}  // namespace

Status ParseSax(std::string_view input, SaxHandler* handler,
                const SaxOptions& options) {
  Cursor cur(input);
  std::vector<std::string_view> open_elements;
  std::vector<SaxAttribute> attrs;
  std::string scratch;  // unescaped values, reused
  bool seen_root = false;

  while (!cur.AtEnd()) {
    if (cur.Peek() != '<') {
      std::string_view raw = cur.TextUntil('<');
      if (open_elements.empty()) {
        if (!IsWhitespaceOnly(raw)) {
          return cur.Error("character data outside the root element");
        }
        continue;
      }
      if (options.keep_whitespace_text || !IsWhitespaceOnly(raw)) {
        if (raw.find('&') != std::string_view::npos) {
          scratch.clear();
          XmlUnescape(raw, &scratch);
          raw = scratch;
        }
        XUPDATE_RETURN_IF_ERROR(handler->Text(raw));
      }
      continue;
    }
    // A markup construct.
    if (cur.Consume("<!--")) {
      XUPDATE_RETURN_IF_ERROR(cur.SkipUntil("-->", "comment"));
      continue;
    }
    if (cur.Consume("<![CDATA[")) {
      // CDATA content is literal text. An empty section holds no text
      // (a text node is never empty, and an empty one would not survive
      // a serialize -> parse round trip).
      std::optional<std::string_view> text = cur.TakeUntil("]]>");
      if (!text) return cur.Error("unterminated CDATA section");
      if (open_elements.empty()) {
        return cur.Error("CDATA outside the root element");
      }
      if (!text->empty()) XUPDATE_RETURN_IF_ERROR(handler->Text(*text));
      continue;
    }
    if (cur.Consume("<!")) {
      // DOCTYPE or other declaration: skip to '>' (internal subsets with
      // nested brackets are not supported by this subset).
      XUPDATE_RETURN_IF_ERROR(cur.SkipUntil(">", "declaration"));
      continue;
    }
    if (cur.Consume("<?")) {
      std::string_view target = cur.ReadName();
      cur.SkipWhitespace();
      std::optional<std::string_view> data = cur.TakeUntil("?>");
      if (!data) return cur.Error("unterminated processing instruction");
      if (!target.empty() && target != "xml") {
        XUPDATE_RETURN_IF_ERROR(
            handler->ProcessingInstruction(target, *data));
      }
      continue;
    }
    if (cur.Consume("</")) {
      std::string_view name = cur.ReadName();
      cur.SkipWhitespace();
      if (!cur.Consume(">")) return cur.Error("malformed end tag");
      if (open_elements.empty()) {
        return cur.Error("unmatched end tag </" + std::string(name) + ">");
      }
      if (open_elements.back() != name) {
        return cur.Error("end tag </" + std::string(name) +
                         "> does not match <" +
                         std::string(open_elements.back()) + ">");
      }
      open_elements.pop_back();
      XUPDATE_RETURN_IF_ERROR(handler->EndElement(name));
      continue;
    }
    cur.Advance();  // consume '<'
    std::string_view name = cur.ReadName();
    if (name.empty()) return cur.Error("expected element name after '<'");
    if (open_elements.empty() && seen_root) {
      return cur.Error("multiple root elements");
    }
    XUPDATE_RETURN_IF_ERROR(ParseAttributes(cur, &attrs, &scratch));
    bool self_close = false;
    if (cur.Peek() == '/') {
      cur.Advance();
      self_close = true;
    }
    if (cur.AtEnd() || cur.Peek() != '>') {
      return cur.Error("malformed start tag <" + std::string(name) + ">");
    }
    cur.Advance();
    seen_root = true;
    XUPDATE_RETURN_IF_ERROR(handler->StartElement(name, attrs));
    if (self_close) {
      XUPDATE_RETURN_IF_ERROR(handler->EndElement(name));
    } else {
      open_elements.push_back(name);
    }
  }
  if (!open_elements.empty()) {
    return Status::ParseError("unclosed element <" +
                              std::string(open_elements.back()) +
                              "> at end of input");
  }
  if (!seen_root) return Status::ParseError("no root element");
  return Status::OK();
}

void SaxWriter::CloseOpenTag(bool self_close) {
  if (tag_open_) {
    out_ += self_close ? "/>" : ">";
    tag_open_ = false;
  }
}

void SaxWriter::Indent() {
  if (!pretty_) return;
  out_ += '\n';
  out_.append(static_cast<size_t>(depth_) * 2, ' ');
}

void SaxWriter::OpenTag(std::string_view name) {
  CloseOpenTag(false);
  if (out_.size() > begin_ && !just_text_) Indent();
  out_ += '<';
  out_ += name;
  tag_open_ = true;
  just_text_ = false;
  ++depth_;
}

void SaxWriter::Attribute(std::string_view name, std::string_view value) {
  assert(tag_open_);
  out_ += ' ';
  out_ += name;
  out_ += "=\"";
  XmlEscape(value, /*in_attribute=*/true, &out_);
  out_ += '"';
}

Status SaxWriter::StartElement(std::string_view name,
                               std::span<const SaxAttribute> attributes) {
  OpenTag(name);
  for (const SaxAttribute& attr : attributes) {
    Attribute(attr.name, attr.value);
  }
  return Status::OK();
}

Status SaxWriter::EndElement(std::string_view name) {
  --depth_;
  if (tag_open_) {
    CloseOpenTag(true);
    just_text_ = false;
    return Status::OK();
  }
  if (!just_text_) Indent();
  out_ += "</";
  out_ += name;
  out_ += '>';
  just_text_ = false;
  return Status::OK();
}

Status SaxWriter::Text(std::string_view text) {
  CloseOpenTag(false);
  XmlEscape(text, /*in_attribute=*/false, &out_);
  just_text_ = true;
  return Status::OK();
}

std::string* SaxWriter::Raw() {
  CloseOpenTag(false);
  just_text_ = true;
  return &out_;
}

Status SaxWriter::ProcessingInstruction(std::string_view target,
                                        std::string_view data) {
  CloseOpenTag(false);
  out_ += "<?";
  out_ += target;
  if (!data.empty()) {
    out_ += ' ';
    out_ += data;
  }
  out_ += "?>";
  // A PI between text runs must not trigger indentation, or the
  // <?xuid N?> markers would split text with whitespace.
  just_text_ = true;
  return Status::OK();
}

}  // namespace xupdate::xml
