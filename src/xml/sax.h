#ifndef XUPDATE_XML_SAX_H_
#define XUPDATE_XML_SAX_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xupdate::xml {

// One attribute as seen by the SAX layer (value already unescaped).
// ParseSax hands out views into its input, or into its own scratch
// buffer for a value that held a character reference; both stay valid
// only for the duration of the StartElement call.
struct SaxAttribute {
  std::string_view name;
  std::string_view value;
};

// Receiver of SAX events. The streaming PUL evaluator (§4.3 of the
// paper: "a specialized SAX parser and writer") is implemented as a
// SaxHandler that rewrites the event stream on the fly.
class SaxHandler {
 public:
  virtual ~SaxHandler() = default;

  virtual Status StartElement(std::string_view name,
                              std::span<const SaxAttribute> attributes) = 0;
  virtual Status EndElement(std::string_view name) = 0;
  virtual Status Text(std::string_view text) = 0;
  // Processing instruction <?target data?>. The id-annotated document
  // format uses <?xuid N?> to tag the following text node with its node
  // id; most handlers can ignore PIs (default: skip).
  virtual Status ProcessingInstruction(std::string_view target,
                                       std::string_view data) {
    (void)target;
    (void)data;
    return Status::OK();
  }
};

struct SaxOptions {
  // Drop text nodes consisting only of whitespace (data-centric XML).
  bool keep_whitespace_text = false;
};

// Non-validating single-pass parser over `input`. Element/attribute
// syntax, character data, CDATA, comments, processing instructions and a
// DOCTYPE prolog are recognized; namespaces are treated as plain colons
// in names. Stops at the first error or the first non-OK handler status.
// Every name and every reference-free text or attribute value reaches
// the handler as a view into `input`; the rest are unescaped into one
// reused buffer, so a start tag allocates nothing in steady state.
Status ParseSax(std::string_view input, SaxHandler* handler,
                const SaxOptions& options = {});

// Serializes a stream of SAX events back to XML text, appending to a
// caller-owned string.
class SaxWriter : public SaxHandler {
 public:
  // `out` must outlive the writer.
  explicit SaxWriter(std::string* out, bool pretty = false)
      : out_(*out), begin_(out->size()), pretty_(pretty) {}

  Status StartElement(std::string_view name,
                      std::span<const SaxAttribute> attributes) override;
  // StartElement in pieces, for writers that hold no attribute list:
  // OpenTag writes "<name", then each Attribute call one escaped
  // name="value" pair, until the next event closes the tag.
  void OpenTag(std::string_view name);
  void Attribute(std::string_view name, std::string_view value);
  Status EndElement(std::string_view name) override;
  Status Text(std::string_view text) override;
  Status ProcessingInstruction(std::string_view target,
                               std::string_view data) override;

  // Closes a pending start tag and returns the output, for the caller
  // to append pre-serialized XML verbatim (the streaming PUL evaluator
  // splices parameter trees into the stream this way).
  std::string* Raw();

 private:
  void CloseOpenTag(bool self_close);
  void Indent();

  std::string& out_;
  size_t begin_;  // out_'s size before this writer's first byte
  bool pretty_;
  bool tag_open_ = false;      // "<name ..." emitted, '>' pending
  bool just_text_ = false;     // last event was text (suppress indent)
  int depth_ = 0;
};

}  // namespace xupdate::xml

#endif  // XUPDATE_XML_SAX_H_
