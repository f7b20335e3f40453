#include "pul/pul_io.h"

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "pul/update_op.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xupdate::pul {

using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

namespace {

void AppendAttr(std::string* out, std::string_view name,
                std::string_view value) {
  *out += ' ';
  *out += name;
  *out += "=\"";
  XmlEscape(value, /*in_attribute=*/true, out);
  *out += '"';
}

// Numbers and labels need no escaping: they are appended as they are.
void AppendIdAttr(std::string* out, std::string_view name, NodeId id) {
  *out += ' ';
  *out += name;
  *out += "=\"";
  AppendDecimal(out, id);
  *out += '"';
}

Status SerializeParam(const Document& forest, NodeId root,
                      std::string* out) {
  switch (forest.type(root)) {
    case NodeType::kElement: {
      xml::SerializeOptions options;
      options.with_ids = true;
      *out += "<elem>";
      XUPDATE_RETURN_IF_ERROR(
          xml::AppendSubtree(forest, root, options, out));
      *out += "</elem>";
      return Status::OK();
    }
    case NodeType::kText: {
      *out += "<text";
      AppendIdAttr(out, "id", root);
      AppendAttr(out, "value", forest.value(root));
      *out += "/>";
      return Status::OK();
    }
    case NodeType::kAttribute: {
      *out += "<attr";
      AppendIdAttr(out, "id", root);
      AppendAttr(out, "name", forest.name(root));
      AppendAttr(out, "value", forest.value(root));
      *out += "/>";
      return Status::OK();
    }
  }
  return Status::Internal("unknown parameter node type");
}

// What SerializePul reserves: an upper bound on each op's own record
// (its kind, target, label and argument) from the op's fields, plus
// kParamBytes per parameter tree. Only a parameter tree larger than
// that can still grow the string: walking the forest to size the
// trees costs more than the growth it would save.
constexpr size_t kParamBytes = 64;

size_t SerializedSizeBound(const Pul& pul) {
  size_t size = 96;  // <pul>, the <policies/> record, </pul>
  for (const UpdateOp& op : pul.ops()) {
    // <op kind="K" target="N"></op>, K at most 13 characters
    size += 40 + DecimalDigits(op.target);
    if (op.target_label.valid()) {
      //  label="tL:S:E:P:L:1"
      const label::NodeLabel& l = op.target_label;
      size += 16 + DecimalDigits(l.level) + l.start.size() + l.end.size() +
              DecimalDigits(l.parent) + DecimalDigits(l.left_sibling);
    }
    if (op.kind == OpKind::kReplaceValue || op.kind == OpKind::kRename) {
      size += 7 + XmlEscapedSize(op.param_string, true);  //  arg="V"
    }
    size += op.param_trees.size() * kParamBytes;
  }
  return size;
}

// First value of attribute `name`, or nullptr when absent.
const std::string_view* FindAttr(
    std::span<const xml::SaxAttribute> attributes, std::string_view name) {
  for (const xml::SaxAttribute& a : attributes) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

Result<std::string_view> RequiredAttr(
    std::span<const xml::SaxAttribute> attributes, std::string_view name,
    std::string_view element) {
  const std::string_view* value = FindAttr(attributes, name);
  if (value == nullptr) {
    return Status::ParseError("missing attribute \"" + std::string(name) +
                              "\" on <" + std::string(element) + ">");
  }
  return *value;
}

// Unannotated <elem> parameter nodes take fresh ids from this floor up,
// clear of every explicit id a producer assigns (§4.1 id spaces).
constexpr NodeId kUnannotatedIdFloor = NodeId{1} << 62;

// One-pass reader: SAX events go straight into the Pul. Op fields,
// policies and <text>/<attr> parameters are read off the attribute span;
// each <elem> parameter's events are forwarded to a DomBuilder on the
// PUL's forest, so the tree is built once, in place.
class PulReader : public xml::SaxHandler {
 public:
  explicit PulReader(Pul* out)
      : out_(out), trees_(&out->forest(), /*read_ids=*/true,
                          kUnannotatedIdFloor) {}

  Status StartElement(std::string_view name,
                      std::span<const xml::SaxAttribute> attributes) override {
    switch (state_) {
      case State::kRecord:
        if (name != "pul") {
          return Status::ParseError("root element must be <pul>");
        }
        state_ = State::kPul;
        return Status::OK();
      case State::kPul:
        if (name == "policies") {
          ReadPolicies(attributes);
          Skip(State::kPul);
          return Status::OK();
        }
        if (name == "op") {
          state_ = State::kOp;
          return BeginOp(attributes);
        }
        return Status::ParseError("unknown element <" + std::string(name) +
                                  "> inside <pul>");
      case State::kOp:
        if (name == "elem") {
          state_ = State::kElem;
          elem_root_ = kInvalidNode;
          return Status::OK();
        }
        if (name == "text" || name == "attr") {
          Skip(State::kOp);
          return ReadScalarParam(name, attributes);
        }
        return Status::ParseError("unknown parameter wrapper <" +
                                  std::string(name) + ">");
      case State::kElem:
        if (trees_.building()) return trees_.StartElement(name, attributes);
        if (elem_root_ != kInvalidNode) return ElemShapeError();
        XUPDATE_RETURN_IF_ERROR(trees_.StartElement(name, attributes));
        elem_root_ = trees_.root();
        return Status::OK();
      case State::kSkip:
        ++skip_depth_;
        return Status::OK();
    }
    return Status::Internal("PUL reader in an unknown state");
  }

  Status EndElement(std::string_view name) override {
    switch (state_) {
      case State::kRecord:
      case State::kPul:  // </pul>; ParseSax rejects anything after it
        return Status::OK();
      case State::kOp:
        state_ = State::kPul;
        op_.param_trees.assign(params_.begin(), params_.end());
        params_.clear();
        return out_->AddOp(std::exchange(op_, UpdateOp()));
      case State::kElem:
        if (trees_.building()) return trees_.EndElement(name);
        if (elem_root_ == kInvalidNode) return ElemShapeError();
        params_.push_back(elem_root_);
        state_ = State::kOp;
        return Status::OK();
      case State::kSkip:
        if (--skip_depth_ == 0) state_ = skip_return_;
        return Status::OK();
    }
    return Status::Internal("PUL reader in an unknown state");
  }

  Status Text(std::string_view text) override {
    switch (state_) {
      case State::kPul:
        return Status::ParseError("unexpected content inside <pul>");
      case State::kOp:
        return Status::ParseError("unexpected content inside <op>");
      case State::kElem:
        if (!trees_.building()) return ElemShapeError();
        return trees_.Text(text);
      case State::kRecord:
      case State::kSkip:
        break;
    }
    return Status::OK();
  }

  Status ProcessingInstruction(std::string_view target,
                               std::string_view data) override {
    if (state_ != State::kElem) return Status::OK();
    return trees_.ProcessingInstruction(target, data);
  }

 private:
  enum class State {
    kRecord,  // before <pul>
    kPul,     // directly inside <pul>
    kOp,      // directly inside <op>
    kElem,    // inside an <elem> parameter
    kSkip,    // inside <policies>/<text>/<attr>, whose content is ignored
  };

  static Status ElemShapeError() {
    return Status::ParseError("<elem> must wrap exactly one element");
  }

  void Skip(State resume) {
    state_ = State::kSkip;
    skip_return_ = resume;
    skip_depth_ = 1;
  }

  void ReadPolicies(std::span<const xml::SaxAttribute> attributes) {
    auto flag = [&](std::string_view name) {
      const std::string_view* value = FindAttr(attributes, name);
      return value != nullptr && *value == "1";
    };
    Policies p;
    p.preserve_insertion_order = flag("insertionOrder");
    p.preserve_inserted_data = flag("insertedData");
    p.preserve_removed_data = flag("removedData");
    out_->set_policies(p);
  }

  Status BeginOp(std::span<const xml::SaxAttribute> attributes) {
    XUPDATE_ASSIGN_OR_RETURN(std::string_view kind_name,
                             RequiredAttr(attributes, "kind", "op"));
    if (!OpKindFromName(kind_name, &op_.kind)) {
      return Status::ParseError("unknown op kind \"" +
                                std::string(kind_name) + "\"");
    }
    XUPDATE_ASSIGN_OR_RETURN(std::string_view target_text,
                             RequiredAttr(attributes, "target", "op"));
    int64_t target = ParseNonNegativeInt(target_text);
    if (target <= 0) return Status::ParseError("bad op target id");
    op_.target = static_cast<NodeId>(target);
    const std::string_view* label_text = FindAttr(attributes, "label");
    if (label_text != nullptr && !label_text->empty()) {
      XUPDATE_ASSIGN_OR_RETURN(
          op_.target_label, label::NodeLabel::Parse(*label_text, op_.target));
    }
    if (const std::string_view* arg = FindAttr(attributes, "arg")) {
      op_.param_string = *arg;
    }
    return Status::OK();
  }

  Status ReadScalarParam(std::string_view wrapper,
                         std::span<const xml::SaxAttribute> attributes) {
    XUPDATE_ASSIGN_OR_RETURN(std::string_view id_text,
                             RequiredAttr(attributes, "id", wrapper));
    int64_t id = ParseNonNegativeInt(id_text);
    if (id <= 0) return Status::ParseError("bad parameter node id");
    XUPDATE_ASSIGN_OR_RETURN(std::string_view value,
                             RequiredAttr(attributes, "value", wrapper));
    if (wrapper == "text") {
      XUPDATE_RETURN_IF_ERROR(out_->forest().CreateWithId(
          static_cast<NodeId>(id), NodeType::kText, "", value));
    } else {
      XUPDATE_ASSIGN_OR_RETURN(std::string_view name,
                               RequiredAttr(attributes, "name", wrapper));
      XUPDATE_RETURN_IF_ERROR(out_->forest().CreateWithId(
          static_cast<NodeId>(id), NodeType::kAttribute, name, value));
    }
    params_.push_back(static_cast<NodeId>(id));
    return Status::OK();
  }

  Pul* out_;
  xml::DomBuilder trees_;
  State state_ = State::kRecord;
  State skip_return_ = State::kPul;
  int skip_depth_ = 0;
  UpdateOp op_;                  // the op being read
  std::vector<NodeId> params_;   // its parameter roots so far
  NodeId elem_root_ = kInvalidNode;
};

// Counts <op> start tags, to pre-size the op list before the single
// pass. An element named "op" inside an <elem> tree is counted too,
// which only over-reserves.
size_t CountOpTags(std::string_view text) {
  size_t n = 0;
  for (size_t pos = text.find("<op"); pos != std::string_view::npos;
       pos = text.find("<op", pos + 3)) {
    char next = pos + 3 < text.size() ? text[pos + 3] : '\0';
    if (next == '>' || next == '/' || next == ' ' || next == '\t' ||
        next == '\r' || next == '\n') {
      ++n;
    }
  }
  return n;
}

}  // namespace

Result<std::string> SerializePul(const Pul& pul) {
  std::string out;
  out.reserve(SerializedSizeBound(pul));
  out += "<pul>";
  // Build first, scan once at the end: a NUL anywhere in the output can
  // only come from an operation argument or parameter value, and NUL is
  // not a legal XML character — consumers reading the serialization as
  // a C string would silently truncate the record. Reject instead.
  const Policies& p = pul.policies();
  if (p.preserve_insertion_order || p.preserve_inserted_data ||
      p.preserve_removed_data) {
    out += "<policies";
    AppendAttr(&out, "insertionOrder", p.preserve_insertion_order ? "1" : "0");
    AppendAttr(&out, "insertedData", p.preserve_inserted_data ? "1" : "0");
    AppendAttr(&out, "removedData", p.preserve_removed_data ? "1" : "0");
    out += "/>";
  }
  for (const UpdateOp& op : pul.ops()) {
    out += "<op";
    AppendAttr(&out, "kind", OpKindName(op.kind));
    AppendIdAttr(&out, "target", op.target);
    if (op.target_label.valid()) {
      out += " label=\"";
      op.target_label.Serialize(&out);
      out += '"';
    }
    if (op.kind == OpKind::kReplaceValue || op.kind == OpKind::kRename) {
      AppendAttr(&out, "arg", op.param_string);
    }
    if (op.param_trees.empty()) {
      out += "/>";
      continue;
    }
    out += '>';
    for (NodeId root : op.param_trees) {
      XUPDATE_RETURN_IF_ERROR(SerializeParam(pul.forest(), root, &out));
    }
    out += "</op>";
  }
  out += "</pul>";
  if (out.find('\0') != std::string::npos) {
    return Status::InvalidArgument(
        "PUL contains an embedded NUL byte (not serializable as XML)");
  }
  return out;
}

Result<Pul> ParsePul(std::string_view xml_text) {
  // NUL is not a legal XML character; an embedded one means the record
  // was produced or transported through something that treats PULs as C
  // strings — reject it up front rather than round-tripping bytes that
  // every other XML consumer would truncate at. (A *truncated* record —
  // an unterminated element or attribute — is rejected by the SAX layer
  // below with an "unclosed"/"unterminated" parse error.)
  if (xml_text.find('\0') != std::string_view::npos) {
    return Status::ParseError(
        "serialized PUL contains an embedded NUL byte");
  }
  Pul out;
  out.ReserveOps(CountOpTags(xml_text));
  PulReader reader(&out);
  xml::SaxOptions options;
  options.keep_whitespace_text = true;  // whitespace is data inside <elem>
  XUPDATE_RETURN_IF_ERROR(xml::ParseSax(xml_text, &reader, options));
  return out;
}

}  // namespace xupdate::pul
