#include "obs/explain.h"

#include <map>
#include <utility>

namespace xupdate::obs {

namespace {

// Minimal parser for one journal line: a flat JSON object whose values
// are unsigned numbers, strings, or arrays of strings — exactly what
// ToJournalJsonl emits. Key order is not assumed; unknown keys are
// skipped so journals stay forward-compatible.
class LineParser {
 public:
  explicit LineParser(std::string_view line) : s_(line) {}

  Status Parse(TraceEvent* out) {
    SkipWs();
    if (!Consume('{')) return Error("expected '{'");
    bool first = true;
    while (true) {
      SkipWs();
      if (Consume('}')) break;
      if (!first && !Consume(',')) return Error("expected ','");
      first = false;
      SkipWs();
      XUPDATE_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (!Consume(':')) return Error("expected ':'");
      SkipWs();
      if (key == "phase" || key == "lane" || key == "seq") {
        XUPDATE_ASSIGN_OR_RETURN(uint64_t value, ParseUnsigned());
        if (key == "phase") out->phase = static_cast<uint32_t>(value);
        if (key == "lane") out->lane = static_cast<uint32_t>(value);
        if (key == "seq") out->seq = value;
      } else if (key == "kind") {
        XUPDATE_ASSIGN_OR_RETURN(std::string value, ParseString());
        if (!EventKindFromName(value, &out->kind)) {
          return Error("unknown event kind \"" + value + "\"");
        }
      } else if (key == "scope") {
        XUPDATE_ASSIGN_OR_RETURN(out->scope, ParseString());
      } else if (key == "name") {
        XUPDATE_ASSIGN_OR_RETURN(out->name, ParseString());
      } else if (key == "result") {
        XUPDATE_ASSIGN_OR_RETURN(out->result, ParseString());
      } else if (key == "detail") {
        XUPDATE_ASSIGN_OR_RETURN(out->detail, ParseString());
      } else if (key == "ops") {
        XUPDATE_ASSIGN_OR_RETURN(out->ops, ParseStringArray());
      } else {
        XUPDATE_RETURN_IF_ERROR(SkipValue());
      }
    }
    SkipWs();
    if (i_ != s_.size()) return Error("trailing bytes after object");
    return Status::OK();
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("journal line byte " +
                                   std::to_string(i_) + ": " + message);
  }

  void SkipWs() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t')) ++i_;
  }

  bool Consume(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  Result<uint64_t> ParseUnsigned() {
    size_t begin = i_;
    uint64_t value = 0;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') {
      value = value * 10 + static_cast<uint64_t>(s_[i_] - '0');
      ++i_;
    }
    if (i_ == begin) return Error("expected number");
    return value;
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (i_ < s_.size()) {
      char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) return Error("dangling escape");
      char e = s_[i_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out += e;
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (i_ + 4 > s_.size()) return Error("short \\u escape");
          uint32_t cp = 0;
          for (int k = 0; k < 4; ++k) {
            char h = s_[i_++];
            uint32_t digit;
            if (h >= '0' && h <= '9') {
              digit = static_cast<uint32_t>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              digit = static_cast<uint32_t>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              digit = static_cast<uint32_t>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
            cp = cp * 16 + digit;
          }
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Result<std::vector<std::string>> ParseStringArray() {
    if (!Consume('[')) return Error("expected '['");
    std::vector<std::string> out;
    SkipWs();
    if (Consume(']')) return out;
    while (true) {
      SkipWs();
      XUPDATE_ASSIGN_OR_RETURN(std::string item, ParseString());
      out.push_back(std::move(item));
      SkipWs();
      if (Consume(']')) return out;
      if (!Consume(',')) return Error("expected ',' in array");
    }
  }

  // Skips one unknown value (string, number, or string array).
  Status SkipValue() {
    SkipWs();
    if (i_ >= s_.size()) return Error("missing value");
    if (s_[i_] == '"') return ParseString().status();
    if (s_[i_] == '[') return ParseStringArray().status();
    return ParseUnsigned().status();
  }

  std::string_view s_;
  size_t i_ = 0;
};

// Output-slot ids name positions in the produced PUL, not input
// operations; they never get their own chain.
bool IsOutputId(std::string_view id) {
  return id.rfind("out#", 0) == 0 || id.rfind("merged#", 0) == 0 ||
         id.rfind("gen#", 0) == 0;
}

std::string JoinIds(const std::vector<std::string>& ids,
                    std::string_view skip = {}) {
  std::string out;
  for (const std::string& id : ids) {
    if (!skip.empty() && id == skip) continue;
    if (!out.empty()) out += ", ";
    out += id;
  }
  return out;
}

class ReportBuilder {
 public:
  explicit ReportBuilder(const std::vector<TraceEvent>& events)
      : events_(events) {}

  ExplainReport Build() {
    for (const TraceEvent& e : events_) {
      NoteScope(e.scope);
      if (e.kind == EventKind::kShardAssigned ||
          (e.kind == EventKind::kNote && e.name == "input")) {
        for (const std::string& id : e.ops) Chain(id);
      }
      if (!e.result.empty() && !IsOutputId(e.result)) Chain(e.result);
    }
    for (const TraceEvent& e : events_) Fold(e);
    return std::move(report_);
  }

 private:
  void NoteScope(const std::string& scope) {
    if (scope.empty()) return;
    for (const std::string& s : report_.scopes) {
      if (s == scope) return;
    }
    report_.scopes.push_back(scope);
  }

  ProvenanceChain* Chain(const std::string& id) {
    auto [it, inserted] = index_.emplace(id, report_.chains.size());
    if (inserted) {
      report_.chains.emplace_back();
      report_.chains.back().id = id;
    }
    return &report_.chains[it->second];
  }

  ProvenanceChain* Lookup(const std::string& id) {
    auto it = index_.find(id);
    return it == index_.end() ? nullptr : &report_.chains[it->second];
  }

  void AddStep(const std::string& id, std::string step) {
    ProvenanceChain* chain = Lookup(id);
    if (chain != nullptr) chain->steps.push_back(std::move(step));
  }

  void Fold(const TraceEvent& e) {
    switch (e.kind) {
      case EventKind::kSpanBegin:
      case EventKind::kSpanEnd:
        return;
      case EventKind::kShardAssigned: {
        // Integrate names these "shard", reduce "unit"; lane k+1
        // carries number k.
        std::string step = "assigned to " +
                           (e.name.empty() ? std::string("shard") : e.name) +
                           " " + std::to_string(e.lane == 0 ? 0 : e.lane - 1);
        for (const std::string& id : e.ops) AddStep(id, step);
        return;
      }
      case EventKind::kRuleFired: {
        std::string base = e.name + ": ";
        if (e.result.empty()) {
          // A pure kill: ops[0] overrides the rest.
          if (e.ops.size() >= 2) {
            AddStep(e.ops[0], base + "overrode " +
                                  JoinIds(e.ops, e.ops[0]) +
                                  Detail(e));
            for (size_t k = 1; k < e.ops.size(); ++k) {
              AddStep(e.ops[k],
                      base + "killed by " + e.ops[0] + Detail(e));
            }
          } else if (e.ops.size() == 1) {
            AddStep(e.ops[0], base + "applied" + Detail(e));
          }
          return;
        }
        std::string line =
            base + JoinIds(e.ops) + " -> " + e.result + Detail(e);
        for (const std::string& id : e.ops) {
          if (id == e.result) {
            AddStep(id, line);
          } else {
            AddStep(id, line + " (absorbed into " + e.result + ")");
          }
        }
        if (Lookup(e.result) != nullptr) {
          bool result_in_ops = false;
          for (const std::string& id : e.ops) {
            if (id == e.result) result_in_ops = true;
          }
          if (!result_in_ops) AddStep(e.result, line);
        }
        return;
      }
      case EventKind::kConflictDetected: {
        if (e.result.empty()) {
          for (const std::string& id : e.ops) {
            AddStep(id, e.name + " conflict with " + JoinIds(e.ops, id) +
                            Detail(e));
          }
          return;
        }
        AddStep(e.result,
                e.name + ": overrides " + JoinIds(e.ops) + Detail(e));
        for (const std::string& id : e.ops) {
          AddStep(id, e.name + ": overridden by " + e.result + Detail(e));
        }
        return;
      }
      case EventKind::kPolicyApplied: {
        for (const std::string& id : e.ops) {
          std::string line = "policy " + e.name;
          if (!e.result.empty()) {
            line += id == e.result ? " (kept)" : " -> " + e.result;
          }
          AddStep(id, line + Detail(e));
        }
        return;
      }
      case EventKind::kOpSurvived: {
        for (const std::string& id : e.ops) {
          ProvenanceChain* chain = Lookup(id);
          if (chain == nullptr) continue;
          chain->survived = true;
          chain->output_id = e.result;
          if (chain->op_kind.empty()) chain->op_kind = e.name;
          chain->steps.push_back("survived as " + e.result);
        }
        return;
      }
      case EventKind::kNote: {
        if (e.name == "input") return;  // inventory, not a decision
        for (const std::string& id : e.ops) {
          std::string line = e.name;
          if (!e.result.empty()) line += " -> " + e.result;
          AddStep(id, line + Detail(e));
        }
        return;
      }
    }
  }

  static std::string Detail(const TraceEvent& e) {
    return e.detail.empty() ? std::string() : " [" + e.detail + "]";
  }

  const std::vector<TraceEvent>& events_;
  ExplainReport report_;
  std::map<std::string, size_t> index_;
};

void RenderChain(const ProvenanceChain& chain, std::string* out) {
  *out += chain.id;
  if (!chain.op_kind.empty()) *out += " [" + chain.op_kind + "]";
  if (chain.survived) {
    *out += ": survived";
    if (!chain.output_id.empty()) *out += " -> " + chain.output_id;
  } else {
    *out += ": eliminated";
  }
  *out += '\n';
  if (chain.steps.empty()) {
    *out += "  - no decision touched this operation\n";
    return;
  }
  for (const std::string& step : chain.steps) {
    *out += "  - " + step + '\n';
  }
}

}  // namespace

Result<std::vector<TraceEvent>> ParseJournal(std::string_view jsonl) {
  std::vector<TraceEvent> events;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= jsonl.size()) {
    size_t eol = jsonl.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? jsonl.substr(pos)
                                : jsonl.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? jsonl.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) continue;
    TraceEvent event;
    LineParser parser(line);
    Status status = parser.Parse(&event);
    if (!status.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": " + std::string(status.message()));
    }
    events.push_back(std::move(event));
  }
  return events;
}

Result<ExplainReport> BuildExplainReport(
    const std::vector<TraceEvent>& events) {
  ReportBuilder builder(events);
  return builder.Build();
}

std::string RenderChains(const ExplainReport& report,
                         std::string_view only_op) {
  std::string out;
  if (!only_op.empty()) {
    for (const ProvenanceChain& chain : report.chains) {
      if (chain.id == only_op) {
        RenderChain(chain, &out);
        return out;
      }
    }
    out += "unknown op id \"" + std::string(only_op) + "\"; known ids:";
    size_t listed = 0;
    for (const ProvenanceChain& chain : report.chains) {
      out += ' ' + chain.id;
      if (++listed == 25 && report.chains.size() > 25) {
        out += " ... (" + std::to_string(report.chains.size()) + " total)";
        break;
      }
    }
    out += '\n';
    return out;
  }
  for (const ProvenanceChain& chain : report.chains) {
    RenderChain(chain, &out);
  }
  return out;
}

}  // namespace xupdate::obs
