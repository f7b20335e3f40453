#include "xquery/eval.h"

#include <algorithm>
#include <set>
#include <string>

#include "xml/parser.h"
#include "xquery/parser.h"

namespace xupdate::xquery {

namespace {

using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::Document;
using xml::NodeId;
using xml::NodeType;

bool MatchesTest(const Document& doc, NodeId node, const NameTest& test) {
  switch (test.kind) {
    case NameTest::Kind::kElement:
      return doc.type(node) == NodeType::kElement &&
             doc.name(node) == test.name;
    case NameTest::Kind::kAnyElement:
      return doc.type(node) == NodeType::kElement;
    case NameTest::Kind::kAttribute:
      return doc.type(node) == NodeType::kAttribute &&
             doc.name(node) == test.name;
    case NameTest::Kind::kAnyAttribute:
      return doc.type(node) == NodeType::kAttribute;
    case NameTest::Kind::kText:
      return doc.type(node) == NodeType::kText;
  }
  return false;
}

// Candidate nodes of one step from one context node, in document order.
std::vector<NodeId> StepCandidates(const Document& doc, NodeId context,
                                   const Step& step) {
  std::vector<NodeId> out;
  bool want_attr = step.test.kind == NameTest::Kind::kAttribute ||
                   step.test.kind == NameTest::Kind::kAnyAttribute;
  if (!step.descendant) {
    if (doc.type(context) != NodeType::kElement) return out;
    const auto& pool = want_attr ? doc.attributes(context)
                                 : doc.children(context);
    for (NodeId c : pool) {
      if (MatchesTest(doc, c, step.test)) out.push_back(c);
    }
    return out;
  }
  // Descendant-or-self axis shorthand: every node strictly below the
  // context (attributes included for @ tests).
  if (doc.type(context) != NodeType::kElement) return out;
  doc.Visit(context, [&](NodeId v) {
    if (v != context && MatchesTest(doc, v, step.test)) out.push_back(v);
    return true;
  });
  return out;
}

// String value of a node (concatenated text content for elements).
std::string StringValue(const Document& doc, NodeId node) {
  switch (doc.type(node)) {
    case NodeType::kText:
    case NodeType::kAttribute:
      return std::string(doc.value(node));
    case NodeType::kElement: {
      std::string out;
      doc.Visit(node, [&](NodeId v) {
        if (doc.type(v) == NodeType::kText) out += doc.value(v);
        return true;
      });
      return out;
    }
  }
  return std::string();
}

// Evaluates a predicate's relative path from `node`.
std::vector<NodeId> EvalRelPath(const Document& doc, NodeId node,
                                const std::vector<NameTest>& rel_path) {
  std::vector<NodeId> current = {node};
  for (const NameTest& test : rel_path) {
    std::vector<NodeId> next;
    bool want_attr = test.kind == NameTest::Kind::kAttribute ||
                     test.kind == NameTest::Kind::kAnyAttribute;
    for (NodeId c : current) {
      if (doc.type(c) != NodeType::kElement) continue;
      const auto& pool = want_attr ? doc.attributes(c) : doc.children(c);
      for (NodeId n : pool) {
        if (MatchesTest(doc, n, test)) next.push_back(n);
      }
    }
    current = std::move(next);
  }
  return current;
}

bool PredicateHolds(const Document& doc, NodeId node,
                    const Predicate& pred, size_t position, size_t count) {
  switch (pred.kind) {
    case Predicate::Kind::kPosition:
      return static_cast<int64_t>(position) == pred.position;
    case Predicate::Kind::kLast:
      return position == count;
    case Predicate::Kind::kExists:
      return !EvalRelPath(doc, node, pred.rel_path).empty();
    case Predicate::Kind::kEquals: {
      for (NodeId n : EvalRelPath(doc, node, pred.rel_path)) {
        if (StringValue(doc, n) == pred.value) return true;
      }
      return false;
    }
    case Predicate::Kind::kNotEquals: {
      // XPath general-comparison semantics: true if *some* selected
      // node's string value differs.
      for (NodeId n : EvalRelPath(doc, node, pred.rel_path)) {
        if (StringValue(doc, n) != pred.value) return true;
      }
      return false;
    }
  }
  return false;
}

}  // namespace

Result<std::vector<NodeId>> EvaluatePath(const Document& doc,
                                         const PathExpr& path) {
  if (doc.root() == xml::kInvalidNode) {
    return Status::InvalidArgument("document has no root");
  }
  // The initial context is the (virtual) document node; its only child
  // is the root element. "//x" additionally matches the root itself.
  std::vector<NodeId> current;
  bool first = true;
  for (const Step& step : path.steps) {
    std::vector<NodeId> next;
    std::set<NodeId> seen;
    auto add_filtered = [&](const std::vector<NodeId>& candidates) {
      // Predicates see positions within this context's candidate list.
      size_t count = candidates.size();
      for (size_t i = 0; i < candidates.size(); ++i) {
        NodeId node = candidates[i];
        bool keep = true;
        for (const Predicate& pred : step.predicates) {
          if (!PredicateHolds(doc, node, pred, i + 1, count)) {
            keep = false;
            break;
          }
        }
        if (keep && seen.insert(node).second) next.push_back(node);
      }
    };
    if (first) {
      std::vector<NodeId> candidates;
      if (!step.descendant) {
        if (MatchesTest(doc, doc.root(), step.test)) {
          candidates.push_back(doc.root());
        }
      } else {
        doc.Visit(doc.root(), [&](NodeId v) {
          if (MatchesTest(doc, v, step.test)) candidates.push_back(v);
          return true;
        });
      }
      add_filtered(candidates);
      first = false;
    } else {
      for (NodeId context : current) {
        add_filtered(StepCandidates(doc, context, step));
      }
    }
    current = std::move(next);
    if (current.empty()) break;
  }
  // Document order.
  std::sort(current.begin(), current.end(),
            [&](NodeId a, NodeId b) { return doc.Compare(a, b) < 0; });
  return current;
}

namespace {

// Materializes the expression's content sequence into `pul`'s forest and
// returns the (detached) parameter roots — fresh ids per call, so each
// target receives its own clone.
Result<std::vector<NodeId>> MaterializeContent(const UpdateExpr& expr,
                                               Pul* pul) {
  std::vector<NodeId> roots;
  if (!expr.content_xml.empty()) {
    // The content sequence may hold several sibling elements; wrap it so
    // the fragment parser sees a single root, then detach the children.
    std::string wrapped = "<xq-wrap>" + expr.content_xml + "</xq-wrap>";
    XUPDATE_ASSIGN_OR_RETURN(NodeId wrapper,
                             pul->AddFragment(wrapped));
    std::span<const NodeId> kids = pul->forest().children(wrapper);
    std::vector<NodeId> children(kids.begin(), kids.end());
    for (NodeId c : children) {
      XUPDATE_RETURN_IF_ERROR(pul->forest().Detach(c));
      roots.push_back(c);
    }
    XUPDATE_RETURN_IF_ERROR(pul->forest().DeleteSubtree(wrapper));
  } else if (!expr.string_arg.empty() ||
             expr.verb == UpdateVerb::kReplaceNode) {
    roots.push_back(pul->NewTextParam(expr.string_arg));
  }
  return roots;
}

Status EmitOps(const UpdateExpr& expr, const ProducerContext& context,
               Pul* pul) {
  XUPDATE_ASSIGN_OR_RETURN(std::vector<NodeId> targets,
                           EvaluatePath(*context.doc, expr.path));
  if (targets.empty()) {
    // XQUF: an empty target sequence raises an error for single-node
    // verbs; we accept it as a no-op for 'nodes' forms. Be strict: the
    // caller asked to update something that is not there.
    return Status::NotFound("update path selected no nodes");
  }
  const Document& doc = *context.doc;
  for (NodeId target : targets) {
    UpdateOp op;
    op.target = target;
    if (const label::NodeLabel* lab = context.labeling->Find(target)) {
      op.target_label = *lab;
    } else {
      return Status::NotFound("target node has no label: " +
                              std::to_string(target));
    }
    switch (expr.verb) {
      case UpdateVerb::kInsertInto:
        op.kind = OpKind::kInsInto;
        break;
      case UpdateVerb::kInsertFirst:
        op.kind = OpKind::kInsFirst;
        break;
      case UpdateVerb::kInsertLast:
        op.kind = OpKind::kInsLast;
        break;
      case UpdateVerb::kInsertBefore:
        op.kind = OpKind::kInsBefore;
        break;
      case UpdateVerb::kInsertAfter:
        op.kind = OpKind::kInsAfter;
        break;
      case UpdateVerb::kInsertAttributes:
        op.kind = OpKind::kInsAttributes;
        for (const auto& [name, value] : expr.attributes) {
          op.param_trees.push_back(pul->NewAttributeParam(name, value));
        }
        break;
      case UpdateVerb::kDelete:
        op.kind = OpKind::kDelete;
        break;
      case UpdateVerb::kReplaceNode:
        op.kind = OpKind::kReplaceNode;
        if (doc.type(target) == NodeType::kAttribute) {
          return Status::NotApplicable(
              "replace node on attributes takes attribute content; use "
              "insert attributes + delete instead");
        }
        break;
      case UpdateVerb::kReplaceValue:
        // XQUF dispatch: elements get their content replaced (repC),
        // texts and attributes their value (repV).
        if (doc.type(target) == NodeType::kElement) {
          op.kind = OpKind::kReplaceChildren;
          if (!expr.string_arg.empty()) {
            op.param_trees.push_back(pul->NewTextParam(expr.string_arg));
          }
        } else {
          op.kind = OpKind::kReplaceValue;
          op.param_string = expr.string_arg;
        }
        break;
      case UpdateVerb::kRename:
        op.kind = OpKind::kRename;
        op.param_string = expr.string_arg;
        break;
    }
    bool takes_trees =
        expr.verb == UpdateVerb::kInsertInto ||
        expr.verb == UpdateVerb::kInsertFirst ||
        expr.verb == UpdateVerb::kInsertLast ||
        expr.verb == UpdateVerb::kInsertBefore ||
        expr.verb == UpdateVerb::kInsertAfter ||
        expr.verb == UpdateVerb::kReplaceNode;
    if (takes_trees) {
      XUPDATE_ASSIGN_OR_RETURN(op.param_trees,
                               MaterializeContent(expr, pul));
    }
    XUPDATE_RETURN_IF_ERROR(pul->AddOp(std::move(op)));
  }
  return Status::OK();
}

}  // namespace

Result<Pul> EvaluateUpdate(const UpdateScript& script,
                           const ProducerContext& context) {
  if (context.doc == nullptr || context.labeling == nullptr) {
    return Status::InvalidArgument("producer context incomplete");
  }
  Pul pul;
  pul.BindIdSpace(context.id_base != 0
                      ? context.id_base
                      : context.doc->max_assigned_id() + 1);
  pul.set_policies(context.policies);
  for (const UpdateExpr& expr : script.expressions) {
    XUPDATE_RETURN_IF_ERROR(EmitOps(expr, context, &pul));
  }
  // upd:mergeUpdates compatibility check over the combined list.
  XUPDATE_RETURN_IF_ERROR(pul.CheckCompatible());
  return pul;
}

Result<Pul> ProducePul(std::string_view update_text,
                       const ProducerContext& context) {
  XUPDATE_ASSIGN_OR_RETURN(UpdateScript script, ParseUpdate(update_text));
  return EvaluateUpdate(script, context);
}

}  // namespace xupdate::xquery
