#include "label/labeling.h"

#include <algorithm>
#include <iterator>
#include <vector>

namespace xupdate::label {

using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

Labeling Labeling::Build(const Document& doc) {
  Labeling out;
  out.labels_.Reserve(doc.node_count());
  out.BuildInitial(doc, /*all=*/true);
  return out;
}

Labeling Labeling::BuildFor(const Document& doc,
                            const std::vector<NodeId>& ids) {
  // Placeholders (self == kInvalidNode) mark the wanted ids; the walk
  // fills those in the tree, and the rest are dropped again.
  Labeling out;
  for (NodeId id : ids) {
    if (id != kInvalidNode) out.labels_.TryEmplace(id);
  }
  if (out.labels_.empty()) return out;
  out.BuildInitial(doc, /*all=*/false);
  for (NodeId id : ids) {
    const NodeLabel* lab = out.Find(id);
    if (lab != nullptr && lab->self == kInvalidNode) out.labels_.Erase(id);
  }
  return out;
}

void Labeling::BuildInitial(const Document& doc, bool all) {
  if (doc.root() == kInvalidNode) return;
  // One DFS in AllNodesInOrder's visit order numbers a start code on
  // entry and an end code on exit. The code width depends on the whole
  // tree's size, so the wanted nodes' codes are filled in from their
  // numbers once the walk has counted every node. Sibling bookkeeping
  // is threaded down (scanning the parent's child list per node would
  // be quadratic on wide elements).
  struct Pending {
    NodeLabel* label;  // table records never move
    size_t start;
    size_t end;
  };
  struct Walker {
    const Document& doc;
    bool all;
    xml::IdTable<NodeLabel>& labels;
    std::vector<Pending> pending;
    size_t next_code = 0;

    void Visit(NodeId id, NodeId parent, uint32_t level,
               NodeId left_sibling, bool is_last_child) {
      const size_t start = ++next_code;
      NodeLabel* lab = all ? labels.TryEmplace(id).first : labels.Find(id);
      if (lab != nullptr) {
        lab->self = id;
        lab->type = doc.type(id);
        lab->level = level;
        lab->parent = parent;
        if (lab->type != NodeType::kAttribute && parent != kInvalidNode) {
          lab->left_sibling = left_sibling;
          lab->is_last_child = is_last_child;
        }
      }
      for (NodeId a : doc.attributes(id)) {
        Visit(a, id, level + 1, kInvalidNode, false);
      }
      const auto& kids = doc.children(id);
      NodeId prev = kInvalidNode;
      for (size_t i = 0; i < kids.size(); ++i) {
        Visit(kids[i], id, level + 1, prev, i + 1 == kids.size());
        prev = kids[i];
      }
      const size_t end = ++next_code;
      if (lab != nullptr) pending.push_back({lab, start, end});
    }
  };
  Walker walker{doc, all, labels_, {}};
  if (all) walker.pending.reserve(doc.node_count());
  walker.Visit(doc.root(), doc.parent(doc.root()), 0, kInvalidNode, false);
  const size_t width = cdbs::InitialCodeWidth(walker.next_code);
  for (const Pending& p : walker.pending) {
    p.label->start = cdbs::InitialCode(p.start, width);
    p.label->end = cdbs::InitialCode(p.end, width);
  }
}

const NodeLabel* Labeling::Find(NodeId id) const {
  return labels_.Find(id);
}

Result<NodeLabel> Labeling::Get(NodeId id) const {
  const NodeLabel* lab = Find(id);
  if (lab == nullptr) {
    return Status::NotFound("no label for node " + std::to_string(id));
  }
  return *lab;
}

Status Labeling::BoundaryFor(const Document& doc, NodeId node,
                             BitString* left, BitString* right) const {
  NodeId parent = doc.parent(node);
  if (parent == kInvalidNode) {
    return Status::InvalidArgument(
        "cannot compute label boundary for a detached node");
  }
  const NodeLabel* plab = Find(parent);
  if (plab == nullptr) {
    return Status::NotFound("parent of inserted node is unlabeled");
  }
  const auto& attrs = doc.attributes(parent);
  const auto& kids = doc.children(parent);
  if (doc.type(node) == NodeType::kAttribute) {
    // Attributes live between the parent's start and the first child's
    // start, in the order of doc.attributes(parent). A new attribute is
    // bounded by its labeled neighbours in that order: the previous
    // one's end (else the parent's start) and the next one's start
    // (else the first labeled child's start, else the parent's end).
    auto at = std::find(attrs.begin(), attrs.end(), node);
    if (at == attrs.end()) return Status::Internal("attribute not found");
    auto first_labeled = [this](auto begin, auto end) -> const NodeLabel* {
      for (auto it = begin; it != end; ++it) {
        if (const NodeLabel* lab = Find(*it)) return lab;
      }
      return nullptr;
    };
    const NodeLabel* prev =
        first_labeled(std::make_reverse_iterator(at), attrs.rend());
    const NodeLabel* next = first_labeled(at + 1, attrs.end());
    if (next == nullptr) next = first_labeled(kids.begin(), kids.end());
    *left = prev != nullptr ? prev->end : plab->start;
    *right = next != nullptr ? next->start : plab->end;
    return Status::OK();
  }
  int idx = doc.ChildIndex(node);
  if (idx < 0) return Status::Internal("node not found in parent");
  // Left boundary: previous sibling's end, else the last attribute's
  // end, else the parent's start.
  *left = plab->start;
  if (idx > 0) {
    const NodeLabel* prev = Find(kids[static_cast<size_t>(idx) - 1]);
    if (prev == nullptr) {
      return Status::NotFound("left sibling of inserted node unlabeled");
    }
    *left = prev->end;
  } else {
    for (NodeId a : attrs) {
      if (const NodeLabel* alab = Find(a)) {
        if (*left < alab->end) *left = alab->end;
      }
    }
  }
  // Right boundary: next sibling's start, else the parent's end.
  if (static_cast<size_t>(idx) + 1 < kids.size()) {
    const NodeLabel* next = Find(kids[static_cast<size_t>(idx) + 1]);
    if (next == nullptr) {
      return Status::NotFound("right sibling of inserted node unlabeled");
    }
    *right = next->start;
  } else {
    *right = plab->end;
  }
  return Status::OK();
}

Status Labeling::AssignRange(const Document& doc, NodeId node,
                             const BitString& left, const BitString& right,
                             uint32_t level) {
  // Sequentially squeeze 2*subtree_size codes into (left, right): the
  // cursor only moves rightwards, so nesting follows from DFS order.
  BitString cursor = left;
  struct Assigner {
    const Document& doc;
    Labeling& labeling;
    const BitString& right;
    BitString& cursor;
    Status error;

    void Assign(NodeId id, uint32_t level, NodeId left_sibling,
                bool is_last_child) {
      if (!error.ok()) return;
      NodeLabel lab;
      lab.self = id;
      lab.type = doc.type(id);
      lab.level = level;
      lab.parent = doc.parent(id);
      if (lab.type != NodeType::kAttribute &&
          lab.parent != kInvalidNode) {
        lab.left_sibling = left_sibling;
        lab.is_last_child = is_last_child;
      }
      auto start = cdbs::Between(cursor, right);
      if (!start.ok()) {
        error = start.status();
        return;
      }
      lab.start = *start;
      cursor = *start;
      for (NodeId a : doc.attributes(id)) {
        Assign(a, level + 1, kInvalidNode, false);
      }
      const auto& kids = doc.children(id);
      NodeId prev = kInvalidNode;
      for (size_t i = 0; i < kids.size(); ++i) {
        Assign(kids[i], level + 1, prev, i + 1 == kids.size());
        prev = kids[i];
      }
      auto end = cdbs::Between(cursor, right);
      if (!end.ok()) {
        error = end.status();
        return;
      }
      lab.end = *end;
      cursor = *end;
      labeling.Set(lab);
    }
  };
  Assigner assigner{doc, *this, right, cursor, Status::OK()};
  // The subtree root's own sibling bookkeeping comes from its position.
  {
    NodeId parent = doc.parent(node);
    NodeId left = kInvalidNode;
    bool last = false;
    if (parent != kInvalidNode && doc.type(node) != NodeType::kAttribute) {
      int idx = doc.ChildIndex(node);
      const auto& sibs = doc.children(parent);
      left = idx > 0 ? sibs[static_cast<size_t>(idx) - 1] : kInvalidNode;
      last = static_cast<size_t>(idx) + 1 == sibs.size();
    }
    assigner.Assign(node, level, left, last);
  }
  return assigner.error;
}

Status Labeling::AssignForInsertedSubtree(const Document& doc,
                                          NodeId root) {
  if (!doc.Exists(root)) return Status::NotFound("subtree root not found");
  NodeId parent = doc.parent(root);
  if (parent == kInvalidNode) {
    return Status::InvalidArgument("inserted subtree must be attached");
  }
  const NodeLabel* plab = Find(parent);
  if (plab == nullptr) {
    return Status::NotFound("parent of inserted subtree is unlabeled");
  }
  BitString left;
  BitString right;
  XUPDATE_RETURN_IF_ERROR(BoundaryFor(doc, root, &left, &right));
  XUPDATE_RETURN_IF_ERROR(
      AssignRange(doc, root, left, right, plab->level + 1));
  // Patch the immediate neighbors' sibling bookkeeping.
  if (doc.type(root) != NodeType::kAttribute) {
    const auto& kids = doc.children(parent);
    int idx = doc.ChildIndex(root);
    if (idx > 0) {
      NodeId prev = kids[static_cast<size_t>(idx) - 1];
      if (NodeLabel* lab = labels_.Find(prev)) lab->is_last_child = false;
    }
    if (static_cast<size_t>(idx) + 1 < kids.size()) {
      NodeId next = kids[static_cast<size_t>(idx) + 1];
      if (NodeLabel* lab = labels_.Find(next)) lab->left_sibling = root;
    }
  }
  return Status::OK();
}

Status Labeling::OnWillDeleteSubtree(const Document& doc, NodeId root) {
  if (!doc.Exists(root)) return Status::NotFound("subtree root not found");
  NodeId parent = doc.parent(root);
  if (parent != kInvalidNode &&
      doc.type(root) != NodeType::kAttribute) {
    const auto& kids = doc.children(parent);
    int idx = doc.ChildIndex(root);
    NodeId prev = idx > 0 ? kids[static_cast<size_t>(idx) - 1]
                          : kInvalidNode;
    if (static_cast<size_t>(idx) + 1 < kids.size()) {
      NodeId next = kids[static_cast<size_t>(idx) + 1];
      if (NodeLabel* lab = labels_.Find(next)) lab->left_sibling = prev;
    } else if (prev != kInvalidNode) {
      if (NodeLabel* lab = labels_.Find(prev)) lab->is_last_child = true;
    }
  }
  doc.Visit(root, [&](NodeId v) {
    labels_.Erase(v);
    return true;
  });
  return Status::OK();
}

Status Labeling::Validate(const Document& doc) const {
  if (doc.root() == kInvalidNode) return Status::OK();
  std::vector<NodeId> order = doc.AllNodesInOrder();
  // Every tree node labeled, every label belongs to a tree node.
  for (NodeId id : order) {
    if (Find(id) == nullptr) {
      return Status::Internal("unlabeled tree node " + std::to_string(id));
    }
  }
  // DFS nesting check: start codes strictly increase in document order,
  // every interval closes after all nested intervals.
  struct Checker {
    const Document& doc;
    const Labeling& labeling;
    BitString cursor;
    Status error;

    void Check(NodeId id, uint32_t level, NodeId expect_left,
               bool expect_last) {
      if (!error.ok()) return;
      const NodeLabel* lab = labeling.Find(id);
      if (lab->level != level) {
        error = Status::Internal("wrong level at node " +
                                 std::to_string(id));
        return;
      }
      if (lab->parent != doc.parent(id)) {
        error = Status::Internal("wrong parent at node " +
                                 std::to_string(id));
        return;
      }
      if (lab->type != doc.type(id)) {
        error = Status::Internal("wrong type at node " +
                                 std::to_string(id));
        return;
      }
      if (lab->type != NodeType::kAttribute &&
          lab->parent != kInvalidNode) {
        if (lab->left_sibling != expect_left ||
            lab->is_last_child != expect_last) {
          error = Status::Internal("wrong sibling info at node " +
                                   std::to_string(id));
          return;
        }
      }
      if (!(cursor < lab->start)) {
        error = Status::Internal("start code out of order at node " +
                                 std::to_string(id));
        return;
      }
      cursor = lab->start;
      for (NodeId a : doc.attributes(id)) {
        Check(a, level + 1, kInvalidNode, false);
      }
      const auto& kids = doc.children(id);
      NodeId prev = kInvalidNode;
      for (size_t i = 0; i < kids.size(); ++i) {
        Check(kids[i], level + 1, prev, i + 1 == kids.size());
        prev = kids[i];
      }
      if (!error.ok()) return;
      if (!(cursor < lab->end)) {
        error = Status::Internal("end code out of order at node " +
                                 std::to_string(id));
        return;
      }
      cursor = lab->end;
    }
  };
  Checker checker{doc, *this, BitString(), Status::OK()};
  checker.Check(doc.root(), 0, kInvalidNode, false);
  return checker.error;
}

}  // namespace xupdate::label
