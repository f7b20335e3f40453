#include "core/diff.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace xupdate::core {

namespace {

using label::NodeLabel;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

class DeltaBuilder {
 public:
  DeltaBuilder(const Document& from, const label::Labeling& labeling,
               const Document& to, NodeId fresh_floor)
      : from_(from), labeling_(labeling), to_(to),
        fresh_floor_(fresh_floor) {}

  Result<Pul> Run() {
    if (from_.root() == kInvalidNode || to_.root() == kInvalidNode) {
      return Status::InvalidArgument("both documents need a root");
    }
    if (from_.root() != to_.root()) {
      return Status::InvalidArgument(
          "documents do not share a root id; no delta exists in the "
          "Table 2 vocabulary (the root cannot be replaced)");
    }
    // Fresh parameter ids must clash with nothing in either document.
    out_.BindIdSpace(std::max({from_.max_assigned_id() + 1,
                               to_.max_assigned_id() + 1, fresh_floor_}));
    XUPDATE_RETURN_IF_ERROR(SyncElement(from_.root()));
    return std::move(out_);
  }

 private:
  Status AddOp(OpKind kind, NodeId target, std::vector<NodeId> trees,
               std::string arg) {
    UpdateOp op;
    op.kind = kind;
    op.target = target;
    if (const NodeLabel* label = labeling_.Find(target)) {
      op.target_label = *label;
    }
    op.param_trees = std::move(trees);
    op.param_string = std::move(arg);
    return out_.AddOp(std::move(op));
  }

  // Copies a `to`-subtree into the delta forest with fresh ids (moved
  // or new content; see header).
  Result<NodeId> CopyFromTo(NodeId to_node) {
    return out_.forest().AdoptSubtree(to_, to_node, /*preserve_ids=*/false);
  }

  // A node id "survives" when both documents hold it with the same kind
  // under the same parent.
  bool Survives(NodeId id, NodeId parent) const {
    return from_.Exists(id) && to_.Exists(id) &&
           from_.type(id) == to_.type(id) &&
           from_.parent(id) == parent && to_.parent(id) == parent;
  }

  Status SyncAttributes(NodeId element) {
    const auto& from_attrs = from_.attributes(element);
    const auto& to_attrs = to_.attributes(element);
    std::unordered_set<NodeId> to_set(to_attrs.begin(), to_attrs.end());
    std::unordered_set<NodeId> from_set(from_attrs.begin(),
                                        from_attrs.end());
    std::vector<NodeId> inserted;
    for (NodeId attr : from_attrs) {
      if (to_set.count(attr) == 0 || to_.type(attr) != NodeType::kAttribute) {
        XUPDATE_RETURN_IF_ERROR(AddOp(OpKind::kDelete, attr, {}, ""));
      } else {
        if (from_.name(attr) != to_.name(attr)) {
          XUPDATE_RETURN_IF_ERROR(AddOp(OpKind::kRename, attr, {},
                                        std::string(to_.name(attr))));
        }
        if (from_.value(attr) != to_.value(attr)) {
          XUPDATE_RETURN_IF_ERROR(
              AddOp(OpKind::kReplaceValue, attr, {},
                    std::string(to_.value(attr))));
        }
      }
    }
    for (NodeId attr : to_attrs) {
      if (from_set.count(attr) != 0 &&
          from_.type(attr) == NodeType::kAttribute) {
        continue;
      }
      inserted.push_back(
          out_.NewAttributeParam(to_.name(attr), to_.value(attr)));
    }
    if (!inserted.empty()) {
      XUPDATE_RETURN_IF_ERROR(
          AddOp(OpKind::kInsAttributes, element, std::move(inserted), ""));
    }
    return Status::OK();
  }

  Status SyncChildren(NodeId element) {
    const auto& from_kids = from_.children(element);
    const auto& to_kids = to_.children(element);
    // Index of each surviving child in the `from` sequence.
    std::unordered_map<NodeId, size_t> from_pos;
    for (size_t i = 0; i < from_kids.size(); ++i) {
      from_pos[from_kids[i]] = i;
    }
    // Surviving children in `to` order, with their `from` positions.
    std::vector<NodeId> kept;
    std::vector<size_t> kept_from_pos;
    for (NodeId child : to_kids) {
      if (Survives(child, element)) {
        kept.push_back(child);
        kept_from_pos.push_back(from_pos.at(child));
      }
    }
    // Anchors: longest strictly increasing subsequence of the `from`
    // positions — these children keep their relative order and stay put.
    std::vector<size_t> lis_prev(kept.size(), SIZE_MAX);
    std::vector<size_t> tails;        // indices into kept
    std::vector<size_t> tail_values;  // from positions of tails
    for (size_t i = 0; i < kept.size(); ++i) {
      size_t value = kept_from_pos[i];
      size_t lo = static_cast<size_t>(
          std::lower_bound(tail_values.begin(), tail_values.end(), value) -
          tail_values.begin());
      if (lo == tail_values.size()) {
        tail_values.push_back(value);
        tails.push_back(i);
      } else {
        tail_values[lo] = value;
        tails[lo] = i;
      }
      lis_prev[i] = lo > 0 ? tails[lo - 1] : SIZE_MAX;
    }
    std::unordered_set<NodeId> anchors;
    if (!tails.empty()) {
      for (size_t i = tails.back(); i != SIZE_MAX; i = lis_prev[i]) {
        anchors.insert(kept[i]);
      }
    }

    // Deletions: every `from` child that is not an anchor disappears
    // (non-surviving ones for good, moved ones to be re-created).
    for (NodeId child : from_kids) {
      if (anchors.count(child) == 0) {
        XUPDATE_RETURN_IF_ERROR(AddOp(OpKind::kDelete, child, {}, ""));
      }
    }

    // Insertions: walk `to` children, emitting one operation per maximal
    // run between anchors; recurse into anchors.
    std::vector<NodeId> run;
    NodeId last_anchor = kInvalidNode;
    auto flush = [&]() -> Status {
      if (run.empty()) return Status::OK();
      std::vector<NodeId> trees = std::move(run);
      run.clear();
      if (last_anchor != kInvalidNode) {
        return AddOp(OpKind::kInsAfter, last_anchor, std::move(trees), "");
      }
      return AddOp(OpKind::kInsFirst, element, std::move(trees), "");
    };
    for (NodeId child : to_kids) {
      if (anchors.count(child) != 0) {
        XUPDATE_RETURN_IF_ERROR(flush());
        last_anchor = child;
        XUPDATE_RETURN_IF_ERROR(SyncNode(child));
        continue;
      }
      XUPDATE_ASSIGN_OR_RETURN(NodeId copy, CopyFromTo(child));
      run.push_back(copy);
    }
    return flush();
  }

  Status SyncNode(NodeId id) {
    switch (from_.type(id)) {
      case NodeType::kText:
        if (from_.value(id) != to_.value(id)) {
          return AddOp(OpKind::kReplaceValue, id, {},
                       std::string(to_.value(id)));
        }
        return Status::OK();
      case NodeType::kElement:
        return SyncElement(id);
      case NodeType::kAttribute:
        return Status::Internal("attribute in a child sequence");
    }
    return Status::Internal("unknown node type");
  }

  Status SyncElement(NodeId element) {
    if (from_.name(element) != to_.name(element)) {
      XUPDATE_RETURN_IF_ERROR(AddOp(OpKind::kRename, element, {},
                                    std::string(to_.name(element))));
    }
    XUPDATE_RETURN_IF_ERROR(SyncAttributes(element));
    return SyncChildren(element);
  }

  const Document& from_;
  const label::Labeling& labeling_;
  const Document& to_;
  NodeId fresh_floor_ = 0;
  Pul out_;
};

}  // namespace

Result<pul::Pul> ComputeDelta(const Document& from,
                              const label::Labeling& from_labeling,
                              const Document& to, xml::NodeId fresh_floor) {
  DeltaBuilder builder(from, from_labeling, to, fresh_floor);
  return builder.Run();
}

}  // namespace xupdate::core
