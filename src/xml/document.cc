#include "xml/document.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace xupdate::xml {

char NodeTypeToChar(NodeType type) {
  switch (type) {
    case NodeType::kElement:
      return 'e';
    case NodeType::kAttribute:
      return 'a';
    case NodeType::kText:
      return 't';
  }
  return '?';
}

bool NodeTypeFromChar(char c, NodeType* out) {
  switch (c) {
    case 'e':
      *out = NodeType::kElement;
      return true;
    case 'a':
      *out = NodeType::kAttribute;
      return true;
    case 't':
      *out = NodeType::kText;
      return true;
    default:
      return false;
  }
}

std::string_view NodeTypeToString(NodeType type) {
  switch (type) {
    case NodeType::kElement:
      return "element";
    case NodeType::kAttribute:
      return "attribute";
    case NodeType::kText:
      return "text";
  }
  return "unknown";
}

void Document::MissingNode(NodeId id) {
  std::fprintf(stderr, "xml::Document: no node %" PRIu64 "\n", id);
  std::abort();
}

void Document::ReserveIds(StorageRef* list, size_t capacity) {
  if (capacity <= list->capacity) return;
  BlockStore::Extent extent = store_.Allocate(capacity * sizeof(NodeId));
  if (list->size != 0) {
    std::memcpy(store_.Words(extent.block, extent.offset),
                store_.Words(list->block, list->offset),
                list->size * sizeof(NodeId));
  }
  uint32_t size = list->size;
  FreeRef(list, sizeof(NodeId));
  *list = {extent.block, extent.offset, size,
           static_cast<uint32_t>(extent.bytes / sizeof(NodeId))};
}

void Document::InsertIds(StorageRef* list, size_t pos,
                         std::span<const NodeId> ids) {
  if (ids.empty()) return;
  size_t size = list->size;
  if (size + ids.size() > list->capacity) {
    ReserveIds(list, std::max(size + ids.size(), 2 * size_t{list->capacity}));
  }
  NodeId* at = store_.Words(list->block, list->offset);
  std::memmove(at + pos + ids.size(), at + pos,
               (size - pos) * sizeof(NodeId));
  std::memcpy(at + pos, ids.data(), ids.size() * sizeof(NodeId));
  list->size = static_cast<uint32_t>(size + ids.size());
}

void Document::EraseId(StorageRef* list, size_t pos) {
  NodeId* at = store_.Words(list->block, list->offset);
  std::memmove(at + pos, at + pos + 1, (list->size - pos - 1) * sizeof(NodeId));
  --list->size;
}

void Document::AssignValue(StorageRef* ref, std::string_view value) {
  if (value.size() <= ref->capacity) {
    // memmove: `value` may be a view of this very value.
    if (!value.empty()) {
      std::memmove(store_.Chars(ref->block, ref->offset), value.data(),
                   value.size());
    }
    ref->size = static_cast<uint32_t>(value.size());
    return;
  }
  BlockStore::Extent extent = store_.Allocate(value.size());
  std::memcpy(store_.Chars(extent.block, extent.offset), value.data(),
              value.size());
  FreeRef(ref, 1);
  *ref = {extent.block, extent.offset, static_cast<uint32_t>(value.size()),
          extent.bytes};
}

void Document::FreeRef(StorageRef* ref, size_t unit) {
  if (ref->capacity != 0) {
    size_t bytes = BlockStore::RoundUp(ref->capacity * unit);
    store_.Free({ref->block, ref->offset, static_cast<uint32_t>(bytes)});
  }
  *ref = {};
}

void Document::Insert(NodeId id, NodeType type, std::string_view name,
                      std::string_view value) {
  NodeRecord* rec = nodes_.TryEmplace(id).first;
  rec->type = type;
  rec->name = name.empty() ? 0 : names_.Intern(name);
  AssignValue(&rec->value, value);
}

NodeId Document::Allocate(NodeType type, std::string_view name,
                          std::string_view value) {
  if (!fresh_ids_left()) {
    std::fprintf(stderr, "xml::Document: fresh node ids exhausted\n");
    std::abort();
  }
  NodeId id = next_id_++;
  Insert(id, type, name, value);
  return id;
}

NodeId Document::NewElement(std::string_view name) {
  return Allocate(NodeType::kElement, name, "");
}

NodeId Document::NewText(std::string_view value) {
  return Allocate(NodeType::kText, "", value);
}

NodeId Document::NewAttribute(std::string_view name,
                              std::string_view value) {
  return Allocate(NodeType::kAttribute, name, value);
}

Status Document::CreateWithId(NodeId id, NodeType type,
                              std::string_view name,
                              std::string_view value) {
  if (id == kInvalidNode) {
    return Status::InvalidArgument("node id 0 is reserved");
  }
  if (id > kMaxNodeId) {
    return Status::InvalidArgument("node id above the int64 range: " +
                                   std::to_string(id));
  }
  if (Exists(id)) {
    return Status::InvalidArgument("node id already in use: " +
                                   std::to_string(id));
  }
  Insert(id, type, name, value);
  if (id >= next_id_) next_id_ = id + 1;
  return Status::OK();
}

Status Document::SetRoot(NodeId id) {
  if (!Exists(id)) return Status::NotFound("root id does not exist");
  if (Get(id).parent != kInvalidNode) {
    return Status::InvalidArgument("root must be detached");
  }
  root_ = id;
  return Status::OK();
}

Status Document::CheckInsertable(NodeId node) const {
  if (!Exists(node)) return Status::NotFound("inserted node not found");
  if (Get(node).parent != kInvalidNode) {
    return Status::InvalidArgument("inserted node must be detached");
  }
  return Status::OK();
}

Status Document::AppendChild(NodeId parent, NodeId child) {
  if (!Exists(parent)) return Status::NotFound("parent not found");
  if (Get(parent).type != NodeType::kElement) {
    return Status::NotApplicable("children can only attach to elements");
  }
  XUPDATE_RETURN_IF_ERROR(CheckInsertable(child));
  if (Get(child).type == NodeType::kAttribute) {
    return Status::NotApplicable("attribute cannot be a child");
  }
  StorageRef& kids = Get(parent).children;
  InsertIds(&kids, kids.size, {&child, 1});
  Get(child).parent = parent;
  return Status::OK();
}

Status Document::AppendChildren(NodeId parent,
                                std::span<const NodeId> children) {
  if (children.empty()) return Status::OK();
  if (!Exists(parent)) return Status::NotFound("parent not found");
  StorageRef& kids = Get(parent).children;
  ReserveIds(&kids, kids.size + children.size());
  for (NodeId child : children) {
    XUPDATE_RETURN_IF_ERROR(AppendChild(parent, child));
  }
  return Status::OK();
}

Status Document::PrependChild(NodeId parent, NodeId child) {
  if (!Exists(parent)) return Status::NotFound("parent not found");
  if (Get(parent).type != NodeType::kElement) {
    return Status::NotApplicable("children can only attach to elements");
  }
  XUPDATE_RETURN_IF_ERROR(CheckInsertable(child));
  if (Get(child).type == NodeType::kAttribute) {
    return Status::NotApplicable("attribute cannot be a child");
  }
  InsertIds(&Get(parent).children, 0, {&child, 1});
  Get(child).parent = parent;
  return Status::OK();
}

Status Document::InsertBefore(NodeId ref, NodeId node) {
  if (!Exists(ref)) return Status::NotFound("reference node not found");
  NodeId parent = Get(ref).parent;
  if (parent == kInvalidNode) {
    return Status::NotApplicable("reference node has no parent");
  }
  if (Get(ref).type == NodeType::kAttribute) {
    return Status::NotApplicable("cannot insert siblings of an attribute");
  }
  XUPDATE_RETURN_IF_ERROR(CheckInsertable(node));
  if (Get(node).type == NodeType::kAttribute) {
    return Status::NotApplicable("attribute cannot be a sibling");
  }
  InsertIds(&Get(parent).children, static_cast<size_t>(ChildIndex(ref)),
            {&node, 1});
  Get(node).parent = parent;
  return Status::OK();
}

Status Document::InsertAfter(NodeId ref, NodeId node) {
  if (!Exists(ref)) return Status::NotFound("reference node not found");
  NodeId parent = Get(ref).parent;
  if (parent == kInvalidNode) {
    return Status::NotApplicable("reference node has no parent");
  }
  if (Get(ref).type == NodeType::kAttribute) {
    return Status::NotApplicable("cannot insert siblings of an attribute");
  }
  XUPDATE_RETURN_IF_ERROR(CheckInsertable(node));
  if (Get(node).type == NodeType::kAttribute) {
    return Status::NotApplicable("attribute cannot be a sibling");
  }
  InsertIds(&Get(parent).children, static_cast<size_t>(ChildIndex(ref)) + 1,
            {&node, 1});
  Get(node).parent = parent;
  return Status::OK();
}

Status Document::AddAttribute(NodeId element, NodeId attribute) {
  if (!Exists(element)) return Status::NotFound("element not found");
  if (Get(element).type != NodeType::kElement) {
    return Status::NotApplicable("attributes can only attach to elements");
  }
  XUPDATE_RETURN_IF_ERROR(CheckInsertable(attribute));
  if (Get(attribute).type != NodeType::kAttribute) {
    return Status::NotApplicable("node is not an attribute");
  }
  StorageRef& attrs = Get(element).attributes;
  InsertIds(&attrs, attrs.size, {&attribute, 1});
  Get(attribute).parent = element;
  return Status::OK();
}

Status Document::AddAttributes(NodeId element,
                               std::span<const NodeId> attributes) {
  if (attributes.empty()) return Status::OK();
  if (!Exists(element)) return Status::NotFound("element not found");
  StorageRef& attrs = Get(element).attributes;
  ReserveIds(&attrs, attrs.size + attributes.size());
  for (NodeId attribute : attributes) {
    XUPDATE_RETURN_IF_ERROR(AddAttribute(element, attribute));
  }
  return Status::OK();
}

Status Document::Detach(NodeId id) {
  if (!Exists(id)) return Status::NotFound("node not found");
  NodeId parent = Get(id).parent;
  if (parent == kInvalidNode) {
    if (root_ == id) root_ = kInvalidNode;
    return Status::OK();
  }
  NodeRecord& rec = Get(parent);
  StorageRef& list = Get(id).type == NodeType::kAttribute ? rec.attributes
                                                          : rec.children;
  std::span<const NodeId> ids = Ids(list);
  auto it = std::find(ids.begin(), ids.end(), id);
  assert(it != ids.end());
  EraseId(&list, static_cast<size_t>(it - ids.begin()));
  Get(id).parent = kInvalidNode;
  return Status::OK();
}

Status Document::DeleteSubtree(NodeId id) {
  XUPDATE_RETURN_IF_ERROR(Detach(id));
  // Erase records bottom-up; ids are never reused because next_id_ only
  // grows.
  std::vector<NodeId> stack = {id};
  std::vector<NodeId> order;
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    order.push_back(v);
    const NodeRecord& rec = Get(v);
    for (NodeId a : Ids(rec.attributes)) stack.push_back(a);
    for (NodeId c : Ids(rec.children)) stack.push_back(c);
  }
  for (NodeId v : order) {
    NodeRecord& rec = Get(v);
    FreeRef(&rec.value, 1);
    FreeRef(&rec.children, sizeof(NodeId));
    FreeRef(&rec.attributes, sizeof(NodeId));
    nodes_.Erase(v);
  }
  return Status::OK();
}

Status Document::Rename(NodeId id, std::string_view name) {
  if (!Exists(id)) return Status::NotFound("node not found");
  if (Get(id).type == NodeType::kText) {
    return Status::NotApplicable("text nodes have no name");
  }
  Get(id).name = names_.Intern(name);
  return Status::OK();
}

Status Document::SetValue(NodeId id, std::string_view value) {
  if (!Exists(id)) return Status::NotFound("node not found");
  if (Get(id).type == NodeType::kElement) {
    return Status::NotApplicable("element nodes have no direct value");
  }
  AssignValue(&Get(id).value, value);
  return Status::OK();
}

Status Document::ReplaceNode(NodeId target,
                             std::span<const NodeId> replacements) {
  if (!Exists(target)) return Status::NotFound("target not found");
  NodeId parent = Get(target).parent;
  bool is_attr = Get(target).type == NodeType::kAttribute;
  for (NodeId r : replacements) {
    XUPDATE_RETURN_IF_ERROR(CheckInsertable(r));
    bool r_attr = Get(r).type == NodeType::kAttribute;
    if (r_attr != is_attr) {
      return Status::NotApplicable(
          "replacement kind must match target kind (attribute vs not)");
    }
  }
  if (parent == kInvalidNode) {
    // Replacing a detached tree root (aggregation rule D6 on a parameter
    // tree): only meaningful through ReplaceDetachedRoot handling at the
    // caller; here we just delete the target.
    if (!replacements.empty()) {
      return Status::NotApplicable(
          "cannot replace a parentless node with new content");
    }
    return DeleteSubtree(target);
  }
  NodeRecord& rec = Get(parent);
  StorageRef& list = is_attr ? rec.attributes : rec.children;
  std::span<const NodeId> ids = Ids(list);
  auto it = std::find(ids.begin(), ids.end(), target);
  assert(it != ids.end());
  size_t pos = static_cast<size_t>(it - ids.begin());
  XUPDATE_RETURN_IF_ERROR(DeleteSubtree(target));
  InsertIds(&list, pos, replacements);
  for (NodeId r : replacements) Get(r).parent = parent;
  return Status::OK();
}

Status Document::ReplaceChildren(NodeId element,
                                 std::span<const NodeId> replacements) {
  if (!Exists(element)) return Status::NotFound("element not found");
  if (Get(element).type != NodeType::kElement) {
    return Status::NotApplicable("repC target must be an element");
  }
  for (NodeId r : replacements) {
    XUPDATE_RETURN_IF_ERROR(CheckInsertable(r));
    if (Get(r).type == NodeType::kAttribute) {
      return Status::NotApplicable("attribute cannot be a child");
    }
  }
  std::span<const NodeId> kids = children(element);
  std::vector<NodeId> old_children(kids.begin(), kids.end());
  for (NodeId c : old_children) XUPDATE_RETURN_IF_ERROR(DeleteSubtree(c));
  return AppendChildren(element, replacements);
}

Result<NodeId> Document::AdoptSubtree(const Document& src, NodeId src_root,
                                      bool preserve_ids) {
  if (!src.Exists(src_root)) {
    return Status::NotFound("source subtree root not found");
  }
  // Iterative copy preserving child/attribute order.
  struct Frame {
    NodeId src;
    NodeId dst_parent;
    bool as_attribute;
  };
  NodeId new_root = kInvalidNode;
  std::vector<Frame> stack = {{src_root, kInvalidNode, false}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const NodeRecord& rec = src.Get(f.src);
    std::string_view nm = src.names_.Get(rec.name);
    std::string_view value = src.Bytes(rec.value);
    NodeId dst;
    if (preserve_ids) {
      XUPDATE_RETURN_IF_ERROR(CreateWithId(f.src, rec.type, nm, value));
      dst = f.src;
    } else {
      if (!fresh_ids_left()) {
        return Status::InvalidArgument("fresh node ids exhausted");
      }
      dst = Allocate(rec.type, nm, value);
    }
    if (f.dst_parent != kInvalidNode) {
      if (f.as_attribute) {
        XUPDATE_RETURN_IF_ERROR(AddAttribute(f.dst_parent, dst));
      } else {
        XUPDATE_RETURN_IF_ERROR(AppendChild(f.dst_parent, dst));
      }
    } else {
      new_root = dst;
    }
    // Push children in reverse so they pop in order; attributes likewise.
    std::span<const NodeId> kids = src.Ids(rec.children);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, dst, false});
    }
    std::span<const NodeId> attrs = src.Ids(rec.attributes);
    for (auto it = attrs.rbegin(); it != attrs.rend(); ++it) {
      stack.push_back({*it, dst, true});
    }
  }
  return new_root;
}

int Document::Level(NodeId id) const {
  int level = 0;
  NodeId cur = Get(id).parent;
  while (cur != kInvalidNode) {
    ++level;
    cur = Get(cur).parent;
  }
  return level;
}

bool Document::IsAncestor(NodeId anc, NodeId desc) const {
  if (!Exists(anc) || !Exists(desc)) return false;
  NodeId cur = Get(desc).parent;
  while (cur != kInvalidNode) {
    if (cur == anc) return true;
    cur = Get(cur).parent;
  }
  return false;
}

std::vector<NodeId> Document::PathToRoot(NodeId id) const {
  std::vector<NodeId> path;
  NodeId cur = id;
  while (cur != kInvalidNode) {
    path.push_back(cur);
    cur = Get(cur).parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

int Document::Compare(NodeId a, NodeId b) const {
  if (a == b) return 0;
  std::vector<NodeId> pa = PathToRoot(a);
  std::vector<NodeId> pb = PathToRoot(b);
  if (pa.front() != pb.front()) {
    // Different detached trees: order by root id (arbitrary but total).
    return pa.front() < pb.front() ? -1 : 1;
  }
  size_t i = 0;
  while (i < pa.size() && i < pb.size() && pa[i] == pb[i]) ++i;
  if (i == pa.size()) return -1;  // a is an ancestor of b
  if (i == pb.size()) return 1;   // b is an ancestor of a
  // Divergence below the common ancestor pa[i-1].
  NodeId anc = pa[i - 1];
  NodeId ca = pa[i];
  NodeId cb = pb[i];
  const NodeRecord& rec = Get(anc);
  bool ca_attr = Get(ca).type == NodeType::kAttribute;
  bool cb_attr = Get(cb).type == NodeType::kAttribute;
  // An element's attributes precede its children in our total order.
  if (ca_attr != cb_attr) return ca_attr ? -1 : 1;
  for (NodeId c : Ids(ca_attr ? rec.attributes : rec.children)) {
    if (c == ca) return -1;
    if (c == cb) return 1;
  }
  assert(false && "siblings not found under common ancestor");
  return 0;
}

int Document::ChildIndex(NodeId id) const {
  NodeId parent = Get(id).parent;
  if (parent == kInvalidNode) return -1;
  if (Get(id).type == NodeType::kAttribute) return -1;
  std::span<const NodeId> kids = Ids(Get(parent).children);
  for (size_t i = 0; i < kids.size(); ++i) {
    if (kids[i] == id) return static_cast<int>(i);
  }
  return -1;
}

void Document::Visit(NodeId start,
                     const std::function<bool(NodeId)>& visitor) const {
  std::vector<NodeId> stack = {start};
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    if (!visitor(v)) return;
    const NodeRecord& rec = Get(v);
    std::span<const NodeId> kids = Ids(rec.children);
    stack.insert(stack.end(), kids.rbegin(), kids.rend());
    std::span<const NodeId> attrs = Ids(rec.attributes);
    stack.insert(stack.end(), attrs.rbegin(), attrs.rend());
  }
}

std::vector<NodeId> Document::AllNodesInOrder() const {
  std::vector<NodeId> out;
  if (root_ == kInvalidNode) return out;
  out.reserve(nodes_.size());
  Visit(root_, [&](NodeId v) {
    out.push_back(v);
    return true;
  });
  return out;
}

Status Document::Validate() const {
  // Every reference must lie inside a live block of the store before
  // any list is read through it.
  auto in_bounds = [this](const StorageRef& ref, size_t unit) {
    if (ref.capacity == 0) return ref.size == 0;
    return ref.size <= ref.capacity &&
           store_.Holds(ref.block, ref.offset,
                        BlockStore::RoundUp(ref.capacity * unit));
  };
  auto check_bounds = [&](NodeId id, const NodeRecord& rec) -> Status {
    if (!in_bounds(rec.value, 1) ||
        !in_bounds(rec.children, sizeof(NodeId)) ||
        !in_bounds(rec.attributes, sizeof(NodeId))) {
      return Status::Internal("storage reference out of bounds at node " +
                              std::to_string(id));
    }
    return Status::OK();
  };
  auto check_links = [this](NodeId id, const NodeRecord& rec) -> Status {
    if (rec.parent != kInvalidNode) {
      const NodeRecord* parent = nodes_.Find(rec.parent);
      if (parent == nullptr) {
        return Status::Internal("dangling parent for node " +
                                std::to_string(id));
      }
      std::span<const NodeId> plist = Ids(rec.type == NodeType::kAttribute
                                              ? parent->attributes
                                              : parent->children);
      if (std::find(plist.begin(), plist.end(), id) == plist.end()) {
        return Status::Internal("parent does not list node " +
                                std::to_string(id));
      }
    }
    for (NodeId c : Ids(rec.children)) {
      const NodeRecord* child = nodes_.Find(c);
      if (child == nullptr || child->parent != id) {
        return Status::Internal("child link broken at node " +
                                std::to_string(id));
      }
      if (child->type == NodeType::kAttribute) {
        return Status::Internal("attribute stored as child of node " +
                                std::to_string(id));
      }
    }
    for (NodeId a : Ids(rec.attributes)) {
      const NodeRecord* attr = nodes_.Find(a);
      if (attr == nullptr || attr->parent != id ||
          attr->type != NodeType::kAttribute) {
        return Status::Internal("attribute link broken at node " +
                                std::to_string(id));
      }
    }
    if (rec.type != NodeType::kElement &&
        (rec.children.size != 0 || rec.attributes.size != 0)) {
      return Status::Internal("non-element node with children");
    }
    return Status::OK();
  };
  Status status;
  nodes_.ForEach([&](NodeId id, const NodeRecord& rec) {
    if (status.ok()) status = check_bounds(id, rec);
  });
  XUPDATE_RETURN_IF_ERROR(status);
  nodes_.ForEach([&](NodeId id, const NodeRecord& rec) {
    if (status.ok()) status = check_links(id, rec);
  });
  XUPDATE_RETURN_IF_ERROR(status);
  if (root_ != kInvalidNode) {
    const NodeRecord* root = nodes_.Find(root_);
    if (root == nullptr || root->parent != kInvalidNode) {
      return Status::Internal("invalid document root");
    }
  }
  return Status::OK();
}

bool Document::SubtreeEquals(const Document& a, NodeId ra,
                             const Document& b, NodeId rb,
                             bool compare_ids) {
  if (!a.Exists(ra) || !b.Exists(rb)) return false;
  if (compare_ids && ra != rb) return false;
  const NodeRecord& na = a.Get(ra);
  const NodeRecord& nb = b.Get(rb);
  if (na.type != nb.type) return false;
  if (a.names_.Get(na.name) != b.names_.Get(nb.name)) return false;
  if (a.Bytes(na.value) != b.Bytes(nb.value)) return false;
  std::span<const NodeId> ka = a.Ids(na.children);
  std::span<const NodeId> kb = b.Ids(nb.children);
  if (ka.size() != kb.size()) return false;
  if (na.attributes.size != nb.attributes.size) return false;
  for (size_t i = 0; i < ka.size(); ++i) {
    if (!SubtreeEquals(a, ka[i], b, kb[i], compare_ids)) return false;
  }
  // Attribute order is irrelevant: match by name.
  for (NodeId aa : a.Ids(na.attributes)) {
    bool matched = false;
    for (NodeId ba : b.Ids(nb.attributes)) {
      if (a.names_.Get(a.Get(aa).name) != b.names_.Get(b.Get(ba).name)) {
        continue;
      }
      if (SubtreeEquals(a, aa, b, ba, compare_ids)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

namespace {

// The serializer's refusals of a document's root, with its statuses.
Status CheckAnnotatedRoot(const Document& doc) {
  if (doc.root() == kInvalidNode) {
    return Status::InvalidArgument("document has no root");
  }
  if (!doc.Exists(doc.root())) {
    return Status::NotFound("subtree root not found");
  }
  if (doc.type(doc.root()) != NodeType::kElement) {
    return Status::InvalidArgument("subtree root must be an element");
  }
  return Status::OK();
}

Status InlineNodeError() {
  return Status::InvalidArgument(
      "only element and text nodes serialize inline");
}

// The serializer's refusal inside the tree, checked on its own once
// SameAnnotated's walk has stopped at a difference: it must still fail
// wherever serializing either side would.
Status CheckInline(const Document& doc) {
  std::vector<NodeId> stack = {doc.root()};
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    if (doc.type(id) == NodeType::kAttribute) return InlineNodeError();
    if (doc.type(id) != NodeType::kElement) continue;
    std::span<const NodeId> children = doc.children(id);
    stack.insert(stack.end(), children.begin(), children.end());
  }
  return Status::OK();
}

}  // namespace

Result<bool> Document::SameAnnotated(const Document& a, const Document& b) {
  XUPDATE_RETURN_IF_ERROR(CheckAnnotatedRoot(a));
  XUPDATE_RETURN_IF_ERROR(CheckAnnotatedRoot(b));
  Status error;
  if (a.root_ == b.root_ && SameAnnotatedAt(a, b, a.root_, &error)) {
    return true;
  }
  XUPDATE_RETURN_IF_ERROR(error);
  XUPDATE_RETURN_IF_ERROR(CheckInline(a));
  XUPDATE_RETURN_IF_ERROR(CheckInline(b));
  return false;
}

bool Document::SameAnnotatedAt(const Document& a, const Document& b,
                               NodeId id, Status* error) {
  const NodeRecord& na = a.Get(id);
  const NodeRecord& nb = b.Get(id);
  if (na.type == NodeType::kAttribute || nb.type == NodeType::kAttribute) {
    *error = InlineNodeError();
    return false;
  }
  if (na.type != nb.type) return false;
  if (na.type == NodeType::kText) {
    return a.Bytes(na.value) == b.Bytes(nb.value);
  }
  if (a.names_.Get(na.name) != b.names_.Get(nb.name)) return false;
  // Attribute and child ids are written positionally, so whole-list
  // equality is exactly the serializer's ids and order.
  std::span<const NodeId> attrs = a.Ids(na.attributes);
  std::span<const NodeId> kids = a.Ids(na.children);
  if (!std::ranges::equal(attrs, b.Ids(nb.attributes)) ||
      !std::ranges::equal(kids, b.Ids(nb.children))) {
    return false;
  }
  for (NodeId attr : attrs) {
    const NodeRecord& aa = a.Get(attr);
    const NodeRecord& ab = b.Get(attr);
    if (a.Bytes(aa.value) != b.Bytes(ab.value) ||
        a.names_.Get(aa.name) != b.names_.Get(ab.name)) {
      return false;
    }
  }
  for (NodeId child : kids) {
    if (!SameAnnotatedAt(a, b, child, error)) return false;
  }
  return true;
}

void Document::ReserveIdsBelow(NodeId floor) {
  if (next_id_ < floor) next_id_ = floor;
}

}  // namespace xupdate::xml
