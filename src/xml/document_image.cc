#include "xml/document_image.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace xupdate::xml {

namespace {

void PutVarint(std::string* out, uint64_t v) {
  char bytes[10];
  size_t n = 0;
  while (v >= 0x80) {
    bytes[n++] = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  bytes[n++] = static_cast<char>(v);
  out->append(bytes, n);
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

uint64_t UnZigZag(uint64_t v) { return (v >> 1) ^ (~(v & 1) + 1); }

// Reads the image front to back; every read is bounded by `end_`.
class Reader {
 public:
  Reader(const char* begin, const char* end) : p_(begin), end_(end) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }
  void set_end(const char* end) { end_ = end; }

  bool Byte(uint8_t* v) {
    if (p_ == end_) return false;
    *v = static_cast<uint8_t>(*p_++);
    return true;
  }

  // A LEB128 varint in its shortest form.
  bool Varint(uint64_t* v) {
    uint64_t result = 0;
    for (unsigned shift = 0; p_ != end_; shift += 7) {
      uint8_t byte = static_cast<uint8_t>(*p_++);
      if (shift == 63 && byte > 1) return false;  // past 64 bits
      result |= uint64_t{byte & 0x7fu} << shift;
      if ((byte & 0x80) == 0) {
        if (byte == 0 && shift != 0) return false;  // overlong
        *v = result;
        return true;
      }
    }
    return false;
  }

  bool Bytes(size_t n, std::string_view* out) {
    if (n > remaining()) return false;
    *out = {p_, n};
    p_ += n;
    return true;
  }

 private:
  const char* p_;
  const char* end_;
};

Status Corrupt(const std::string& what) {
  return Status::ParseError("document image: " + what);
}

// The longest list or value a StorageRef extent can hold.
constexpr uint64_t kMaxListSize =
    (std::numeric_limits<uint32_t>::max() - BlockStore::kAlign) /
    sizeof(NodeId);
constexpr uint64_t kMaxValueSize =
    std::numeric_limits<uint32_t>::max() - BlockStore::kAlign;

}  // namespace

Status EncodeImage(const Document& doc, std::string* out) {
  if (doc.root_ == kInvalidNode) {
    return Status::InvalidArgument("document has no root");
  }
  if (!doc.Exists(doc.root_)) {
    return Status::NotFound("subtree root not found");
  }
  if (doc.Get(doc.root_).type != NodeType::kElement) {
    return Status::InvalidArgument("subtree root must be an element");
  }
  // Image name index per NamePool id, numbered by first use. The empty
  // name can sit under two pool ids (0 and an interned ""), so it is
  // numbered by its text.
  constexpr uint32_t kUnnumbered = ~uint32_t{0};
  std::vector<uint32_t> name_index(doc.names_.size(), kUnnumbered);
  uint32_t empty_index = kUnnumbered;
  std::vector<std::string_view> names;
  auto number = [&](uint32_t pool_id) -> uint64_t {
    uint32_t& index = name_index[pool_id];
    if (index != kUnnumbered) return index;
    std::string_view name = doc.names_.Get(pool_id);
    if (name.empty() && empty_index != kUnnumbered) return index = empty_index;
    index = static_cast<uint32_t>(names.size());
    names.push_back(name);
    if (name.empty()) empty_index = index;
    return index;
  };

  std::string nodes;
  nodes.reserve(doc.nodes_.size() * 6);
  std::vector<std::string_view> values;
  uint64_t node_count = 0;
  uint64_t pool_bytes = 0;
  NodeId previous = kInvalidNode;
  auto put_node = [&](NodeType kind, NodeId id) {
    nodes.push_back(static_cast<char>(kind));
    PutVarint(&nodes, ZigZag(static_cast<int64_t>(id - previous)));
    previous = id;
    ++node_count;
  };
  auto put_value = [&](std::string_view value) {
    PutVarint(&nodes, value.size());
    values.push_back(value);
    pool_bytes += value.size();
  };

  std::vector<NodeId> stack = {doc.root_};
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    const NodeRecord& rec = doc.Get(id);
    if (rec.type == NodeType::kText) {
      put_node(NodeType::kText, id);
      put_value(doc.Bytes(rec.value));
      continue;
    }
    if (rec.type != NodeType::kElement) {
      return Status::InvalidArgument(
          "only element and text nodes serialize inline");
    }
    put_node(NodeType::kElement, id);
    PutVarint(&nodes, number(rec.name));
    PutVarint(&nodes, rec.attributes.size);
    PutVarint(&nodes, rec.children.size);
    for (NodeId attr : doc.Ids(rec.attributes)) {
      const NodeRecord& a = doc.Get(attr);
      put_node(NodeType::kAttribute, attr);
      PutVarint(&nodes, number(a.name));
      put_value(doc.Bytes(a.value));
    }
    std::span<const NodeId> children = doc.Ids(rec.children);
    stack.insert(stack.end(), children.rbegin(), children.rend());
  }

  size_t names_bytes = 0;
  for (std::string_view name : names) names_bytes += 10 + name.size();
  out->reserve(out->size() + 40 + names_bytes + nodes.size() + pool_bytes);
  PutVarint(out, node_count);
  PutVarint(out, names.size());
  for (std::string_view name : names) {
    PutVarint(out, name.size());
    out->append(name);
  }
  PutVarint(out, pool_bytes);
  out->append(nodes);
  for (std::string_view value : values) out->append(value);
  return Status::OK();
}

Result<Document> DecodeImage(std::string_view image) {
  Reader in(image.data(), image.data() + image.size());
  uint64_t node_count = 0;
  uint64_t name_count = 0;
  // Every node takes at least two bytes, every name at least one.
  if (!in.Varint(&node_count) || node_count == 0 ||
      node_count > image.size() / 2) {
    return Corrupt("bad node count");
  }
  if (!in.Varint(&name_count) || name_count > in.remaining()) {
    return Corrupt("bad name count");
  }
  Document doc;
  // A fresh pool numbers the names 1, 2, ...; a name that comes back
  // with a lower id is a duplicate.
  for (uint64_t i = 0; i < name_count; ++i) {
    uint64_t length = 0;
    std::string_view name;
    if (!in.Varint(&length) || !in.Bytes(length, &name)) {
      return Corrupt("truncated name table");
    }
    if (doc.names_.Intern(name) != i + 1) return Corrupt("duplicate name");
  }
  uint64_t pool_bytes = 0;
  if (!in.Varint(&pool_bytes) || pool_bytes > in.remaining()) {
    return Corrupt("bad value pool size");
  }
  const char* pool = image.data() + image.size() - pool_bytes;
  in.set_end(pool);
  uint64_t pool_used = 0;

  BlockStore& store = doc.store_;
  auto list = [&](uint64_t size) -> StorageRef {
    if (size == 0) return {};
    BlockStore::Extent extent = store.Allocate(size * sizeof(NodeId));
    return {extent.block, extent.offset, 0,
            static_cast<uint32_t>(extent.bytes / sizeof(NodeId))};
  };
  auto value = [&](StorageRef* ref) -> bool {
    uint64_t length = 0;
    if (!in.Varint(&length) || length > pool_bytes - pool_used ||
        length > kMaxValueSize) {
      return false;
    }
    if (length == 0) return true;
    BlockStore::Extent extent = store.Allocate(length);
    std::memcpy(store.Chars(extent.block, extent.offset), pool + pool_used,
                length);
    pool_used += length;
    *ref = {extent.block, extent.offset, static_cast<uint32_t>(length),
            extent.bytes};
    return true;
  };
  uint64_t names_used = 0;
  auto name = [&](uint32_t* pool_id) -> bool {
    uint64_t index = 0;
    if (!in.Varint(&index) || index > names_used || index >= name_count) {
      return false;
    }
    if (index == names_used) ++names_used;
    *pool_id = static_cast<uint32_t>(index + 1);
    return true;
  };

  // Elements whose attributes or children are still to come.
  struct Open {
    NodeRecord* rec;
    NodeId id;
  };
  std::vector<Open> open;
  doc.nodes_.Reserve(node_count);
  NodeId root = kInvalidNode;
  NodeId previous = kInvalidNode;
  NodeId max_id = kInvalidNode;
  for (uint64_t n = 0; n < node_count; ++n) {
    uint8_t kind = 0;
    uint64_t delta = 0;
    if (!in.Byte(&kind) || !in.Varint(&delta)) {
      return Corrupt("truncated node stream");
    }
    if (kind > static_cast<uint8_t>(NodeType::kText)) {
      return Corrupt("unknown node kind " + std::to_string(kind));
    }
    const NodeType type = static_cast<NodeType>(kind);
    // Wrapping arithmetic: an id below 1 wraps above kMaxNodeId.
    const NodeId id = previous + UnZigZag(delta);
    if (id == kInvalidNode || id > kMaxNodeId) {
      return Corrupt("node id out of range");
    }
    previous = id;
    if (id > max_id) max_id = id;

    // Where the node goes: the open element's attribute list while it
    // expects attributes, else its child list; the root opens nothing.
    StorageRef* slot = nullptr;
    NodeId parent = kInvalidNode;
    if (open.empty()) {
      if (n != 0) return Corrupt("more than one tree");
      if (type != NodeType::kElement) return Corrupt("root is no element");
      root = id;
    } else {
      NodeRecord* up = open.back().rec;
      parent = open.back().id;
      bool attribute_slot = up->attributes.size < up->attributes.capacity;
      if (attribute_slot != (type == NodeType::kAttribute)) {
        return Corrupt(attribute_slot ? "attribute expected"
                                      : "attribute in a child list");
      }
      slot = attribute_slot ? &up->attributes : &up->children;
    }
    auto [rec, inserted] = doc.nodes_.TryEmplace(id);
    if (!inserted) return Corrupt("duplicate node id " + std::to_string(id));
    rec->type = type;
    rec->parent = parent;
    if (slot != nullptr) {
      store.Words(slot->block, slot->offset)[slot->size++] = id;
    }
    if (type == NodeType::kElement) {
      uint64_t attributes = 0;
      uint64_t children = 0;
      const uint64_t left = node_count - n - 1;
      if (!name(&rec->name) || !in.Varint(&attributes) ||
          !in.Varint(&children) || attributes > left || children > left ||
          attributes + children > left || attributes > kMaxListSize ||
          children > kMaxListSize) {
        return Corrupt("bad element at node " + std::to_string(id));
      }
      rec->attributes = list(attributes);
      rec->children = list(children);
      open.push_back({rec, id});
    } else if ((type == NodeType::kAttribute && !name(&rec->name)) ||
               !value(&rec->value)) {
      return Corrupt("bad value at node " + std::to_string(id));
    }
    // Close every element this node completed. An id list's extent
    // holds exactly its declared count, so a list is complete once its
    // size reaches its capacity.
    while (!open.empty()) {
      const NodeRecord* top = open.back().rec;
      if (top->attributes.size != top->attributes.capacity ||
          top->children.size != top->children.capacity) {
        break;
      }
      open.pop_back();
    }
  }
  if (!open.empty()) return Corrupt("node stream ends inside an element");
  if (!in.done()) return Corrupt("trailing bytes after the node stream");
  if (pool_used != pool_bytes) return Corrupt("unused value pool bytes");
  if (names_used != name_count) return Corrupt("unused name");
  doc.root_ = root;
  doc.next_id_ = max_id + 1;
  return doc;
}

}  // namespace xupdate::xml
