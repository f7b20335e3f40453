#ifndef XUPDATE_XML_NODE_H_
#define XUPDATE_XML_NODE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace xupdate::xml {

// Unique, immutable, never-reused node identifier (paper §4.1). Id 0 is
// reserved as "invalid / unassigned".
using NodeId = uint64_t;
inline constexpr NodeId kInvalidNode = 0;

// Node kinds of the paper's tree model (§2.1): elements, attributes and
// text nodes. Coherently with XDM, an attribute's value is a property of
// the attribute node, while element text content is a separate node.
enum class NodeType : uint8_t {
  kElement = 0,
  kAttribute = 1,
  kText = 2,
};

// Single-character type tags used in serialized labels ("e", "a", "t"),
// matching the paper's τ function.
char NodeTypeToChar(NodeType type);
bool NodeTypeFromChar(char c, NodeType* out);
std::string_view NodeTypeToString(NodeType type);

// Ids run from 1 to kMaxNodeId: every id a document holds must be
// writable as a non-negative int64 in the id-annotated text forms
// (xu:ids, <?xuid?>, the PUL codec) and read back.
inline constexpr NodeId kMaxNodeId = 0x7fffffffffffffffull;

// Where a node's list or value lives in its document's BlockStore:
// `size` elements in use (ids or bytes) of the `capacity` that fit from
// byte `offset` of block `block`. capacity 0: nothing is stored.
struct StorageRef {
  uint32_t block = 0;
  uint32_t offset = 0;
  uint32_t size = 0;
  uint32_t capacity = 0;
};

// Storage record for one node: a flat, trivially copyable value. `name`
// is an interned id into the owning document's NamePool (0 when the
// node kind has no name); the lists and the value live in the owning
// document's blocks.
struct NodeRecord {
  NodeType type = NodeType::kElement;
  uint32_t name = 0;
  NodeId parent = kInvalidNode;
  StorageRef value;       // text / attribute value (bytes)
  StorageRef children;    // ordered element+text children (ids)
  StorageRef attributes;  // attribute ids
};
static_assert(std::is_trivially_copyable_v<NodeRecord>);
static_assert(sizeof(NodeRecord) <= 64);

}  // namespace xupdate::xml

#endif  // XUPDATE_XML_NODE_H_
