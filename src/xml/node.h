#ifndef XUPDATE_XML_NODE_H_
#define XUPDATE_XML_NODE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

// Storage record for one node. `name` is an interned id into the owning
// document's NamePool (0 when the node kind has no name).
struct NodeRecord {
  NodeType type = NodeType::kElement;
  NodeId parent = kInvalidNode;
  uint32_t name = 0;
  std::string value;             // text / attribute value
  std::vector<NodeId> children;  // ordered element+text children
  std::vector<NodeId> attributes;
};

}  // namespace xupdate::xml

#endif  // XUPDATE_XML_NODE_H_
