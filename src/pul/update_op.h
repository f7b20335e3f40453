#ifndef XUPDATE_PUL_UPDATE_OP_H_
#define XUPDATE_PUL_UPDATE_OP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "label/node_label.h"
#include "xml/node.h"

namespace xupdate::pul {

// The update primitives of XQuery Update Facility as summarized in
// Table 2 of the paper.
enum class OpKind : uint8_t {
  kInsBefore = 0,   // ins<-  (v, P): trees before node v
  kInsAfter = 1,    // ins->  (v, P): trees after node v
  kInsFirst = 2,    // ins|/  (v, P): trees as first children of v
  kInsLast = 3,     // ins\|  (v, P): trees as last children of v
  kInsInto = 4,     // ins|   (v, P): children, implementation-defined pos
  kInsAttributes = 5,  // insA(v, P): attributes of v
  kDelete = 6,      // del(v)
  kReplaceNode = 7,     // repN(v, P): replace v with trees (possibly none)
  kReplaceValue = 8,    // repV(v, s): replace the value of v
  kReplaceChildren = 9,  // repC(v, t): replace children of v
  kRename = 10,     // ren(v, l)
};

inline constexpr int kNumOpKinds = 11;

// c(op) of the paper: insertion / deletion / replacement.
enum class OpClass : uint8_t { kInsertion, kDeletion, kReplacement };

OpClass ClassOf(OpKind kind);

// Application stage (1-5) per the PUL semantics of §2.2:
//   1: insInto, insAttributes, repV, ren
//   2: insBefore, insAfter, insFirst, insLast
//   3: repN   4: repC   5: del
int StageOf(OpKind kind);

// Stable wire names ("insBefore", "repN", ...).
std::string_view OpKindName(OpKind kind);
bool OpKindFromName(std::string_view name, OpKind* out);

// One update primitive. Tree parameters (`param_trees`) are roots of
// detached subtrees living in the owning Pul's forest; `param_string`
// carries the repV value or the ren name.
struct UpdateOp {
  OpKind kind = OpKind::kDelete;
  xml::NodeId target = xml::kInvalidNode;
  // Structural label of the target, carried inside the PUL so reasoning
  // never touches the document (§4.1). Invalid (self==0) when the target
  // is a node created by an earlier PUL of an aggregation sequence.
  label::NodeLabel target_label;
  std::vector<xml::NodeId> param_trees;
  std::string param_string;

  bool HasTreeParams() const {
    return ClassOf(kind) == OpClass::kInsertion ||
           kind == OpKind::kReplaceNode || kind == OpKind::kReplaceChildren;
  }
};

// op1 and op2 are compatible unless they have the same target, the same
// name, and replacement class (Definition 3).
bool AreCompatible(const UpdateOp& op1, const UpdateOp& op2);

}  // namespace xupdate::pul

#endif  // XUPDATE_PUL_UPDATE_OP_H_
