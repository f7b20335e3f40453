#ifndef XUPDATE_CORE_INVERT_H_
#define XUPDATE_CORE_INVERT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "pul/pul.h"
#include "xml/document.h"

namespace xupdate::core {

// PUL inversion — the future-work item of the paper's §6 ("the study of
// PUL inversion ... requires either the extension of the PUL production
// algorithm or the access to the document the PUL refers to"). This
// implementation takes the document-access route: given a PUL and the
// pre-state document it applies to, it computes a PUL that undoes it:
//
//   Apply(D, pul) = D'  implies  Apply(D', Invert(D, pul)) = D
//
// including node identities (removed subtrees are re-inserted with their
// original ids; ids are never reused, matching §4.1).
//
// Inverses per primitive:
//   ins*(v, P)   ->  del of every inserted root
//   del(v)       ->  re-insertion of the saved subtree at its position
//                    (grouped per anchor to keep sibling order exact)
//   repN(v, P)   ->  repN(first(P), saved v) + del of the other roots
//   repV(v, s)   ->  repV(v, old value)
//   ren(v, l)    ->  ren(v, old name)
//   repC(v, P)   ->  repC(v, saved children) [generalized repC]
//
// Precondition: the PUL must be O-irreducible — OverriddenOps (below)
// must flag no operation. Overridden operations have no effect on the
// document, so their inverses would wrongly "undo" nothing into
// something; run Reduce() first, or drop them. Violations yield
// kInvalidArgument naming the first override found.
//
// Every inverse op whose target is a node of `doc` carries that node's
// label from label::Labeling::Build(doc), so the inverse can itself be
// reasoned about; targets the forward PUL creates have no label. Only
// the targets are labeled (Labeling::BuildFor), not the whole document.
[[nodiscard]] Result<pul::Pul> Invert(const xml::Document& doc,
                                      const pul::Pul& pul);

// The operations of `pul` that the O-rules of Figure 2 override, one
// flag per operation, judged against the pre-state document `doc`
// rather than the operation labels (labels inside an aggregated PUL can
// predate `doc` and miss ancestor relations it exhibits): a same-target
// repN/del overrides the O1 kinds (pul::IsO1Overridable), a same-target
// repC the child insertions (O2), a del/repN every operation inside its
// subtree (O3), a repC every operation under its target except the
// target's own attributes (O4). Overridden operations have no effect on
// Apply. When `reason` is non-null and some operation is flagged, it
// receives a description of the first override found.
std::vector<bool> OverriddenOps(const xml::Document& doc,
                                const pul::Pul& pul,
                                std::string* reason = nullptr);

}  // namespace xupdate::core

#endif  // XUPDATE_CORE_INVERT_H_
