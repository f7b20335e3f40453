#ifndef XUPDATE_CORE_INVERT_H_
#define XUPDATE_CORE_INVERT_H_

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
// Precondition: the PUL must be O-irreducible — no operation may be
// overridden by a same-target or ancestor-target repN/del/repC (rules
// O1-O4 of Figure 2 must not apply). Such operations have no effect on
// the document, so their inverses would wrongly "undo" nothing into
// something; run Reduce() first. Violations yield kInvalidArgument.
//
// Every inverse op whose target is a node of `doc` carries that node's
// label from label::Labeling::Build(doc), so the inverse can itself be
// reasoned about; targets the forward PUL creates have no label. Only
// the targets are labeled (Labeling::BuildFor), not the whole document.
[[nodiscard]] Result<pul::Pul> Invert(const xml::Document& doc,
                                      const pul::Pul& pul);

}  // namespace xupdate::core

#endif  // XUPDATE_CORE_INVERT_H_
