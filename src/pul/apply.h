#ifndef XUPDATE_PUL_APPLY_H_
#define XUPDATE_PUL_APPLY_H_

#include "common/result.h"
#include "label/labeling.h"
#include "pul/pul.h"
#include "xml/document.h"

namespace xupdate::pul {

// Position policy the executor uses for the implementation-defined
// placement of insInto trees when applying deterministically. kAsFirst
// matches the determinization of reduction stage 10 (ins-into becomes
// ins-as-first).
enum class InsIntoPosition { kAsFirst, kAsLast };

struct ApplyOptions {
  InsIntoPosition ins_into = InsIntoPosition::kAsFirst;
  // When set, labels are maintained incrementally (existing labels never
  // change; inserted subtrees get squeezed-in CDBS codes).
  label::Labeling* labeling = nullptr;
};

// Resolver of the non-deterministic choices of the PUL semantics
// (Definition 2 / §2.2): the position of each insInto block and the
// relative order of same-kind insertions on the same target. Implemented
// by the obtainable-set enumerator; a null oracle means "first option /
// list order".
class ChoiceOracle {
 public:
  virtual ~ChoiceOracle() = default;
  // Returns a value in [0, num_options); num_options >= 1.
  virtual size_t Choose(size_t num_options) = 0;
};

// Definition 1: target exists and the operation matches its
// applicability conditions (Table 2) on `doc`.
Status CheckOpApplicable(const xml::Document& doc, const Pul& pul,
                         const UpdateOp& op);

// Definition 4: every operation applicable, all pairs compatible; and
// the two dynamic errors of the apply, predicted from `doc`: no
// parameter-tree node id names a node of `doc` or occurs in two trees
// of the PUL (kInvalidArgument), and
// no element the PUL keeps ends with two attributes of one name
// (kNotApplicable). A PUL that passes applies without error.
Status CheckPulApplicable(const xml::Document& doc, const Pul& pul);

// Applies `pul` to `doc` following the five-stage semantics of §2.2:
//   (1) insInto, insAttr, repV, ren   (2) insBefore/After/First/Last
//   (3) repN                          (4) repC
//   (5) del
// Parameter trees are materialized with their producer-assigned ids
// (bind the PUL's id space to the document before building it).
// Applicability, CheckPulApplicable, is fully checked before `doc` is
// touched, so a failure leaves `doc` as it was.
Status ApplyPul(xml::Document* doc, const Pul& pul,
                const ApplyOptions& options = {},
                ChoiceOracle* oracle = nullptr);

}  // namespace xupdate::pul

#endif  // XUPDATE_PUL_APPLY_H_
