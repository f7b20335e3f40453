#ifndef XUPDATE_CORE_FOLD_H_
#define XUPDATE_CORE_FOLD_H_

#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "obs/trace.h"
#include "pul/pul.h"
#include "xml/document.h"

namespace xupdate::core {

// One sequence of PULs (Delta_1 ; ... ; Delta_n) as a single canonical
// PUL: Aggregate (skipped for a single PUL), then Reduce in kCanonical
// mode (Definition 9). Merge folds each side's divergent suffix, rebase
// the parent delta it moves across, rollback its undo chain.
struct FoldOptions {
  // Reduce parallelism (byte-deterministic across levels).
  int parallelism = 1;
  Metrics* metrics = nullptr;
  // Aggregation's decision-provenance sink.
  obs::Tracer* tracer = nullptr;
};

[[nodiscard]] Result<pul::Pul> FoldCanonical(
    const std::vector<pul::Pul>& puls, const FoldOptions& options);

// FoldCanonical, trusted only once it is verified: applied to a copy of
// `from`, the fold must land exactly on `to` (xml::Document::
// SameAnnotated — every node id, name, value and position the store's
// bytes would hold). Substitutability (Definition 6) is a property of
// the rules; the check guards the inputs they assume, such as a chain
// that deletes and re-creates one node id, which no single PUL expresses
// under the staged apply order. Fails with kInternal when the fold does
// not verify; the caller chooses its fallback.
[[nodiscard]] Result<pul::Pul> FoldVerified(
    const std::vector<pul::Pul>& puls, const xml::Document& from,
    const xml::Document& to, const FoldOptions& options);

}  // namespace xupdate::core

#endif  // XUPDATE_CORE_FOLD_H_
