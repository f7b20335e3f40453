#include "branch/merge.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/diff.h"
#include "core/fold.h"
#include "core/reduce.h"
#include "label/labeling.h"

namespace xupdate::branch {

namespace {

// Fresh-id spacing between the two sides' fallback deltas.
constexpr xml::NodeId kFallbackIdSpan = xml::NodeId(1) << 20;

// One side's divergent suffix folded to a single canonical PUL against
// the merge-base state, carrying the branch's reconciliation policies.
//
// The reasoning path is core::FoldVerified: applying the fold to the
// base state must reproduce the side's head exactly. A suffix that
// crosses a merge frame can rewind below the base and re-apply
// operations, producing delete/re-create pairs of the same node id that
// no single PUL can express under the staged apply order (insertions
// run before deletions) — for those, the fold falls back to the paper's
// diff operator: the net delta base -> head, drawing fresh ids from
// `fresh_floor` so the two sides' fallbacks cannot collide.
Result<pul::Pul> FoldSuffix(const std::vector<pul::Pul>& suffix,
                            const xml::Document& base_doc,
                            const xml::Document& head_doc,
                            xml::NodeId fresh_floor,
                            const pul::Policies& policies,
                            const MergeOptions& options) {
  auto reasoned = [&]() -> Result<pul::Pul> {
    core::FoldOptions fold_options;
    fold_options.parallelism = options.parallelism;
    fold_options.metrics = options.metrics;
    fold_options.tracer = options.tracer;
    XUPDATE_ASSIGN_OR_RETURN(
        pul::Pul canon,
        core::FoldVerified(suffix, base_doc, head_doc, fold_options));
    // Chain-member undos (core/invert) leave ops targeting nodes the
    // forward PUL created unlabeled; the reconciliation needs a label
    // on every op, and against the base state every fold target is a
    // base node, so relabel those here (a suffix of plain commits has
    // none).
    std::vector<xml::NodeId> unlabeled;
    for (const pul::UpdateOp& op : canon.ops()) {
      if (!op.target_label.valid()) unlabeled.push_back(op.target);
    }
    label::Labeling base_labeling =
        label::Labeling::BuildFor(base_doc, unlabeled);
    for (pul::UpdateOp& op : canon.mutable_ops()) {
      if (op.target_label.valid()) continue;
      const label::NodeLabel* label = base_labeling.Find(op.target);
      if (label == nullptr) {
        return Status::Internal("fold op targets a non-base node " +
                                std::to_string(op.target));
      }
      op.target_label = *label;
    }
    return canon;
  };
  Result<pul::Pul> fold = reasoned();
  pul::Pul canon;
  if (fold.ok()) {
    canon = std::move(*fold);
  } else {
    if (options.metrics != nullptr) {
      options.metrics->AddCounter("branch.merge.fold_fallback");
    }
    label::Labeling labeling = label::Labeling::Build(base_doc);
    XUPDATE_ASSIGN_OR_RETURN(
        canon, core::ComputeDelta(base_doc, labeling, head_doc, fresh_floor));
    // The span is an id-space reservation, not a guarantee: a delta
    // re-creating more than kFallbackIdSpan nodes would run into the
    // other side's floor and the two fallbacks could collide.
    if (canon.forest().max_assigned_id() >= fresh_floor + kFallbackIdSpan) {
      return Status::Internal(
          "fallback delta allocated node ids beyond its reserved span [" +
          std::to_string(fresh_floor) + ", " +
          std::to_string(fresh_floor + kFallbackIdSpan) + ")");
    }
  }
  canon.set_policies(policies);
  return canon;
}

// The journal position a version of `branch`'s chain is stored at:
// versions at or below a branch's fork resolve through its parent.
Result<std::pair<std::string, uint64_t>> ResolveBase(
    const store::VersionStore& store, std::string branch, uint64_t v) {
  while (branch != "main") {
    XUPDATE_ASSIGN_OR_RETURN(store::BranchInfo info, store.GetBranch(branch));
    if (v > info.fork) break;
    branch = info.parent;
  }
  return std::make_pair(std::move(branch), v);
}

}  // namespace

Result<store::MergeCommitResult> Merge(store::VersionStore* store,
                                       const std::string& a,
                                       const std::string& b,
                                       const MergeOptions& options,
                                       MergeStats* stats) {
  ScopedTimer timer(options.metrics, "branch.merge.seconds");
  XUPDATE_ASSIGN_OR_RETURN(store::BranchInfo info_a, store->GetBranch(a));
  XUPDATE_ASSIGN_OR_RETURN(store::BranchInfo info_b, store->GetBranch(b));
  XUPDATE_ASSIGN_OR_RETURN(store::SyncPoint base, store->MergeBase(a, b));
  XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> suffix_a,
                           store->SuffixPuls(a, base.base_a));
  XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> suffix_b,
                           store->SuffixPuls(b, base.base_b));
  if (stats != nullptr) {
    stats->base_a = base.base_a;
    stats->base_b = base.base_b;
    stats->suffix_a = suffix_a.size();
    stats->suffix_b = suffix_b.size();
  }
  store::MergePlan plan;
  plan.branch_a = a;
  plan.branch_b = b;
  plan.base_a = base.base_a;
  plan.base_b = base.base_b;
  if (suffix_a.empty() && suffix_b.empty()) {
    if (stats != nullptr) stats->no_op = true;
    if (options.metrics != nullptr) {
      options.metrics->AddCounter("branch.merge.noop");
    }
    return store->CommitMerge(plan);
  }
  if (suffix_a.empty() || suffix_b.empty()) {
    // Fast-forward: the empty side sits exactly at the base state, so
    // the other side's suffix replays on it verbatim.
    if (suffix_a.empty()) {
      plan.chain_a = std::move(suffix_b);
    } else {
      plan.chain_b = std::move(suffix_a);
    }
    if (stats != nullptr) stats->fast_forward = true;
    if (options.metrics != nullptr) {
      options.metrics->AddCounter("branch.merge.fast_forward");
    }
    return store->CommitMerge(plan);
  }
  // Full merge: fold each side, reconcile under the producers'
  // policies, canonicalize, and land both sides on base + Pm. Bases at
  // one journal position (every fork-point merge) are read once; a sync
  // point's two bases sit on two journals. A base that is its journal's
  // head (a fork point main has not moved from) is the resident head,
  // borrowed; any other base is checked out.
  xml::Document checked_out_a;
  xml::Document checked_out_b;
  const xml::Document* base_a = nullptr;
  const xml::Document* base_b = nullptr;
  {
    ScopedTimer phase(options.metrics, "branch.merge.base_checkout.seconds");
    XUPDATE_ASSIGN_OR_RETURN(auto at_a, ResolveBase(*store, a, base.base_a));
    XUPDATE_ASSIGN_OR_RETURN(auto at_b, ResolveBase(*store, b, base.base_b));
    uint64_t checkouts = 0;
    auto read_base = [&](const std::pair<std::string, uint64_t>& at,
                         xml::Document* checked_out)
        -> Result<const xml::Document*> {
      XUPDATE_ASSIGN_OR_RETURN(const xml::Document* resident,
                               store->ResidentDocAt(at.first, at.second));
      if (resident != nullptr) return resident;
      XUPDATE_ASSIGN_OR_RETURN(*checked_out,
                               store->CheckoutBranch(at.first, at.second));
      ++checkouts;
      return checked_out;
    };
    XUPDATE_ASSIGN_OR_RETURN(base_a, read_base(at_a, &checked_out_a));
    if (at_a == at_b) {
      base_b = base_a;
    } else {
      XUPDATE_ASSIGN_OR_RETURN(base_b, read_base(at_b, &checked_out_b));
    }
    if (options.metrics != nullptr) {
      options.metrics->AddCounter("branch.merge.base_checkouts", checkouts);
    }
  }
  pul::Pul folded_a;
  pul::Pul folded_b;
  {
    ScopedTimer phase(options.metrics, "branch.merge.fold.seconds");
    XUPDATE_ASSIGN_OR_RETURN(const xml::Document* head_a,
                             store->BranchHeadDoc(a));
    XUPDATE_ASSIGN_OR_RETURN(const xml::Document* head_b,
                             store->BranchHeadDoc(b));
    // Name order assigns the disjoint fallback id floors, so Merge(a, b)
    // and Merge(b, a) produce byte-identical results.
    xml::NodeId floor =
        std::max({base_a->max_assigned_id(), base_b->max_assigned_id(),
                  head_a->max_assigned_id(), head_b->max_assigned_id()}) +
        1;
    xml::NodeId floor_a = (a < b) ? floor : floor + kFallbackIdSpan;
    xml::NodeId floor_b = (a < b) ? floor + kFallbackIdSpan : floor;
    XUPDATE_ASSIGN_OR_RETURN(
        folded_a, FoldSuffix(suffix_a, *base_a, *head_a, floor_a,
                             info_a.policies, options));
    XUPDATE_ASSIGN_OR_RETURN(
        folded_b, FoldSuffix(suffix_b, *base_b, *head_b, floor_b,
                             info_b.policies, options));
  }
  pul::Pul canonical;
  {
    ScopedTimer phase(options.metrics, "branch.merge.reconcile.seconds");
    std::vector<const pul::Pul*> inputs;
    if (a < b) {
      inputs = {&folded_a, &folded_b};
    } else {
      inputs = {&folded_b, &folded_a};
    }
    core::ReconcileOptions reconcile_options;
    reconcile_options.parallelism = options.parallelism;
    reconcile_options.metrics = options.metrics;
    reconcile_options.tracer = options.tracer;
    core::ReconcileStats reconcile_stats;
    XUPDATE_ASSIGN_OR_RETURN(
        pul::Pul merged,
        core::Reconcile(inputs, reconcile_options, &reconcile_stats));
    core::ReduceOptions reduce_options;
    reduce_options.mode = core::ReduceMode::kCanonical;
    reduce_options.parallelism = options.parallelism;
    reduce_options.metrics = options.metrics;
    XUPDATE_ASSIGN_OR_RETURN(canonical, core::Reduce(merged, reduce_options));
    if (stats != nullptr) {
      stats->reconcile = reconcile_stats;
      stats->merged_ops = canonical.size();
    }
  }
  {
    ScopedTimer phase(options.metrics, "branch.merge.undo.seconds");
    XUPDATE_ASSIGN_OR_RETURN(plan.chain_a,
                             store->UndoChainFrom(*base_a, suffix_a));
    XUPDATE_ASSIGN_OR_RETURN(plan.chain_b,
                             store->UndoChainFrom(*base_b, suffix_b));
  }
  plan.chain_a.push_back(canonical);
  plan.chain_b.push_back(std::move(canonical));
  if (options.metrics != nullptr) {
    options.metrics->AddCounter("branch.merge.full");
  }
  return store->CommitMerge(plan);
}

}  // namespace xupdate::branch
