#include "branch/rebase.h"

#include <algorithm>
#include <utility>

#include "core/diff.h"
#include "core/fold.h"
#include "label/labeling.h"
#include "pul/apply.h"

namespace xupdate::branch {

namespace {

// The delta the branch moves across: the parent's PULs (fork, onto]
// folded to one canonical PUL. A range crossing a full merge frame can
// create, delete and re-create one node id (the frame's undo, then its
// merge PUL), which no single aggregated PUL holds; its net delta
// fork -> onto comes from the diff operator instead, with fresh ids
// above every id the replayed commits use.
Result<pul::Pul> ParentDelta(const std::vector<pul::Pul>& parent_puls,
                             const xml::Document& fork_doc,
                             const xml::Document& onto_doc,
                             const std::vector<pul::Pul>& commits,
                             const RebaseOptions& options) {
  core::FoldOptions fold_options;
  fold_options.parallelism = options.parallelism;
  fold_options.metrics = options.metrics;
  fold_options.tracer = options.tracer;
  Result<pul::Pul> folded = core::FoldCanonical(parent_puls, fold_options);
  if (folded.ok()) return folded;
  if (options.metrics != nullptr) {
    options.metrics->AddCounter("branch.rebase.delta_fallback");
  }
  xml::NodeId floor =
      std::max(fork_doc.max_assigned_id(), onto_doc.max_assigned_id());
  for (const pul::Pul& commit : commits) {
    floor = std::max(floor, commit.forest().max_assigned_id());
  }
  return core::ComputeDelta(fork_doc, label::Labeling::Build(fork_doc),
                            onto_doc, floor + 1);
}

}  // namespace

Result<RebaseReport> Rebase(store::VersionStore* store,
                            const std::string& branch,
                            const RebaseOptions& options) {
  ScopedTimer timer(options.metrics, "branch.rebase.seconds");
  if (branch == "main") {
    return Status::InvalidArgument("the mainline cannot be rebased");
  }
  XUPDATE_ASSIGN_OR_RETURN(store::BranchInfo info, store->GetBranch(branch));
  // A child resolves every version at or below its fork through this
  // branch's journal; rewriting it would silently change the child's
  // checkouts, and a head landing below the child's fork makes the
  // store unopenable. Refuse while children exist.
  for (const std::string& other : store->BranchNames()) {
    if (other == branch) continue;
    XUPDATE_ASSIGN_OR_RETURN(store::BranchInfo other_info,
                             store->GetBranch(other));
    if (other_info.parent == branch) {
      return Status::InvalidArgument(
          "branch " + branch + " has a child branch " + other +
          " forked from it — rebase or merge " + other + " first");
    }
  }
  XUPDATE_ASSIGN_OR_RETURN(store::BranchInfo parent,
                           store->GetBranch(info.parent));
  if (options.onto < info.fork || options.onto > parent.head) {
    return Status::InvalidArgument(
        "rebase target " + std::to_string(options.onto) +
        " outside [" + std::to_string(info.fork) + ", " +
        std::to_string(parent.head) + "] on branch " + info.parent);
  }
  XUPDATE_ASSIGN_OR_RETURN(std::vector<store::LogEntry> log,
                           store->LogBranch(branch, /*with_op_counts=*/false));
  for (const store::LogEntry& entry : log) {
    if (entry.type == store::FrameType::kMerge) {
      return Status::InvalidArgument(
          "branch " + branch + " has a merge commit at version " +
          std::to_string(entry.version) +
          "; its history cannot be linearly replayed — merge instead");
    }
  }
  RebaseReport report;
  report.branch = branch;
  report.old_fork = info.fork;
  report.new_fork = options.onto;
  // Checkout: the fork state the rewind must reach, and the state the
  // replay starts from — a copy of the parent's resident head when the
  // branch moves onto it.
  xml::Document fork_doc;
  xml::Document state;
  {
    ScopedTimer phase(options.metrics, "branch.rebase.checkout.seconds");
    XUPDATE_ASSIGN_OR_RETURN(fork_doc,
                             store->CheckoutBranch(branch, info.fork));
    XUPDATE_ASSIGN_OR_RETURN(const xml::Document* parent_head,
                             store->ResidentDocAt(info.parent, options.onto));
    if (parent_head != nullptr) {
      state = *parent_head;
    } else {
      XUPDATE_ASSIGN_OR_RETURN(
          state, store->CheckoutBranch(info.parent, options.onto));
    }
  }
  std::vector<pul::Pul> commits;
  std::vector<pul::Pul> undos;
  {
    ScopedTimer phase(options.metrics, "branch.rebase.undo.seconds");
    XUPDATE_ASSIGN_OR_RETURN(commits, store->SuffixPuls(branch, info.fork));
    XUPDATE_ASSIGN_OR_RETURN(undos, store->UndoChainFrom(fork_doc, commits));
  }
  // Rewind verification: the undo chain must take the head document
  // back to the fork state exactly before we trust the suffix.
  {
    ScopedTimer phase(options.metrics, "branch.rebase.rewind_check.seconds");
    XUPDATE_ASSIGN_OR_RETURN(const xml::Document* head_doc,
                             store->BranchHeadDoc(branch));
    xml::Document rewound = *head_doc;
    for (const pul::Pul& undo : undos) {
      XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&rewound, undo));
    }
    XUPDATE_ASSIGN_OR_RETURN(bool same,
                             xml::Document::SameAnnotated(rewound, fork_doc));
    if (!same) {
      return Status::Internal("undo chain of branch " + branch +
                              " does not rewind to the fork state");
    }
  }
  // Replay: the delta the branch is moving across, then its commits.
  std::vector<pul::Pul> kept;
  {
    ScopedTimer phase(options.metrics, "branch.rebase.replay.seconds");
    XUPDATE_ASSIGN_OR_RETURN(
        std::vector<pul::Pul> parent_puls,
        store->RangePuls(info.parent, info.fork, options.onto));
    pul::Pul parent_delta;
    if (!parent_puls.empty()) {
      XUPDATE_ASSIGN_OR_RETURN(
          parent_delta,
          ParentDelta(parent_puls, fork_doc, state, commits, options));
    }
    report.parent_delta_ops = parent_delta.size();
    kept.reserve(commits.size());
    for (size_t i = 0; i < commits.size(); ++i) {
      const pul::Pul& commit = commits[i];
      Status applicable = pul::CheckPulApplicable(state, commit);
      if (applicable.ok()) {
        XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&state, commit));
        kept.push_back(commit);
        ++report.replayed;
        continue;
      }
      RebaseConflict conflict;
      conflict.version = info.fork + 1 + i;
      conflict.detail = applicable.message();
      // Classify against the parent delta with the reconciliation
      // engine's conflict detector (label-based, so the two inputs being
      // grounded on different states does not matter for classification).
      core::IntegrateOptions integrate_options;
      integrate_options.parallelism = options.parallelism;
      integrate_options.metrics = options.metrics;
      std::vector<const pul::Pul*> pair = {&parent_delta, &commit};
      Result<core::IntegrationResult> integrated =
          core::Integrate(pair, integrate_options);
      if (integrated.ok()) {
        for (const core::Conflict& c : integrated->conflicts) {
          conflict.types.push_back(c.type);
        }
      }
      report.conflicts.push_back(std::move(conflict));
      if (options.metrics != nullptr) {
        options.metrics->AddCounter("branch.rebase.conflicts");
      }
      if (!options.skip_conflicting) {
        return report;  // applied stays false; nothing installed
      }
      ++report.dropped;
    }
  }
  {
    ScopedTimer phase(options.metrics, "branch.rebase.commit.seconds");
    XUPDATE_RETURN_IF_ERROR(
        store->RewriteBranch(branch, options.onto, kept, std::move(state)));
  }
  report.applied = true;
  if (options.metrics != nullptr) {
    options.metrics->AddCounter("branch.rebase.applied");
  }
  return report;
}

}  // namespace xupdate::branch
