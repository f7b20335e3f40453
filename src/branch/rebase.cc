#include "branch/rebase.h"

#include <utility>

#include "core/aggregate.h"
#include "core/reduce.h"
#include "pul/apply.h"

namespace xupdate::branch {

namespace {

Result<pul::Pul> FoldParentDelta(const std::vector<pul::Pul>& puls,
                                 const RebaseOptions& options) {
  pul::Pul folded;
  if (puls.size() == 1) {
    folded = puls.front();
  } else {
    std::vector<const pul::Pul*> pointers;
    pointers.reserve(puls.size());
    for (const pul::Pul& pul : puls) pointers.push_back(&pul);
    core::AggregateOptions aggregate_options;
    aggregate_options.metrics = options.metrics;
    aggregate_options.tracer = options.tracer;
    XUPDATE_ASSIGN_OR_RETURN(folded,
                             core::Aggregate(pointers, aggregate_options));
  }
  core::ReduceOptions reduce_options;
  reduce_options.mode = core::ReduceMode::kCanonical;
  reduce_options.parallelism = options.parallelism;
  reduce_options.metrics = options.metrics;
  return core::Reduce(folded, reduce_options);
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
  // Rewind verification: the undo chain must take the head document
  // back to the fork state byte-for-byte before we trust the suffix.
  XUPDATE_ASSIGN_OR_RETURN(xml::Document fork_doc,
                           store->CheckoutBranch(branch, info.fork));
  XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> commits,
                           store->SuffixPuls(branch, info.fork));
  XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> undos,
                           store->UndoChainFrom(fork_doc, commits));
  XUPDATE_ASSIGN_OR_RETURN(const xml::Document* head_doc,
                           store->BranchHeadDoc(branch));
  xml::Document rewound = *head_doc;
  for (const pul::Pul& undo : undos) {
    XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&rewound, undo));
  }
  XUPDATE_ASSIGN_OR_RETURN(std::string rewound_bytes,
                           store::VersionStore::SerializeAnnotated(rewound));
  XUPDATE_ASSIGN_OR_RETURN(std::string fork_bytes,
                           store::VersionStore::SerializeAnnotated(fork_doc));
  if (rewound_bytes != fork_bytes) {
    return Status::Internal("undo chain of branch " + branch +
                            " does not rewind to the fork state");
  }
  // The delta the branch is moving across, and its commits to replay.
  XUPDATE_ASSIGN_OR_RETURN(
      std::vector<pul::Pul> parent_puls,
      store->RangePuls(info.parent, info.fork, options.onto));
  pul::Pul parent_delta;
  if (!parent_puls.empty()) {
    XUPDATE_ASSIGN_OR_RETURN(parent_delta,
                             FoldParentDelta(parent_puls, options));
  }
  report.parent_delta_ops = parent_delta.size();
  XUPDATE_ASSIGN_OR_RETURN(xml::Document state,
                           store->CheckoutBranch(info.parent, options.onto));
  std::vector<pul::Pul> kept;
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
  XUPDATE_RETURN_IF_ERROR(store->RewriteBranch(branch, options.onto, kept));
  report.applied = true;
  if (options.metrics != nullptr) {
    options.metrics->AddCounter("branch.rebase.applied");
  }
  return report;
}

}  // namespace xupdate::branch
