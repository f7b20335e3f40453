#ifndef XUPDATE_BRANCH_REBASE_H_
#define XUPDATE_BRANCH_REBASE_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "core/integrate.h"
#include "obs/trace.h"
#include "store/version.h"

namespace xupdate::branch {

// Three-way rebase: replays a branch's commits onto a newer version of
// its parent, one commit at a time.
//
//   1. The rewind is verified first: the branch's undo chain (the
//      store's ComputeUndo/Invert machinery) is applied to the head
//      document and must land exactly on the fork state
//      (xml::Document::SameAnnotated) — the guarantee that the suffix
//      about to be replayed is exact.
//   2. parent_delta <- the parent's PULs (fork, onto] folded and
//      canonicalized (core::FoldCanonical): the delta the branch is
//      moving across. A range that crosses a full merge frame may not
//      fold into one PUL; its delta then comes from the diff operator
//      (core::ComputeDelta) between the fork and `onto` states.
//   3. Each branch commit is replayed verbatim on the evolving new
//      base, starting from `onto` (a copy of the parent's resident head
//      document when `onto` is the parent's head, else a checkout). A
//      commit that no longer applies is classified against parent_delta
//      by core/integrate — the same five conflict classes the
//      reconciliation engine uses — and reported. By default any
//      conflict aborts the rebase (nothing is installed); with
//      skip_conflicting the commit is dropped and the replay continues.
//   4. Installation is store->RewriteBranch: a RebaseRecord voiding the
//      branch's old sync records is made durable first, then the
//      journal is atomically rewritten (a crash between the two leaves
//      the old journal intact with merge bases conservatively back at
//      the fork point).
//
// Branches whose journals contain merge commits are refused by name:
// rewriting a merge frame would detach its twin on the other journal.

struct RebaseOptions {
  uint64_t onto = 0;  // target fork version on the parent (>= old fork)
  // Drop conflicting commits and continue instead of aborting.
  bool skip_conflicting = false;
  int parallelism = 1;
  Metrics* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

// One branch commit that could not be replayed.
struct RebaseConflict {
  uint64_t version = 0;  // the commit's version in the OLD numbering
  // Conflict classes against the parent delta (core/integrate's five
  // types); empty when the commit merely failed applicability.
  std::vector<core::ConflictType> types;
  std::string detail;
};

struct RebaseReport {
  std::string branch;
  uint64_t old_fork = 0;
  uint64_t new_fork = 0;
  size_t parent_delta_ops = 0;  // folded parent-delta size
  size_t replayed = 0;          // commits kept
  size_t dropped = 0;           // commits dropped (skip_conflicting)
  bool applied = false;         // RewriteBranch installed the result
  std::vector<RebaseConflict> conflicts;
};

// Rebases `branch` onto version options.onto of its parent. Returns the
// report with applied=false (and the conflict list) when conflicts
// abort the rebase; a Status error only for structural failures.
[[nodiscard]] Result<RebaseReport> Rebase(store::VersionStore* store,
                                          const std::string& branch,
                                          const RebaseOptions& options);

}  // namespace xupdate::branch

#endif  // XUPDATE_BRANCH_REBASE_H_
