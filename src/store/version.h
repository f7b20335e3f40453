#ifndef XUPDATE_STORE_VERSION_H_
#define XUPDATE_STORE_VERSION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "label/labeling.h"
#include "obs/trace.h"
#include "pul/pul.h"
#include "store/records.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "xml/document.h"

namespace xupdate::store {

// The durable versioned update store: a linear version history where
// version 0 is the initial document and each later version is its
// parent plus one committed PUL. Every history in the store is a
// journal of one type (Journal below): a base state plus the frames
// producing each later version. The mainline is the root journal; each
// branch is a journal forked from another at some version. On disk a
// store directory holds
//
//   wal.log             the mainline journal (store/wal.h)
//   snap-*.snap         snapshot checkpoints of the mainline
//                       (store/snapshot.h)
//
// plus, when branches exist (see "Branches" below),
//
//   branch-<name>.log   one journal per named branch
//   branches.log        sync-commit + rebase markers (store/records.h)
//
// and nothing else — there is no manifest; the whole state is derived
// by scanning them at Open(). Every commit is a group commit on one
// journal and WAL-first: the serialized PULs are appended (and fsync'd
// once per group, per policy) before they are applied in memory,
// so a crash at any byte leaves a journal that recovers to the last
// complete version. Checkout(v) materializes any historical version by
// replaying from the nearest checkpoint at or below v.

struct StoreOptions {
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  size_t batch_interval = 16;
  // Checkpoint cadence: snapshot after this many versions since the
  // last checkpoint (0 disables the version trigger) ...
  uint64_t snapshot_every = 8;
  // ... or after this many journal bytes since it (0 disables).
  uint64_t snapshot_bytes = 1 << 20;
  // Reduce parallelism used by rollback. The reduction engine is
  // byte-deterministic across parallelism levels, so this never changes
  // store contents.
  int parallelism = 1;
  // Fault injection (see WalOptions::fail_after_bytes).
  int64_t fail_after_bytes = -1;
  Metrics* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

// Per-PUL result of a CommitBatch: the version the PUL produced, or
// why it was rejected (the batch skips it and moves on).
struct CommitOutcome {
  Status status;
  uint64_t version = 0;
};

// Timing/size decomposition of one CommitBatch call, captured only when
// the caller asks for it (the serving layer's per-request telemetry).
struct BatchCommitStats {
  double validate_seconds = 0.0;  // stage 1: checks (+ scratch applies)
  double fsync_seconds = 0.0;     // stage 2: the policy sync
  double apply_seconds = 0.0;     // stage 3: (apply of one +) install
  uint64_t wal_bytes = 0;         // journal size after the batch
};

// One journal frame, as reported by LogBranch().
struct LogEntry {
  FrameType type = FrameType::kPul;
  uint64_t version = 0;
  uint64_t aux = 0;  // kMerge: the local parent version
  uint64_t offset = 0;
  uint32_t payload_bytes = 0;
  // Operation count of the frame's payload (kMerge: total across its
  // chain). Filled only by LogBranch(..., with_op_counts=true); it
  // stays 0 otherwise — counting requires parsing every payload.
  uint64_t ops = 0;
};

// What Open() found and repaired.
struct OpenReport {
  WalRecovery wal;
  uint64_t head = 0;
  size_t snapshots = 0;
  // Checkpoint files not usable: torn files skipped by the scan, plus
  // checkpoints above the recovered head (a crash under fsync=batch/
  // never can leave these behind). Stale ones are deleted at Open so a
  // later commit past their version can never replay pre-crash bytes.
  size_t snapshots_ignored = 0;
  // Branch journals recovered.
  size_t branches = 0;
  // Tail merge frames truncated because their sync-commit record never
  // reached branches.log (a crash mid-sync; see CommitMerge).
  size_t merges_rolled_back = 0;
};

// Per-branch slice of a Verify() run.
struct BranchVerifyResult {
  std::string name;
  size_t frames = 0;       // journal frames (meta frame included)
  uint64_t head = 0;
  size_t replayed_versions = 0;
  size_t merges_checked = 0;  // merge frames whose parents + sync
                              // record were resolved
};

struct VerifyReport {
  size_t frames = 0;
  size_t snapshots = 0;
  uint64_t head = 0;
  // Versions re-materialized by forward replay during verification.
  size_t replayed_versions = 0;
  // Checkpoints whose bytes were matched against the replay.
  size_t snapshots_checked = 0;
  // Merge frames on the mainline whose parents + sync record resolved.
  size_t merges_checked = 0;
  // Every branch journal, in name order (empty when no branches exist).
  std::vector<BranchVerifyResult> branches;
};

// A branch as reported by GetBranch()/BranchNames(). For "main":
// parent is empty, fork is 0, policies default.
struct BranchInfo {
  std::string name;
  std::string parent;
  uint64_t fork = 0;
  pul::Policies policies;
  uint64_t head = 0;
};

// The merge base of a branch pair: a version on each side's chain at
// which the two materialize byte-identical documents (the fork point,
// or the pair's last committed sync).
struct SyncPoint {
  uint64_t base_a = 0;
  uint64_t base_b = 0;
};

// A fully-computed merge handed to CommitMerge: each side's chain,
// applied in order to that side's head, must land byte-exactly on one
// shared merged state (CommitMerge verifies this before any journal
// write). An empty chain means that side is already at the merged
// state and gets no frame — a fast-forward for the other side.
struct MergePlan {
  std::string branch_a;
  std::string branch_b;
  uint64_t base_a = 0;  // merge base on a's chain
  uint64_t base_b = 0;
  std::vector<pul::Pul> chain_a;
  std::vector<pul::Pul> chain_b;
};

struct MergeCommitResult {
  uint64_t head_a = 0;  // post-merge heads
  uint64_t head_b = 0;
  bool committed_a = false;  // a merge frame landed on that side
  bool committed_b = false;
};

class VersionStore {
 public:
  // Creates a store directory: parses `initial_xml` as version 0,
  // writes its checkpoint and an empty journal. Fails if a journal
  // already exists there.
  static Status Init(const std::string& dir, std::string_view initial_xml,
                     const StoreOptions& options = {});

  // Opens an existing store: recovers the journal tail, indexes frames
  // and checkpoints, and materializes the head document.
  static Result<VersionStore> Open(const std::string& dir,
                                   const StoreOptions& options = {},
                                   OpenReport* report = nullptr);

  VersionStore(VersionStore&&) noexcept = default;
  VersionStore& operator=(VersionStore&&) noexcept = default;

  // Commits one PUL as version head()+1: a group commit of one (see
  // CommitBatch). WAL-first: applicability, which predicts every error
  // of the apply, is checked on the head document, the frame is
  // appended and the fsync policy applied, and only then is the PUL
  // applied to the head document. A checkpoint is written when the
  // cadence triggers fire.
  Result<uint64_t> Commit(const pul::Pul& pul);

  // Group commit on the mainline: commits the PULs in order as
  // consecutive versions, appending every frame and then applying the
  // fsync policy once for the whole batch (the server's group-commit
  // path; under fsync=always a batch of N costs 1 fsync, not N; under
  // fsync=batch the batch syncs once `batch_interval` frames have
  // accumulated since the last sync). Each PUL is validated against the
  // state its predecessors in the batch produced, on a copy of the head
  // document when the batch holds more than one PUL; an inapplicable
  // PUL gets its failure recorded in `outcomes` and the batch continues
  // without it.
  // `outcomes` (parallel to `puls`) is always resized and filled, and
  // may be null when the caller only wants the count. An
  // append/fsync failure fails the whole call: the journal may hold a
  // torn tail, in-memory state is untouched, and every outcome is
  // overwritten with the I/O error. Returns the number of PULs
  // committed. `stats`, when non-null, receives the per-stage timing
  // decomposition (a null pointer costs nothing on the hot path).
  Result<size_t> CommitBatch(const std::vector<const pul::Pul*>& puls,
                             std::vector<CommitOutcome>* outcomes,
                             BatchCommitStats* stats = nullptr);

  // Materializes the document at version `v` by replaying the kPul and
  // kMerge frames forward from the nearest checkpoint at or below v.
  Result<xml::Document> Checkout(uint64_t v) const;

  // Id-annotated serialization of Checkout(v) — the store's canonical
  // byte representation of a version.
  Result<std::string> CheckoutXml(uint64_t v) const;

  // Rolls the store back to version `to` *by committing forward*: the
  // undo deltas head..to+1 (each from the ComputeUndo formula) are
  // folded into a single PUL (core::FoldVerified); if applying it
  // reproduces Checkout(to) exactly it is committed as one new version,
  // otherwise the per-version deltas — checked to land on Checkout(to)
  // first — are committed as a chain. The chain is needed when it
  // crosses a full merge frame (see Rollback in version.cc). Either way
  // history is preserved. Returns the new head.
  Result<uint64_t> Rollback(uint64_t to);

  // Full offline audit, journal by journal: structural re-scan (every
  // CRC), forward replay of every version to the resident head
  // document with every merge frame resolved, and — on the mainline —
  // byte-comparison against every checkpoint.
  Result<VerifyReport> Verify() const;

  // --- Branches (store/records.h; merge/rebase logic in src/branch/) ---
  //
  // A branch is a journal of its own (branch-<name>.log) whose version
  // space extends its parent's: it forks at version `fork` of the
  // parent, its first commit is fork + 1, and versions <= fork resolve
  // through the parent chain — which is how every branch shares the
  // mainline's snapshot checkpoints at its fork point. The mainline is
  // the root journal (fork 0, no parent) and is addressable as branch
  // "main" in every branch-taking method.
  //
  // Cross-journal merges are made crash-atomic by the sync protocol:
  // CommitMerge appends each side's kMerge frame (fsync'd regardless
  // of policy), then a SyncRecord to branches.log, then installs in
  // memory. Open() treats a journal's tail kMerge frame with no
  // SyncRecord as a torn sync and truncates it — both journals of the
  // torn sync roll back independently to their pre-merge heads, so
  // both parents of every surviving merge stay resolvable.

  // Creates branch `name` forking from `parent` (a branch or "main")
  // at `at` (<= the parent's head). Forces the parent journal durable
  // first so the fork point can never outlive its base in a crash.
  Status CreateBranch(const std::string& name, const std::string& parent,
                      uint64_t at, const pul::Policies& policies = {});

  // Branch names in sorted order, "main" excluded.
  std::vector<std::string> BranchNames() const;

  Result<BranchInfo> GetBranch(const std::string& name) const;

  // Commit/Checkout addressed to a branch ("main": the mainline, with
  // its own metrics). A commit is a group commit of one, as Commit;
  // only mainline commits write checkpoints (branches replay from the
  // fork point).
  Result<uint64_t> CommitOnBranch(const std::string& branch,
                                  const pul::Pul& pul);
  Result<xml::Document> CheckoutBranch(const std::string& branch,
                                       uint64_t v) const;
  Result<std::string> CheckoutXmlBranch(const std::string& branch,
                                        uint64_t v) const;

  // Branch head document (the mainline's for "main").
  Result<const xml::Document*> BranchHeadDoc(const std::string& branch) const;
  // The resident head document of `branch`'s journal when `v` is that
  // journal's head, else nullptr: version `v` without a checkout. The
  // pointer is valid until the next commit to that journal.
  Result<const xml::Document*> ResidentDocAt(const std::string& branch,
                                             uint64_t v) const;

  // Journal frames of a branch in file order (the branch's meta frame
  // included). With `with_op_counts` every payload is parsed and
  // LogEntry::ops filled.
  Result<std::vector<LogEntry>> LogBranch(const std::string& branch,
                                          bool with_op_counts) const;

  // The pair's merge base: their last committed sync still valid (no
  // later rebase of either side), else the fork point of their chains.
  Result<SyncPoint> MergeBase(const std::string& a,
                              const std::string& b) const;

  // The PULs whose in-order application takes the state at version
  // `from` of `branch`'s chain to the branch head: one per kPul frame
  // and a merge frame's full chain.
  Result<std::vector<pul::Pul>> SuffixPuls(const std::string& branch,
                                           uint64_t from) const;

  // SuffixPuls generalized to an explicit upper bound: the PULs taking
  // version `from` to version `to` of `branch`'s chain.
  Result<std::vector<pul::Pul>> RangePuls(const std::string& branch,
                                          uint64_t from, uint64_t to) const;

  // Undo PULs taking `base_doc` with `puls` applied in order back to
  // `base_doc`, in application order (the last PUL's undo first). One
  // forward pass from `base_doc`: each undo is the ComputeUndo formula
  // against the state its PUL was applied to. Pass a SuffixPuls or
  // RangePuls list, so a merge frame contributes one undo per chain
  // member.
  Result<std::vector<pul::Pul>> UndoChainFrom(
      const xml::Document& base_doc, const std::vector<pul::Pul>& puls) const;

  // Commits a computed merge under the sync protocol described above.
  Result<MergeCommitResult> CommitMerge(const MergePlan& plan);

  // Atomically replaces `name`'s journal with `commits` replayed on
  // fork point `new_fork` (rebase's installation step): a RebaseRecord
  // voiding the branch's old sync records is made durable first, then
  // the rewritten journal is renamed into place and the in-memory
  // state rebuilt. `head_doc` is the document those commits produce
  // (the caller built it by replaying them; Verify re-derives it from
  // the journal). A failure before the rename leaves the branch on its
  // old journal, still writable; a failed directory sync after it
  // leaves the branch on the rewritten one.
  Status RewriteBranch(const std::string& name, uint64_t new_fork,
                       const std::vector<pul::Pul>& commits,
                       xml::Document head_doc);

  uint64_t head() const { return main_.head; }

  // Journal size on disk — the serving layer exposes it as a gauge.
  uint64_t wal_bytes() const { return main_.wal.size_bytes(); }
  const xml::Document& head_doc() const { return main_.doc; }
  const std::string& dir() const { return dir_; }
  const SnapshotStore& snapshots() const { return snapshots_; }

  // Flushes and closes the journal handle.
  Status Close();

  // The id-annotated non-pretty form (the store's canonical bytes), in
  // which CheckoutXml and the CLI export a version. Checkpoints hold
  // the document image instead (store/snapshot.h).
  static Result<std::string> SerializeAnnotated(const xml::Document& doc);

  // The store's one undo formula, used for every PUL a rollback or
  // UndoChainFrom rewinds: deterministic reduction of `pul`, a drop of
  // the operations core::OverriddenOps flags against `pre` (labels
  // inside an aggregated PUL can be too stale for the label-based engine
  // to see every override; the pre-state document is ground truth and
  // overridden operations have no effect on Apply), then core/invert
  // against `pre`.
  static Result<pul::Pul> ComputeUndo(const xml::Document& pre,
                                      const pul::Pul& pul,
                                      const StoreOptions& options);

 private:
  VersionStore() = default;

  // One history of the store: the mainline (the root journal, wal.log:
  // no parent, fork 0, no meta frame) or a branch (branch-<name>.log,
  // which opens with its meta frame). frames[i] is the kPul or kMerge
  // frame producing version meta.fork + 1 + i — the index builder
  // enforces that versions are contiguous — and the frame's type tells
  // the two kinds apart.
  struct Journal {
    BranchMetaRecord meta;
    Wal wal;
    std::vector<WalFrameInfo> frames;
    xml::Document doc;  // at head
    uint64_t head = 0;  // == meta.fork when the journal has no commits
  };

  static WalOptions ToWalOptions(const StoreOptions& options);

  // The journal `name` maps to ("main": the root journal).
  Result<const Journal*> FindJournal(const std::string& name) const;
  Result<Journal*> FindJournal(const std::string& name);
  bool IsRoot(const Journal& journal) const { return &journal == &main_; }

  // Opens the journal file `path` as `name`'s journal: recovers its
  // torn tail, indexes it and checks its declared name, and only then
  // truncates torn syncs (RollBackTornSyncs), so a refused journal
  // keeps its bytes.
  Status OpenJournal(const std::string& path, const std::string& name,
                     Journal* journal, WalRecovery* recovery,
                     size_t* rolled_back);

  // Rebuilds `journal`'s frame list and head from its Wal's frame
  // directory. A branch journal must start with its meta frame
  // (decoded into meta); the root journal must hold none.
  Status BuildIndex(Journal* journal) const;

  // The PULs producing version `v` of `journal`, in application order:
  // a kPul frame's PUL or a kMerge frame's chain, whose record `merge`
  // receives when non-null. Every replay, collection and op count
  // reads frames through here.
  static Result<std::vector<pul::Pul>> ReadVersion(
      const Journal& journal, uint64_t v, MergeRecord* merge = nullptr);

  // The document at version `v` of `journal`'s chain: the root journal
  // replays from its nearest checkpoint at or below v (the only
  // materialization the store.checkout.* metrics count), a branch from
  // its parent's state at the fork point.
  Result<xml::Document> CheckoutJournal(const Journal& journal,
                                        uint64_t v) const;

  // Applies versions (from, to] of `journal` to `doc`.
  static Status ReplayForward(const Journal& journal, uint64_t from,
                              uint64_t to, xml::Document* doc);

  // The one commit step, behind Commit, CommitOnBranch (groups of one)
  // and CommitBatch: validates and serializes each PUL of the group,
  // appends every accepted frame to `journal`, applies the fsync policy
  // once (Wal::SyncGroup) and installs. The contract of `outcomes`,
  // `stats` and the return value is CommitBatch's; `outcomes` must be
  // non-null.
  Result<size_t> CommitGroup(Journal* journal,
                             const std::vector<const pul::Pul*>& puls,
                             std::vector<CommitOutcome>* outcomes,
                             BatchCommitStats* stats);

  // The install step of every commit and merge: indexes the last
  // `count` frames of `journal`'s Wal (already durable, their state
  // already in journal->doc), advances the head past them and, on the
  // mainline, writes a checkpoint if a trigger fired.
  void InstallFrames(Journal* journal, size_t count);

  // Writes a mainline checkpoint if a cadence trigger fired. The
  // versions it would cover are already durable, so a failure only
  // costs replay time on later checkouts: it is reported through
  // metrics and the trace, never as a failed commit, and the triggers
  // stay armed so the next commit retries.
  void MaybeCheckpoint();

  // Verify's pass over one journal: structural re-scan, forward replay
  // to the resident head document, merge-frame resolution. The root
  // journal replays from the version-0 checkpoint and byte-compares
  // every checkpoint on the way against the image of the replayed
  // document (counted in *snapshots_checked).
  Result<BranchVerifyResult> VerifyJournal(const Journal& journal,
                                           size_t* snapshots_checked) const;

  // --- Branch internals (store/branch.cc) ---

  // `parent`'s journal, checked to reach version `fork` — the fork
  // point of a new, rewritten or reopened branch.
  Result<Journal*> ForkParent(const std::string& parent, uint64_t fork);

  // Truncates unnamed tail kMerge frames of `name`'s journal (the
  // torn-sync recovery rule); reopens the journal in place. Increments
  // *rolled_back per frame dropped.
  Status RollBackTornSyncs(Wal* wal, const std::string& name,
                           size_t* rolled_back);

  // Loads branches.log + every branch-*.log (called from Open).
  Status OpenBranches(OpenReport* report);

  // True iff a committed sync record names (branch, version) on a
  // flagged side.
  bool SyncRecordNames(const std::string& branch, uint64_t version) const;

  // Checks a merge frame's parents are resolvable and its sync record
  // exists.
  Status VerifyMergeFrame(const std::string& branch, uint64_t version,
                          uint64_t local_parent,
                          const MergeRecord& record) const;

  // Appends one record frame to branches.log, creating it on first
  // use, and mirrors it into branch_log_records_. Always fsync'd.
  Status AppendBranchLogRecord(const std::string& payload);

  // Collects the forward PULs for versions (from, to] of `journal`'s
  // chain (recursing into the parent below the fork point).
  Status CollectPuls(const Journal& journal, uint64_t from, uint64_t to,
                     std::vector<pul::Pul>* out) const;

  // Lineage of a branch up to the mainline: [(name, head-or-fork
  // bound), ...] — helper for MergeBase's fork-point fallback.
  Result<std::vector<std::pair<std::string, uint64_t>>> Lineage(
      const std::string& branch) const;

  std::string BranchJournalPath(const std::string& name) const;

  static constexpr char kJournalName[] = "wal.log";
  static constexpr char kBranchLogName[] = "branches.log";

  std::string dir_;
  StoreOptions options_;
  SnapshotStore snapshots_;
  Journal main_;  // the mainline, the root journal
  std::map<std::string, Journal> branches_;  // by name; no "main"
  Wal branch_log_;  // branches.log, once opened or created
  bool has_branch_log_ = false;  // branches.log's directory entry is durable
  std::vector<BranchLogRecord> branch_log_records_;  // in file order

  uint64_t last_checkpoint_version_ = 0;
  uint64_t wal_bytes_at_checkpoint_ = 0;
};

}  // namespace xupdate::store

#endif  // XUPDATE_STORE_VERSION_H_
