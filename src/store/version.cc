#include "store/version.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/fold.h"
#include "core/invert.h"
#include "core/reduce.h"
#include "pul/apply.h"
#include "pul/pul_io.h"
#include "xml/document_image.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xupdate::store {

Result<std::string> VersionStore::SerializeAnnotated(
    const xml::Document& doc) {
  xml::SerializeOptions options;
  options.with_ids = true;
  return xml::SerializeDocument(doc, options);
}

WalOptions VersionStore::ToWalOptions(const StoreOptions& options) {
  WalOptions wal;
  wal.fsync = options.fsync;
  wal.batch_interval = options.batch_interval;
  wal.fail_after_bytes = options.fail_after_bytes;
  wal.metrics = options.metrics;
  return wal;
}

Status VersionStore::Init(const std::string& dir,
                          std::string_view initial_xml,
                          const StoreOptions& options) {
  XUPDATE_RETURN_IF_ERROR(EnsureDirectory(dir));
  std::string journal = dir + "/" + kJournalName;
  if (PathExists(journal)) {
    return Status::InvalidArgument("store already initialized: " + dir);
  }
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc,
                           xml::ParseDocument(initial_xml));
  XUPDATE_ASSIGN_OR_RETURN(SnapshotStore snapshots,
                           SnapshotStore::Open(dir, options.metrics));
  XUPDATE_RETURN_IF_ERROR(snapshots.Write(0, doc));
  XUPDATE_ASSIGN_OR_RETURN(Wal wal,
                           Wal::Create(journal, ToWalOptions(options)));
  return wal.Close();
}

Result<VersionStore> VersionStore::Open(const std::string& dir,
                                        const StoreOptions& options,
                                        OpenReport* report) {
  ScopedTimer timer(options.metrics, "store.open.seconds");
  VersionStore store;
  store.dir_ = dir;
  store.options_ = options;
  // branches.log first: its sync records decide whether a tail merge
  // frame of any journal (the mainline's included) is effective.
  std::string branch_log_path = dir + "/" + kBranchLogName;
  if (PathExists(branch_log_path)) {
    XUPDATE_ASSIGN_OR_RETURN(
        store.branch_log_,
        Wal::Open(branch_log_path, ToWalOptions(options)));
    store.has_branch_log_ = true;
    for (const WalFrameInfo& info : store.branch_log_.frames()) {
      if (info.type != FrameType::kBranchMeta) {
        return Status::ParseError(
            "branches.log holds a non-metadata frame at offset " +
            std::to_string(info.offset));
      }
      XUPDATE_ASSIGN_OR_RETURN(WalFrame frame,
                               store.branch_log_.ReadFrame(info));
      XUPDATE_ASSIGN_OR_RETURN(BranchLogRecord record,
                               DecodeBranchLogRecord(frame.payload));
      store.branch_log_records_.push_back(std::move(record));
    }
  }
  WalRecovery recovery;
  size_t merges_rolled_back = 0;
  store.main_.meta.name = "main";
  XUPDATE_RETURN_IF_ERROR(store.OpenJournal(dir + "/" + kJournalName,
                                            store.main_.meta.name,
                                            &store.main_, &recovery,
                                            &merges_rolled_back));
  XUPDATE_ASSIGN_OR_RETURN(store.snapshots_,
                           SnapshotStore::Open(dir, options.metrics));
  // Checkpoints above the recovered head outlived a journal tail lost
  // in a crash (possible under fsync=batch/never). Delete them — kept
  // around, a later commit past their version would make
  // NearestAtOrBelow hand Checkout pre-crash bytes as a replay base.
  XUPDATE_ASSIGN_OR_RETURN(size_t stale_snapshots,
                           store.snapshots_.RemoveAbove(store.main_.head));
  XUPDATE_ASSIGN_OR_RETURN(store.main_.doc,
                           store.CheckoutJournal(store.main_,
                                                 store.main_.head));
  uint64_t nearest = 0;
  if (!store.snapshots_.NearestAtOrBelow(store.main_.head, &nearest)) {
    return Status::ParseError("store has no base checkpoint: " + dir);
  }
  store.last_checkpoint_version_ = nearest;
  store.wal_bytes_at_checkpoint_ = store.main_.wal.size_bytes();
  OpenReport branch_report;
  XUPDATE_RETURN_IF_ERROR(store.OpenBranches(&branch_report));
  if (report != nullptr) {
    report->wal = recovery;
    report->head = store.main_.head;
    report->snapshots = store.snapshots_.versions().size();
    report->snapshots_ignored =
        store.snapshots_.skipped_files() + stale_snapshots;
    report->branches = branch_report.branches;
    report->merges_rolled_back =
        merges_rolled_back + branch_report.merges_rolled_back;
  }
  if (options.tracer != nullptr) {
    obs::TraceLane lane =
        options.tracer->Lane(options.tracer->NextPhase(), 0, "store");
    lane.Emit(obs::EventKind::kNote, "open", {}, "",
              "head=" + std::to_string(store.main_.head) +
                  " frames=" + std::to_string(recovery.frames) +
                  " truncated_bytes=" +
                  std::to_string(recovery.truncated_bytes) +
                  " snapshots=" +
                  std::to_string(store.snapshots_.versions().size()));
  }
  return store;
}

// --- Journals -------------------------------------------------------------

Result<const VersionStore::Journal*> VersionStore::FindJournal(
    const std::string& name) const {
  if (name == main_.meta.name) return &main_;
  auto it = branches_.find(name);
  if (it == branches_.end()) {
    return Status::NotFound("branch not found: " + name);
  }
  return &it->second;
}

Result<VersionStore::Journal*> VersionStore::FindJournal(
    const std::string& name) {
  XUPDATE_ASSIGN_OR_RETURN(
      const Journal* journal,
      static_cast<const VersionStore*>(this)->FindJournal(name));
  return const_cast<Journal*>(journal);
}

Status VersionStore::OpenJournal(const std::string& path,
                                 const std::string& name, Journal* journal,
                                 WalRecovery* recovery,
                                 size_t* rolled_back) {
  XUPDATE_ASSIGN_OR_RETURN(journal->wal,
                           Wal::Open(path, ToWalOptions(options_), recovery));
  // Index and name-check before truncating anything: a journal Open
  // refuses must keep its bytes.
  XUPDATE_RETURN_IF_ERROR(BuildIndex(journal));
  if (journal->meta.name != name) {
    return Status::ParseError("journal " + path + " declares name \"" +
                              journal->meta.name + "\"");
  }
  size_t dropped = 0;
  XUPDATE_RETURN_IF_ERROR(RollBackTornSyncs(&journal->wal, name, &dropped));
  *rolled_back += dropped;
  if (dropped > 0) XUPDATE_RETURN_IF_ERROR(BuildIndex(journal));
  return Status::OK();
}

Status VersionStore::BuildIndex(Journal* journal) const {
  const std::vector<WalFrameInfo>& frames = journal->wal.frames();
  const std::string& path = journal->wal.path();
  size_t first = 0;
  if (!IsRoot(*journal)) {
    if (frames.empty() || frames[0].type != FrameType::kBranchMeta) {
      return Status::ParseError("branch journal " + path +
                                " does not start with a metadata frame");
    }
    XUPDATE_ASSIGN_OR_RETURN(WalFrame meta_frame,
                             journal->wal.ReadFrame(frames[0]));
    XUPDATE_ASSIGN_OR_RETURN(journal->meta,
                             DecodeBranchMeta(meta_frame.payload));
    first = 1;
  }
  journal->frames.clear();
  uint64_t cur = journal->meta.fork;
  for (size_t i = first; i < frames.size(); ++i) {
    const WalFrameInfo& info = frames[i];
    if (info.type != FrameType::kPul && info.type != FrameType::kMerge) {
      // Wal::Open already refuses unknown type bytes; a snapshot or
      // metadata frame here is a known type in the wrong file.
      return Status::ParseError(
          "journal " + path + " holds an unexpected frame type " +
          std::to_string(static_cast<int>(info.type)) + " at offset " +
          std::to_string(info.offset));
    }
    if (info.version != cur + 1 ||
        (info.type == FrameType::kMerge && info.aux != cur)) {
      return Status::ParseError(
          "journal " + path + " gap: frame for version " +
          std::to_string(info.version) + " (aux " + std::to_string(info.aux) +
          ") after version " + std::to_string(cur));
    }
    journal->frames.push_back(info);
    cur = info.version;
  }
  journal->head = cur;
  return Status::OK();
}

Result<std::vector<pul::Pul>> VersionStore::ReadVersion(
    const Journal& journal, uint64_t v, MergeRecord* merge) {
  if (v <= journal.meta.fork || v - journal.meta.fork > journal.frames.size()) {
    return Status::Internal("journal " + journal.wal.path() +
                            " has no frame for version " + std::to_string(v));
  }
  const WalFrameInfo& info = journal.frames[v - journal.meta.fork - 1];
  XUPDATE_ASSIGN_OR_RETURN(WalFrame frame, journal.wal.ReadFrame(info));
  std::vector<pul::Pul> puls;
  if (info.type == FrameType::kPul) {
    XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(frame.payload));
    puls.push_back(std::move(pul));
    return puls;
  }
  // A merge commit replays as its chain: the undo PULs down to the
  // merge base, then the reconciled merge PUL (store/records.h).
  XUPDATE_ASSIGN_OR_RETURN(MergeRecord record,
                           DecodeMergeRecord(frame.payload));
  puls.reserve(record.chain.size());
  for (const std::string& text : record.chain) {
    XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(text));
    puls.push_back(std::move(pul));
  }
  if (merge != nullptr) *merge = std::move(record);
  return puls;
}

Status VersionStore::ReplayForward(const Journal& journal, uint64_t from,
                                   uint64_t to, xml::Document* doc) {
  for (uint64_t v = from + 1; v <= to; ++v) {
    XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> puls,
                             ReadVersion(journal, v));
    for (const pul::Pul& pul : puls) {
      XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(doc, pul));
    }
  }
  return Status::OK();
}

Result<xml::Document> VersionStore::CheckoutJournal(const Journal& journal,
                                                    uint64_t v) const {
  if (v > journal.head) {
    return Status::InvalidArgument(
        "version " + std::to_string(v) + " beyond head " +
        std::to_string(journal.head) +
        (IsRoot(journal) ? "" : " of branch " + journal.meta.name));
  }
  if (!IsRoot(journal)) {
    // Versions at or below the fork live on the parent chain — this is
    // where a branch borrows the mainline's snapshot checkpoints.
    XUPDATE_ASSIGN_OR_RETURN(const Journal* parent,
                             FindJournal(journal.meta.parent));
    if (v <= journal.meta.fork) return CheckoutJournal(*parent, v);
    XUPDATE_ASSIGN_OR_RETURN(xml::Document doc,
                             CheckoutJournal(*parent, journal.meta.fork));
    XUPDATE_RETURN_IF_ERROR(
        ReplayForward(journal, journal.meta.fork, v, &doc));
    return doc;
  }
  ScopedTimer timer(options_.metrics, "store.checkout.seconds");
  uint64_t base = 0;
  if (!snapshots_.NearestAtOrBelow(v, &base)) {
    return Status::ParseError("no checkpoint at or below version " +
                              std::to_string(v));
  }
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc, snapshots_.Load(base));
  XUPDATE_RETURN_IF_ERROR(ReplayForward(journal, base, v, &doc));
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("store.checkout.count");
    options_.metrics->AddCounter("store.checkout.replayed_frames",
                                 v - base);
  }
  return doc;
}

Result<xml::Document> VersionStore::Checkout(uint64_t v) const {
  return CheckoutJournal(main_, v);
}

Result<std::string> VersionStore::CheckoutXml(uint64_t v) const {
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc, Checkout(v));
  return SerializeAnnotated(doc);
}

// --- Commit ---------------------------------------------------------------

Result<uint64_t> VersionStore::Commit(const pul::Pul& pul) {
  return CommitOnBranch(main_.meta.name, pul);
}

Result<uint64_t> VersionStore::CommitOnBranch(const std::string& branch,
                                              const pul::Pul& pul) {
  XUPDATE_ASSIGN_OR_RETURN(Journal* journal, FindJournal(branch));
  ScopedTimer timer(options_.metrics, IsRoot(*journal)
                                          ? "store.commit.seconds"
                                          : "store.branch.commit.seconds");
  std::vector<CommitOutcome> outcomes;
  XUPDATE_RETURN_IF_ERROR(
      CommitGroup(journal, {&pul}, &outcomes, nullptr).status());
  XUPDATE_RETURN_IF_ERROR(outcomes[0].status);
  return outcomes[0].version;
}

Result<size_t> VersionStore::CommitBatch(
    const std::vector<const pul::Pul*>& puls,
    std::vector<CommitOutcome>* outcomes, BatchCommitStats* stats) {
  ScopedTimer timer(options_.metrics, "store.commit_batch.seconds");
  std::vector<CommitOutcome> local_outcomes;  // caller passed nullptr
  if (outcomes == nullptr) outcomes = &local_outcomes;
  XUPDATE_ASSIGN_OR_RETURN(size_t committed,
                           CommitGroup(&main_, puls, outcomes, stats));
  if (options_.metrics != nullptr && committed > 0) {
    options_.metrics->AddCounter("store.commit_batch.count");
    options_.metrics->AddCounter("store.commit_batch.committed", committed);
  }
  return committed;
}

Result<size_t> VersionStore::CommitGroup(
    Journal* journal, const std::vector<const pul::Pul*>& puls,
    std::vector<CommitOutcome>* outcomes, BatchCommitStats* stats) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point stage_start;
  if (stats != nullptr) stage_start = Clock::now();
  auto stage_seconds = [&stage_start] {
    Clock::time_point now = Clock::now();
    double elapsed =
        std::chrono::duration<double>(now - stage_start).count();
    stage_start = now;
    return elapsed;
  };
  outcomes->assign(puls.size(), CommitOutcome{});
  // A failure from the first append on fails the whole group: the
  // journal may end in torn, unsynced or unapplied frames and the
  // in-memory head is untouched, so no outcome can claim success
  // (recovery keeps or drops the frames by what reached disk).
  auto fail = [outcomes](const Status& status) {
    for (CommitOutcome& out : *outcomes) out.status = status;
    return status;
  };
  // Stage 1: validate each PUL against the state its accepted
  // predecessors produce, and serialize it. Only when a later PUL has
  // to be validated against an earlier one is the head copied, and the
  // accepted PULs applied to the copy; a group of one is checked on the
  // resident head and applied to it once its frame is durable, which is
  // sound because CheckPulApplicable predicts every error of the apply.
  // Nothing durable or visible happens before the whole group is on
  // disk.
  const bool staged = puls.size() > 1;
  xml::Document scratch;
  if (staged) scratch = journal->doc;
  const xml::Document& state = staged ? scratch : journal->doc;
  std::vector<std::pair<size_t, WalFrame>> accepted;  // index into puls
  accepted.reserve(puls.size());
  for (size_t i = 0; i < puls.size(); ++i) {
    CommitOutcome& out = (*outcomes)[i];
    if (puls[i] == nullptr) {
      out.status = Status::InvalidArgument("null PUL in batch");
      continue;
    }
    out.status = pul::CheckPulApplicable(state, *puls[i]);
    if (staged && out.status.ok()) {
      out.status = pul::ApplyPul(&scratch, *puls[i]);
    }
    if (!out.status.ok()) continue;
    Result<std::string> payload = pul::SerializePul(*puls[i]);
    if (!payload.ok()) {
      // A scratch state already includes this PUL, so later PULs would
      // be validated against state that cannot be journaled. Abort;
      // nothing has touched disk yet.
      return payload.status();
    }
    WalFrame frame;
    frame.type = FrameType::kPul;
    frame.version = journal->head + accepted.size() + 1;
    frame.payload = std::move(*payload);
    accepted.emplace_back(i, std::move(frame));
  }
  if (stats != nullptr) stats->validate_seconds = stage_seconds();
  // Stage 2: WAL-first. Every frame is appended, then the fsync policy
  // is applied once for the whole group.
  for (const auto& [index, frame] : accepted) {
    Status appended = journal->wal.Append(frame);
    if (!appended.ok()) return fail(appended);
  }
  if (stats != nullptr) stage_start = Clock::now();
  Status synced = journal->wal.SyncGroup();
  if (!synced.ok()) return fail(synced);
  if (stats != nullptr) stats->fsync_seconds = stage_seconds();
  // Stage 3: install the durable frames.
  if (!accepted.empty()) {
    if (staged) {
      journal->doc = std::move(scratch);
    } else {
      Status applied = pul::ApplyPul(&journal->doc, *puls[accepted[0].first]);
      if (!applied.ok()) return fail(applied);
    }
    for (const auto& [index, frame] : accepted) {
      (*outcomes)[index] = CommitOutcome{Status::OK(), frame.version};
    }
    if (options_.metrics != nullptr) {
      options_.metrics->AddCounter(IsRoot(*journal)
                                       ? "store.commit.count"
                                       : "store.branch.commit.count",
                                   accepted.size());
    }
    InstallFrames(journal, accepted.size());
  }
  if (stats != nullptr) {
    stats->apply_seconds = stage_seconds();
    stats->wal_bytes = journal->wal.size_bytes();
  }
  return accepted.size();
}

void VersionStore::InstallFrames(Journal* journal, size_t count) {
  const std::vector<WalFrameInfo>& frames = journal->wal.frames();
  journal->frames.insert(journal->frames.end(), frames.end() - count,
                         frames.end());
  journal->head += count;
  if (IsRoot(*journal)) MaybeCheckpoint();
}

void VersionStore::MaybeCheckpoint() {
  bool version_trigger =
      options_.snapshot_every > 0 &&
      main_.head - last_checkpoint_version_ >= options_.snapshot_every;
  bool byte_trigger =
      options_.snapshot_bytes > 0 &&
      main_.wal.size_bytes() - wal_bytes_at_checkpoint_ >=
          options_.snapshot_bytes;
  if (!version_trigger && !byte_trigger) return;
  Status written = snapshots_.Write(main_.head, main_.doc);
  if (!written.ok()) {
    if (options_.metrics != nullptr) {
      options_.metrics->AddCounter("store.checkpoint.failures");
    }
    if (options_.tracer != nullptr) {
      obs::TraceLane lane =
          options_.tracer->Lane(options_.tracer->NextPhase(), 0, "store");
      lane.Emit(obs::EventKind::kNote, "checkpoint-failed", {}, "",
                "version=" + std::to_string(main_.head) + " " +
                    written.message());
    }
    return;
  }
  last_checkpoint_version_ = main_.head;
  wal_bytes_at_checkpoint_ = main_.wal.size_bytes();
  if (options_.tracer != nullptr) {
    obs::TraceLane lane =
        options_.tracer->Lane(options_.tracer->NextPhase(), 0, "store");
    lane.Emit(obs::EventKind::kNote, "checkpoint", {}, "",
              "version=" + std::to_string(main_.head) + " trigger=" +
                  (version_trigger ? "versions" : "bytes"));
  }
}

Result<pul::Pul> VersionStore::ComputeUndo(const xml::Document& pre,
                                           const pul::Pul& pul,
                                           const StoreOptions& options) {
  core::ReduceOptions reduce_options;
  reduce_options.mode = core::ReduceMode::kDeterministic;
  reduce_options.parallelism = options.parallelism;
  reduce_options.metrics = options.metrics;
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul reduced,
                           core::Reduce(pul, reduce_options));
  std::vector<bool> overridden = core::OverriddenOps(pre, reduced);
  if (std::find(overridden.begin(), overridden.end(), true) ==
      overridden.end()) {
    return core::Invert(pre, reduced);
  }
  // Overridden operations have no effect on Apply, so the PUL without
  // them is Apply-equivalent and meets Invert's precondition.
  pul::Pul filtered;
  filtered.set_policies(reduced.policies());
  for (size_t i = 0; i < reduced.ops().size(); ++i) {
    if (overridden[i]) continue;
    pul::UpdateOp op = reduced.ops()[i];
    for (xml::NodeId& root : op.param_trees) {
      XUPDATE_ASSIGN_OR_RETURN(
          root, filtered.forest().AdoptSubtree(reduced.forest(), root,
                                               /*preserve_ids=*/true));
    }
    XUPDATE_RETURN_IF_ERROR(filtered.AddOp(std::move(op)));
  }
  return core::Invert(pre, filtered);
}

Result<uint64_t> VersionStore::Rollback(uint64_t to) {
  if (to >= main_.head) {
    return Status::InvalidArgument(
        "rollback target " + std::to_string(to) +
        " is not below head " + std::to_string(main_.head));
  }
  ScopedTimer timer(options_.metrics, "store.rollback.seconds");
  XUPDATE_ASSIGN_OR_RETURN(xml::Document target, Checkout(to));
  // A merge version contributes one undo per chain member, so the
  // chain may be longer than head - to.
  std::vector<pul::Pul> puls;
  XUPDATE_RETURN_IF_ERROR(CollectPuls(main_, to, main_.head, &puls));
  XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> undos,
                           UndoChainFrom(target, puls));
  // Prefer one verified fold of the chain as a single commit.
  if (undos.size() > 1) {
    core::FoldOptions fold_options;
    fold_options.parallelism = options_.parallelism;
    fold_options.metrics = options_.metrics;
    fold_options.tracer = options_.tracer;
    Result<pul::Pul> folded =
        core::FoldVerified(undos, main_.doc, target, fold_options);
    if (folded.ok()) {
      XUPDATE_ASSIGN_OR_RETURN(uint64_t version, Commit(*folded));
      if (options_.metrics != nullptr) {
        options_.metrics->AddCounter("store.rollback.count");
      }
      return version;
    }
    // A chain that crosses a merge frame deletes and re-creates node
    // ids (the frame's undo of its own side, then the merge PUL
    // re-inserting the same nodes); no single PUL restores those ids,
    // and a diff delta would re-create them under fresh ones. The chain
    // itself restores them, one commit per undo.
    if (options_.metrics != nullptr) {
      options_.metrics->AddCounter("store.rollback.chain_fallback");
    }
  }
  // The chain is the ground truth: applying it must land on the target
  // exactly before anything is committed.
  {
    xml::Document scratch = main_.doc;
    for (const pul::Pul& undo : undos) {
      XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&scratch, undo));
    }
    XUPDATE_ASSIGN_OR_RETURN(bool same,
                             xml::Document::SameAnnotated(scratch, target));
    if (!same) {
      return Status::Internal(
          "rollback chain does not reproduce version " +
          std::to_string(to));
    }
  }
  uint64_t version = main_.head;
  for (const pul::Pul& undo : undos) {
    XUPDATE_ASSIGN_OR_RETURN(version, Commit(undo));
  }
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("store.rollback.count");
  }
  return version;
}

Result<VerifyReport> VersionStore::Verify() const {
  ScopedTimer timer(options_.metrics, "store.verify.seconds");
  VerifyReport report;
  report.snapshots = snapshots_.versions().size();
  XUPDATE_ASSIGN_OR_RETURN(BranchVerifyResult mainline,
                           VerifyJournal(main_, &report.snapshots_checked));
  report.frames = mainline.frames;
  report.head = mainline.head;
  report.replayed_versions = mainline.replayed_versions;
  report.merges_checked = mainline.merges_checked;
  for (const auto& [name, branch] : branches_) {
    XUPDATE_ASSIGN_OR_RETURN(BranchVerifyResult result,
                             VerifyJournal(branch, nullptr));
    report.branches.push_back(std::move(result));
  }
  return report;
}

Result<BranchVerifyResult> VersionStore::VerifyJournal(
    const Journal& journal, size_t* snapshots_checked) const {
  const std::string& path = journal.wal.path();
  BranchVerifyResult result;
  result.name = journal.meta.name;
  result.head = journal.head;
  // Structural re-scan: every byte of the journal must decode into
  // CRC-clean frames with no trailing garbage.
  XUPDATE_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  if (data.size() < Wal::kMagicSize ||
      data.compare(0, Wal::kMagicSize, Wal::kMagic, Wal::kMagicSize) != 0) {
    return Status::ParseError("bad journal magic in " + path);
  }
  size_t offset = Wal::kMagicSize;
  while (offset < data.size()) {
    XUPDATE_RETURN_IF_ERROR(Wal::DecodeFrameView(data, &offset).status());
    ++result.frames;
  }
  if (result.frames != journal.wal.frames().size()) {
    return Status::ParseError("journal " + path +
                              " frame directory out of sync");
  }
  // Forward replay from the journal's base: the version-0 checkpoint
  // for the mainline, the parent's fork state for a branch.
  const bool root = IsRoot(journal);
  xml::Document doc;
  if (root) {
    XUPDATE_ASSIGN_OR_RETURN(doc, snapshots_.Load(0));
    ++*snapshots_checked;
  } else {
    XUPDATE_ASSIGN_OR_RETURN(const Journal* parent,
                             FindJournal(journal.meta.parent));
    XUPDATE_ASSIGN_OR_RETURN(doc, CheckoutJournal(*parent, journal.meta.fork));
  }
  for (uint64_t v = journal.meta.fork + 1; v <= journal.head; ++v) {
    MergeRecord record;
    XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> puls,
                             ReadVersion(journal, v, &record));
    for (const pul::Pul& pul : puls) {
      XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&doc, pul));
    }
    ++result.replayed_versions;
    const WalFrameInfo& info = journal.frames[v - journal.meta.fork - 1];
    if (info.type == FrameType::kMerge) {
      // Both parents must stay resolvable, and the sync record that
      // made this merge effective must exist.
      XUPDATE_RETURN_IF_ERROR(
          VerifyMergeFrame(journal.meta.name, v, info.aux, record));
      ++result.merges_checked;
    }
    // Branch versions share numbers with mainline checkpoints, so only
    // the mainline replay is compared against them.
    if (root && snapshots_.Has(v)) {
      XUPDATE_ASSIGN_OR_RETURN(std::string expect, snapshots_.Read(v));
      std::string got;
      XUPDATE_RETURN_IF_ERROR(xml::EncodeImage(doc, &got));
      if (got != expect) {
        return Status::ParseError(
            "checkpoint for version " + std::to_string(v) +
            " does not match replay");
      }
      ++*snapshots_checked;
    }
  }
  XUPDATE_ASSIGN_OR_RETURN(bool same,
                           xml::Document::SameAnnotated(doc, journal.doc));
  if (!same) {
    return Status::ParseError("branch " + journal.meta.name +
                              " replay diverges from its head document");
  }
  return result;
}

Status VersionStore::Close() {
  Status status = main_.wal.Close();
  for (auto& [name, branch] : branches_) {
    Status closed = branch.wal.Close();
    if (status.ok() && !closed.ok()) status = closed;
  }
  Status closed = branch_log_.Close();
  if (status.ok() && !closed.ok()) status = closed;
  return status;
}

}  // namespace xupdate::store
