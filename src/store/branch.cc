// Branch subsystem of the versioned store: named branch journals, the
// cross-journal merge-commit (sync) protocol, crash recovery of torn
// syncs, and the suffix/undo-chain extraction the merge and rebase
// engines (src/branch/) are built on. A branch is a journal like the
// mainline (version.cc); what is here is what a fork adds: a parent, a
// meta frame and the records of branches.log. See version.h "Branches"
// and records.h for the on-disk formats.

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "pul/apply.h"
#include "pul/pul_io.h"
#include "store/version.h"

namespace xupdate::store {

namespace {

constexpr char kBranchJournalPrefix[] = "branch-";
constexpr char kBranchJournalSuffix[] = ".log";

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

// Truncates `wal` (closing, cutting, dir-syncing, reopening in place)
// back to `size` bytes.
Status TruncateWalTo(Wal* wal, uint64_t size, const WalOptions& options) {
  std::string path = wal->path();
  XUPDATE_RETURN_IF_ERROR(wal->Close());
  XUPDATE_RETURN_IF_ERROR(TruncateFile(path, size));
  XUPDATE_RETURN_IF_ERROR(SyncDirectory(DirOf(path)));
  XUPDATE_ASSIGN_OR_RETURN(*wal, Wal::Open(path, options));
  return Status::OK();
}

}  // namespace

std::string VersionStore::BranchJournalPath(const std::string& name) const {
  return dir_ + "/" + kBranchJournalPrefix + name + kBranchJournalSuffix;
}

// --- Creation / lookup ----------------------------------------------------

Result<VersionStore::Journal*> VersionStore::ForkParent(
    const std::string& parent, uint64_t fork) {
  XUPDATE_ASSIGN_OR_RETURN(Journal* journal, FindJournal(parent));
  if (fork > journal->head) {
    return Status::InvalidArgument(
        "fork version " + std::to_string(fork) + " beyond head " +
        std::to_string(journal->head) + " of branch " + parent);
  }
  return journal;
}

Status VersionStore::CreateBranch(const std::string& name,
                                  const std::string& parent, uint64_t at,
                                  const pul::Policies& policies) {
  XUPDATE_RETURN_IF_ERROR(ValidateBranchName(name));
  if (branches_.count(name) != 0) {
    return Status::InvalidArgument("branch already exists: " + name);
  }
  std::string path = BranchJournalPath(name);
  if (PathExists(path)) {
    return Status::InvalidArgument("branch journal already exists: " + path);
  }
  XUPDATE_ASSIGN_OR_RETURN(Journal* parent_journal, ForkParent(parent, at));
  // The fork point must not outlive its base in a crash: force the
  // parent journal durable before the branch journal names it.
  XUPDATE_RETURN_IF_ERROR(parent_journal->wal.Sync());
  Journal branch;
  branch.meta.name = name;
  branch.meta.parent = parent;
  branch.meta.fork = at;
  branch.meta.policies = policies;
  // Fork document before the journal: once the journal is durable the
  // branch materializes at the next Open, so every fallible step must
  // precede it (a failure here leaves nothing behind to clean up).
  XUPDATE_ASSIGN_OR_RETURN(branch.doc, CheckoutJournal(*parent_journal, at));
  XUPDATE_ASSIGN_OR_RETURN(branch.wal,
                           Wal::Create(path, ToWalOptions(options_)));
  WalFrame meta_frame;
  meta_frame.type = FrameType::kBranchMeta;
  meta_frame.payload = EncodeBranchMeta(branch.meta);
  Status written = branch.wal.Append(meta_frame);
  if (written.ok()) written = branch.wal.Sync();
  if (written.ok()) written = SyncDirectory(dir_);
  if (!written.ok()) {
    // A half-written journal would fail in-session retries with
    // "already exists" and materialize the branch at the next Open.
    (void)branch.wal.Close();
    (void)RemoveFile(path);
    (void)SyncDirectory(dir_);
    return written;
  }
  branch.head = at;
  branches_.emplace(name, std::move(branch));
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("store.branch.create.count");
  }
  return Status::OK();
}

std::vector<std::string> VersionStore::BranchNames() const {
  std::vector<std::string> names;
  names.reserve(branches_.size());
  for (const auto& [name, branch] : branches_) names.push_back(name);
  return names;  // std::map keeps them sorted
}

Result<BranchInfo> VersionStore::GetBranch(const std::string& name) const {
  XUPDATE_ASSIGN_OR_RETURN(const Journal* journal, FindJournal(name));
  BranchInfo info;
  info.name = journal->meta.name;
  info.parent = journal->meta.parent;
  info.fork = journal->meta.fork;
  info.policies = journal->meta.policies;
  info.head = journal->head;
  return info;
}

Result<const xml::Document*> VersionStore::BranchHeadDoc(
    const std::string& branch) const {
  XUPDATE_ASSIGN_OR_RETURN(const Journal* journal, FindJournal(branch));
  return &journal->doc;
}

Result<const xml::Document*> VersionStore::ResidentDocAt(
    const std::string& branch, uint64_t v) const {
  XUPDATE_ASSIGN_OR_RETURN(const Journal* journal, FindJournal(branch));
  return v == journal->head ? &journal->doc : nullptr;
}

// --- Checkout -------------------------------------------------------------

Result<xml::Document> VersionStore::CheckoutBranch(const std::string& branch,
                                                   uint64_t v) const {
  XUPDATE_ASSIGN_OR_RETURN(const Journal* journal, FindJournal(branch));
  return CheckoutJournal(*journal, v);
}

Result<std::string> VersionStore::CheckoutXmlBranch(const std::string& branch,
                                                    uint64_t v) const {
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc, CheckoutBranch(branch, v));
  return SerializeAnnotated(doc);
}

// --- Log ------------------------------------------------------------------

Result<std::vector<LogEntry>> VersionStore::LogBranch(
    const std::string& branch, bool with_op_counts) const {
  XUPDATE_ASSIGN_OR_RETURN(const Journal* journal, FindJournal(branch));
  std::vector<LogEntry> entries;
  entries.reserve(journal->wal.frames().size());
  for (const WalFrameInfo& info : journal->wal.frames()) {
    LogEntry entry;
    entry.type = info.type;
    entry.version = info.version;
    entry.aux = info.aux;
    entry.offset = info.offset;
    entry.payload_bytes = info.payload_bytes;
    // A branch's meta frame carries no operations.
    if (with_op_counts && info.type != FrameType::kBranchMeta) {
      XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> puls,
                               ReadVersion(*journal, info.version));
      for (const pul::Pul& pul : puls) entry.ops += pul.size();
    }
    entries.push_back(entry);
  }
  return entries;
}

// --- Merge base / lineage -------------------------------------------------

Result<std::vector<std::pair<std::string, uint64_t>>> VersionStore::Lineage(
    const std::string& branch) const {
  std::vector<std::pair<std::string, uint64_t>> out;
  std::set<std::string> seen;
  std::string cur = branch;
  uint64_t bound = UINT64_MAX;
  while (true) {
    if (!seen.insert(cur).second) {
      return Status::Internal("branch parent cycle through " + cur);
    }
    out.emplace_back(cur, bound);
    XUPDATE_ASSIGN_OR_RETURN(const Journal* journal, FindJournal(cur));
    if (IsRoot(*journal)) break;
    bound = std::min(bound, journal->meta.fork);
    cur = journal->meta.parent;
  }
  return out;
}

Result<SyncPoint> VersionStore::MergeBase(const std::string& a,
                                          const std::string& b) const {
  if (a == b) {
    return Status::InvalidArgument("cannot merge branch " + a +
                                   " with itself");
  }
  // Last committed sync of the pair, unless a later rebase of either
  // side voided it.
  for (auto it = branch_log_records_.rbegin();
       it != branch_log_records_.rend(); ++it) {
    if (it->kind == 2 &&
        (it->rebase.branch == a || it->rebase.branch == b)) {
      break;  // older sync records reference rewritten history
    }
    if (it->kind != 1) continue;
    const SyncRecord& sync = it->sync;
    if (sync.branch_a == a && sync.branch_b == b) {
      return SyncPoint{sync.version_a, sync.version_b};
    }
    if (sync.branch_a == b && sync.branch_b == a) {
      return SyncPoint{sync.version_b, sync.version_a};
    }
  }
  // Fork-point fallback: the deepest common ancestor of the two
  // lineages, at the smaller of the two cut versions. Version numbering
  // is shared along a parent chain, so the base version is addressable
  // on both branches directly.
  XUPDATE_ASSIGN_OR_RETURN(auto lineage_a, Lineage(a));
  XUPDATE_ASSIGN_OR_RETURN(auto lineage_b, Lineage(b));
  for (const auto& [name_a, bound_a] : lineage_a) {
    for (const auto& [name_b, bound_b] : lineage_b) {
      if (name_a != name_b) continue;
      uint64_t base = std::min(bound_a, bound_b);
      return SyncPoint{base, base};
    }
  }
  return Status::Internal("branches " + a + " and " + b +
                          " share no lineage");
}

// --- Suffix / undo-chain extraction ---------------------------------------

Status VersionStore::CollectPuls(const Journal& journal, uint64_t from,
                                 uint64_t to,
                                 std::vector<pul::Pul>* out) const {
  if (from > to) {
    return Status::InvalidArgument(
        "suffix range (" + std::to_string(from) + ", " +
        std::to_string(to) + "] is inverted");
  }
  if (from == to) return Status::OK();
  if (to > journal.head) {
    return Status::InvalidArgument(
        "suffix end " + std::to_string(to) + " beyond head " +
        std::to_string(journal.head) + " of branch " + journal.meta.name);
  }
  if (from < journal.meta.fork) {
    XUPDATE_ASSIGN_OR_RETURN(const Journal* parent,
                             FindJournal(journal.meta.parent));
    XUPDATE_RETURN_IF_ERROR(
        CollectPuls(*parent, from, std::min(to, journal.meta.fork), out));
  }
  for (uint64_t v = std::max(from, journal.meta.fork) + 1; v <= to; ++v) {
    XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> puls,
                             ReadVersion(journal, v));
    for (pul::Pul& pul : puls) out->push_back(std::move(pul));
  }
  return Status::OK();
}

Result<std::vector<pul::Pul>> VersionStore::SuffixPuls(
    const std::string& branch, uint64_t from) const {
  XUPDATE_ASSIGN_OR_RETURN(BranchInfo info, GetBranch(branch));
  return RangePuls(branch, from, info.head);
}

Result<std::vector<pul::Pul>> VersionStore::RangePuls(
    const std::string& branch, uint64_t from, uint64_t to) const {
  XUPDATE_ASSIGN_OR_RETURN(const Journal* journal, FindJournal(branch));
  std::vector<pul::Pul> out;
  XUPDATE_RETURN_IF_ERROR(CollectPuls(*journal, from, to, &out));
  return out;
}

Result<std::vector<pul::Pul>> VersionStore::UndoChainFrom(
    const xml::Document& base_doc, const std::vector<pul::Pul>& puls) const {
  // One forward pass: each PUL's undo comes from the state it was
  // applied to, then the walk moves past it. A merge frame's chain
  // arrives as its members, one undo each: no single-PUL undo exists
  // in general, since a chain that rewinds below the merge base and
  // re-applies an operation deletes and re-creates the same node id,
  // which the staged apply order (insertions before deletions) cannot
  // express inside one PUL.
  xml::Document state = base_doc;
  std::vector<pul::Pul> undos;
  undos.reserve(puls.size());
  for (const pul::Pul& pul : puls) {
    XUPDATE_ASSIGN_OR_RETURN(pul::Pul undo,
                             ComputeUndo(state, pul, options_));
    XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&state, pul));
    undos.push_back(std::move(undo));
  }
  std::reverse(undos.begin(), undos.end());
  return undos;
}

// --- The sync (merge-commit) protocol -------------------------------------

bool VersionStore::SyncRecordNames(const std::string& branch,
                                   uint64_t version) const {
  for (const BranchLogRecord& record : branch_log_records_) {
    if (record.kind != 1) continue;
    const SyncRecord& sync = record.sync;
    if (sync.frame_a && sync.branch_a == branch && sync.version_a == version) {
      return true;
    }
    if (sync.frame_b && sync.branch_b == branch && sync.version_b == version) {
      return true;
    }
  }
  return false;
}

Status VersionStore::AppendBranchLogRecord(const std::string& payload) {
  if (!has_branch_log_) {
    // Created on first use. The handle is kept when the directory sync
    // fails, so the next record retries that sync, not the creation; no
    // record is appended before the file's directory entry is durable.
    if (!branch_log_.is_open()) {
      XUPDATE_ASSIGN_OR_RETURN(
          branch_log_, Wal::Create(dir_ + "/" + kBranchLogName,
                                   ToWalOptions(options_)));
    }
    XUPDATE_RETURN_IF_ERROR(SyncDirectory(dir_));
    has_branch_log_ = true;
  }
  WalFrame frame;
  frame.type = FrameType::kBranchMeta;
  frame.payload = payload;
  XUPDATE_RETURN_IF_ERROR(branch_log_.Append(frame));
  XUPDATE_RETURN_IF_ERROR(branch_log_.Sync());
  XUPDATE_ASSIGN_OR_RETURN(BranchLogRecord record,
                           DecodeBranchLogRecord(payload));
  branch_log_records_.push_back(std::move(record));
  return Status::OK();
}

Result<MergeCommitResult> VersionStore::CommitMerge(const MergePlan& plan) {
  ScopedTimer timer(options_.metrics, "store.merge.commit.seconds");
  if (plan.branch_a == plan.branch_b) {
    return Status::InvalidArgument("merge of a branch with itself");
  }
  struct Side {
    Journal* journal = nullptr;
    const std::vector<pul::Pul>* chain = nullptr;
    uint64_t base = 0;
    xml::Document merged;        // head doc + chain, when chain nonempty
    uint64_t pre_size = 0;       // journal bytes before the sync
    bool appended = false;
  };
  Side a, b;
  XUPDATE_ASSIGN_OR_RETURN(a.journal, FindJournal(plan.branch_a));
  XUPDATE_ASSIGN_OR_RETURN(b.journal, FindJournal(plan.branch_b));
  a.chain = &plan.chain_a;
  b.chain = &plan.chain_b;
  a.base = plan.base_a;
  b.base = plan.base_b;
  if (a.chain->empty() && b.chain->empty()) {
    return MergeCommitResult{a.journal->head, b.journal->head, false, false};
  }
  // Both chains must land byte-exactly on one shared merged state
  // before anything touches a journal. A side without a chain is
  // already there.
  for (Side* side : {&a, &b}) {
    if (side->chain->empty()) continue;
    side->merged = side->journal->doc;
    for (const pul::Pul& pul : *side->chain) {
      XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&side->merged, pul));
    }
  }
  auto landed = [](const Side& side) -> const xml::Document& {
    return side.chain->empty() ? side.journal->doc : side.merged;
  };
  XUPDATE_ASSIGN_OR_RETURN(
      bool converged, xml::Document::SameAnnotated(landed(a), landed(b)));
  if (!converged) {
    return Status::Internal(
        "merge chains of " + plan.branch_a + " and " + plan.branch_b +
        " do not land on one state");
  }
  // Journal phase. Frames are fsync'd unconditionally — the recovery
  // rule (an unnamed tail merge frame is truncated) requires that a
  // sync record on disk implies its frames are on disk.
  auto roll_back_frames = [this, &a, &b](const Status& cause) -> Status {
    for (Side* side : {&a, &b}) {
      if (!side->appended) continue;
      Status undone = TruncateWalTo(&side->journal->wal, side->pre_size,
                                    ToWalOptions(options_));
      if (!undone.ok()) {
        return Status::IoError(
            "merge journal write failed (" + cause.message() +
            ") and rolling back " + side->journal->meta.name +
            " also failed (" + undone.message() +
            "); reopen the store to recover");
      }
    }
    return cause;
  };
  for (Side* side : {&a, &b}) {
    if (side->chain->empty()) continue;
    const Side& other = (side == &a) ? b : a;
    MergeRecord record;
    record.other = other.journal->meta.name;
    record.other_parent = other.journal->head;
    record.base_own = side->base;
    record.base_other = other.base;
    record.chain.reserve(side->chain->size());
    for (const pul::Pul& pul : *side->chain) {
      XUPDATE_ASSIGN_OR_RETURN(std::string text, pul::SerializePul(pul));
      record.chain.push_back(std::move(text));
    }
    WalFrame frame;
    frame.type = FrameType::kMerge;
    frame.version = side->journal->head + 1;
    frame.aux = side->journal->head;
    frame.payload = EncodeMergeRecord(record);
    Wal& wal = side->journal->wal;
    side->pre_size = wal.size_bytes();
    Status appended = wal.Append(frame);
    if (!appended.ok()) return roll_back_frames(appended);
    side->appended = true;
    Status synced = wal.Sync();
    if (!synced.ok()) return roll_back_frames(synced);
  }
  // Commit point: the sync record. Until it is durable the merge does
  // not exist — Open truncates the frames above.
  SyncRecord sync;
  sync.branch_a = plan.branch_a;
  sync.branch_b = plan.branch_b;
  sync.frame_a = !a.chain->empty();
  sync.frame_b = !b.chain->empty();
  sync.version_a = a.journal->head + (sync.frame_a ? 1 : 0);
  sync.version_b = b.journal->head + (sync.frame_b ? 1 : 0);
  Status recorded = AppendBranchLogRecord(EncodeSyncRecord(sync));
  if (!recorded.ok()) return roll_back_frames(recorded);
  // Install in memory.
  for (Side* side : {&a, &b}) {
    if (side->chain->empty()) continue;
    side->journal->doc = std::move(side->merged);
    InstallFrames(side->journal, 1);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("store.merge.commit.count");
  }
  return MergeCommitResult{sync.version_a, sync.version_b, sync.frame_a,
                           sync.frame_b};
}

// --- Rebase installation --------------------------------------------------

Status VersionStore::RewriteBranch(const std::string& name,
                                   uint64_t new_fork,
                                   const std::vector<pul::Pul>& commits,
                                   xml::Document head_doc) {
  auto it = branches_.find(name);
  if (it == branches_.end()) {
    return Status::NotFound("branch not found: " + name);
  }
  // Children resolve versions through this journal; a rewrite changes
  // what they check out and can strand a child's fork point beyond the
  // rewritten head (failing the fork <= parent_head check at Open).
  for (const auto& [other_name, other] : branches_) {
    if (other_name != name && other.meta.parent == name) {
      return Status::InvalidArgument(
          "branch " + name + " cannot be rewritten: child branch " +
          other_name + " forks from it");
    }
  }
  Journal& b = it->second;
  XUPDATE_RETURN_IF_ERROR(ForkParent(b.meta.parent, new_fork).status());
  // Void the branch's sync records FIRST: if the rewrite below never
  // lands (crash), the old journal is still self-consistent and merge
  // bases just fall back to the fork point.
  RebaseRecord marker;
  marker.branch = name;
  marker.old_fork = b.meta.fork;
  marker.new_fork = new_fork;
  XUPDATE_RETURN_IF_ERROR(AppendBranchLogRecord(EncodeRebaseRecord(marker)));
  // Build the rewritten journal and rename it into place atomically.
  BranchMetaRecord meta = b.meta;
  meta.fork = new_fork;
  std::string content(Wal::kMagic, Wal::kMagicSize);
  WalFrame meta_frame;
  meta_frame.type = FrameType::kBranchMeta;
  meta_frame.payload = EncodeBranchMeta(meta);
  content += Wal::EncodeFrame(meta_frame);
  for (size_t i = 0; i < commits.size(); ++i) {
    WalFrame frame;
    frame.type = FrameType::kPul;
    frame.version = new_fork + 1 + i;
    XUPDATE_ASSIGN_OR_RETURN(frame.payload, pul::SerializePul(commits[i]));
    content += Wal::EncodeFrame(frame);
  }
  std::string path = BranchJournalPath(name);
  std::string staged = path + ".tmp";
  // Until the staged journal is durable the branch keeps its old handle,
  // so a failed write leaves it on its old journal, still writable.
  XUPDATE_RETURN_IF_ERROR(WriteFileSynced(staged, content));
  // The staged journal holds every commit the old one keeps; its close
  // status cannot change what the branch holds after the rename.
  (void)b.wal.Close();
  Status renamed = RenameFile(staged, path);
  if (!renamed.ok() && PathExists(staged)) {
    // The rename did not happen: reopen the old journal, which is still
    // at `path` with the frames the index points at.
    (void)RemoveFile(staged);
    XUPDATE_ASSIGN_OR_RETURN(b.wal, Wal::Open(path, ToWalOptions(options_)));
    return renamed;
  }
  // The rewritten journal is at `path`, even when only the directory
  // sync after the rename failed: the branch adopts it before reporting
  // that failure, so no later append reaches the unlinked old journal.
  // Until the adoption succeeds the old handle stays closed and branch
  // commits fail loudly.
  Journal rewritten;
  XUPDATE_ASSIGN_OR_RETURN(rewritten.wal,
                           Wal::Open(path, ToWalOptions(options_)));
  XUPDATE_RETURN_IF_ERROR(BuildIndex(&rewritten));
  rewritten.doc = std::move(head_doc);
  b = std::move(rewritten);
  XUPDATE_RETURN_IF_ERROR(renamed);
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("store.branch.rewrite.count");
  }
  return Status::OK();
}

// --- Open-time recovery ---------------------------------------------------

Status VersionStore::RollBackTornSyncs(Wal* wal,
                                       const std::string& branch_name,
                                       size_t* rolled_back) {
  while (!wal->frames().empty()) {
    const WalFrameInfo& last = wal->frames().back();
    if (last.type != FrameType::kMerge) break;
    if (SyncRecordNames(branch_name, last.version)) break;
    // A merge frame with no committed sync record is a torn sync:
    // physically drop it so the journal rolls back to the pre-merge
    // head (its twin on the other journal gets the same treatment).
    uint64_t cut = last.offset;
    XUPDATE_RETURN_IF_ERROR(
        TruncateWalTo(wal, cut, ToWalOptions(options_)));
    ++*rolled_back;
    if (options_.metrics != nullptr) {
      options_.metrics->AddCounter("store.merge.rolled_back");
    }
  }
  return Status::OK();
}

Status VersionStore::OpenBranches(OpenReport* report) {
  XUPDATE_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                           ListDirectory(dir_));
  size_t prefix_len = sizeof(kBranchJournalPrefix) - 1;
  size_t suffix_len = sizeof(kBranchJournalSuffix) - 1;
  for (const std::string& entry : entries) {
    if (entry.size() <= prefix_len + suffix_len) continue;
    if (entry.compare(0, prefix_len, kBranchJournalPrefix) != 0) continue;
    if (entry.compare(entry.size() - suffix_len, suffix_len,
                      kBranchJournalSuffix) != 0) {
      continue;
    }
    std::string name =
        entry.substr(prefix_len, entry.size() - prefix_len - suffix_len);
    XUPDATE_RETURN_IF_ERROR(ValidateBranchName(name));
    Journal branch;
    XUPDATE_RETURN_IF_ERROR(OpenJournal(dir_ + "/" + entry, name, &branch,
                                        nullptr,
                                        &report->merges_rolled_back));
    branches_.emplace(name, std::move(branch));
  }
  // Parent links: every branch must chain to the mainline and fork at
  // or below its parent's recovered head.
  for (const auto& [name, branch] : branches_) {
    XUPDATE_RETURN_IF_ERROR(Lineage(name).status());
    Status parent = ForkParent(branch.meta.parent, branch.meta.fork).status();
    if (!parent.ok()) {
      return Status::ParseError("branch " + name + ": " + parent.message());
    }
  }
  // Head documents (order-free: checkout never reads another branch's
  // cached head document).
  for (auto& [name, branch] : branches_) {
    XUPDATE_ASSIGN_OR_RETURN(branch.doc, CheckoutJournal(branch, branch.head));
  }
  report->branches = branches_.size();
  return Status::OK();
}

// --- Verification ---------------------------------------------------------

Status VersionStore::VerifyMergeFrame(const std::string& branch,
                                      uint64_t version,
                                      uint64_t local_parent,
                                      const MergeRecord& record) const {
  if (local_parent + 1 != version) {
    return Status::ParseError(
        "merge frame for version " + std::to_string(version) +
        " on " + branch + " declares parent " +
        std::to_string(local_parent));
  }
  if (!SyncRecordNames(branch, version)) {
    return Status::ParseError(
        "merge frame for version " + std::to_string(version) + " on " +
        branch + " has no committed sync record");
  }
  XUPDATE_ASSIGN_OR_RETURN(BranchInfo other, GetBranch(record.other));
  // A later rebase of the other branch may legitimately have shrunk its
  // head below our recorded parent; without one the parent must still
  // be addressable.
  bool other_rebased = false;
  for (const BranchLogRecord& log_record : branch_log_records_) {
    if (log_record.kind == 2 && log_record.rebase.branch == record.other) {
      other_rebased = true;
      break;
    }
  }
  if (!other_rebased && record.other_parent > other.head) {
    return Status::ParseError(
        "merge frame for version " + std::to_string(version) + " on " +
        branch + " references parent " +
        std::to_string(record.other_parent) + " beyond head " +
        std::to_string(other.head) + " of " + record.other);
  }
  return Status::OK();
}

}  // namespace xupdate::store
