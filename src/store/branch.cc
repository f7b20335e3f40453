// Branch subsystem of the versioned store: named branch journals, the
// cross-journal merge-commit (sync) protocol, crash recovery of torn
// syncs, and the suffix/undo-chain extraction the merge and rebase
// engines (src/branch/) are built on. See version.h "Branches" and
// records.h for the on-disk formats.

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "pul/apply.h"
#include "pul/pul_io.h"
#include "store/version.h"

namespace xupdate::store {

namespace {

constexpr char kBranchLogName[] = "branches.log";
constexpr char kBranchJournalPrefix[] = "branch-";
constexpr char kBranchJournalSuffix[] = ".log";

WalOptions BranchWalOptions(const StoreOptions& options) {
  WalOptions wal;
  wal.fsync = options.fsync;
  wal.batch_interval = options.batch_interval;
  wal.fail_after_bytes = options.fail_after_bytes;
  wal.metrics = options.metrics;
  return wal;
}

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

Result<std::vector<pul::Pul>> ParseChain(const MergeRecord& record) {
  std::vector<pul::Pul> chain;
  chain.reserve(record.chain.size());
  for (const std::string& text : record.chain) {
    XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(text));
    chain.push_back(std::move(pul));
  }
  return chain;
}

}  // namespace

std::string VersionStore::BranchJournalPath(const std::string& name) const {
  return dir_ + "/" + kBranchJournalPrefix + name + kBranchJournalSuffix;
}

// --- Creation / lookup ----------------------------------------------------

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
  uint64_t parent_head = 0;
  if (parent == "main") {
    parent_head = head_;
    // The fork point must not outlive its base in a crash: force the
    // parent journal durable before the branch journal names it.
    XUPDATE_RETURN_IF_ERROR(wal_.Sync());
  } else {
    auto it = branches_.find(parent);
    if (it == branches_.end()) {
      return Status::NotFound("parent branch not found: " + parent);
    }
    parent_head = it->second.head;
    XUPDATE_RETURN_IF_ERROR(it->second.wal.Sync());
  }
  if (at > parent_head) {
    return Status::InvalidArgument(
        "fork version " + std::to_string(at) + " beyond head " +
        std::to_string(parent_head) + " of branch " + parent);
  }
  BranchState branch;
  branch.meta.name = name;
  branch.meta.parent = parent;
  branch.meta.fork = at;
  branch.meta.policies = policies;
  // Fork document before the journal: once the journal is durable the
  // branch materializes at the next Open, so every fallible step must
  // precede it (a failure here leaves nothing behind to clean up).
  XUPDATE_ASSIGN_OR_RETURN(branch.doc, CheckoutBranch(parent, at));
  XUPDATE_ASSIGN_OR_RETURN(
      branch.wal, Wal::Create(path, BranchWalOptions(options_)));
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
  BranchInfo info;
  if (name == "main") {
    info.name = "main";
    info.head = head_;
    return info;
  }
  auto it = branches_.find(name);
  if (it == branches_.end()) {
    return Status::NotFound("branch not found: " + name);
  }
  info.name = it->second.meta.name;
  info.parent = it->second.meta.parent;
  info.fork = it->second.meta.fork;
  info.policies = it->second.meta.policies;
  info.head = it->second.head;
  return info;
}

Result<const xml::Document*> VersionStore::BranchHeadDoc(
    const std::string& branch) const {
  if (branch == "main") return &doc_;
  auto it = branches_.find(branch);
  if (it == branches_.end()) {
    return Status::NotFound("branch not found: " + branch);
  }
  return &it->second.doc;
}

// --- Commit / checkout ----------------------------------------------------

Result<uint64_t> VersionStore::CommitOnBranch(const std::string& branch,
                                              const pul::Pul& pul) {
  if (branch == "main") return Commit(pul);
  auto it = branches_.find(branch);
  if (it == branches_.end()) {
    return Status::NotFound("branch not found: " + branch);
  }
  BranchState& b = it->second;
  ScopedTimer timer(options_.metrics, "store.branch.commit.seconds");
  XUPDATE_RETURN_IF_ERROR(pul::CheckPulApplicable(b.doc, pul));
  XUPDATE_ASSIGN_OR_RETURN(std::string payload, pul::SerializePul(pul));
  WalFrame frame;
  frame.type = FrameType::kPul;
  frame.version = b.head + 1;
  frame.payload = std::move(payload);
  XUPDATE_RETURN_IF_ERROR(b.wal.Append(frame));
  XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&b.doc, pul));
  ++b.head;
  b.pul_frames[b.head] = b.wal.frames().back();
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("store.branch.commit.count");
  }
  return b.head;
}

Result<xml::Document> VersionStore::CheckoutBranch(const std::string& branch,
                                                   uint64_t v) const {
  if (branch == "main") return Checkout(v);
  auto it = branches_.find(branch);
  if (it == branches_.end()) {
    return Status::NotFound("branch not found: " + branch);
  }
  const BranchState& b = it->second;
  if (v > b.head) {
    return Status::InvalidArgument(
        "version " + std::to_string(v) + " beyond head " +
        std::to_string(b.head) + " of branch " + branch);
  }
  // Versions at or below the fork live on the parent chain — this is
  // where a branch borrows the mainline's snapshot checkpoints.
  if (v <= b.meta.fork) return CheckoutBranch(b.meta.parent, v);
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc,
                           CheckoutBranch(b.meta.parent, b.meta.fork));
  for (uint64_t cur = b.meta.fork; cur < v; ++cur) {
    auto pit = b.pul_frames.find(cur + 1);
    if (pit != b.pul_frames.end()) {
      XUPDATE_ASSIGN_OR_RETURN(WalFrame frame, b.wal.ReadFrame(pit->second));
      XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(frame.payload));
      XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&doc, pul));
      continue;
    }
    auto mit = b.merge_frames.find(cur + 1);
    if (mit == b.merge_frames.end()) {
      return Status::Internal("branch " + branch +
                              " journal gap above version " +
                              std::to_string(cur));
    }
    XUPDATE_ASSIGN_OR_RETURN(WalFrame frame, b.wal.ReadFrame(mit->second));
    XUPDATE_ASSIGN_OR_RETURN(MergeRecord record,
                             DecodeMergeRecord(frame.payload));
    XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> chain,
                             ParseChain(record));
    for (const pul::Pul& pul : chain) {
      XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&doc, pul));
    }
  }
  return doc;
}

Result<std::string> VersionStore::CheckoutXmlBranch(const std::string& branch,
                                                    uint64_t v) const {
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc, CheckoutBranch(branch, v));
  return SerializeAnnotated(doc);
}

// --- Log ------------------------------------------------------------------

Result<std::vector<LogEntry>> VersionStore::LogBranch(
    const std::string& branch, bool with_op_counts) const {
  const Wal* wal = nullptr;
  if (branch == "main") {
    wal = &wal_;
  } else {
    auto it = branches_.find(branch);
    if (it == branches_.end()) {
      return Status::NotFound("branch not found: " + branch);
    }
    wal = &it->second.wal;
  }
  std::vector<LogEntry> entries;
  entries.reserve(wal->frames().size());
  for (const WalFrameInfo& info : wal->frames()) {
    LogEntry entry;
    entry.type = info.type;
    entry.version = info.version;
    entry.aux = info.aux;
    entry.offset = info.offset;
    entry.payload_bytes = info.payload_bytes;
    if (with_op_counts) {
      switch (info.type) {
        case FrameType::kPul: {
          XUPDATE_ASSIGN_OR_RETURN(WalFrame frame, wal->ReadFrame(info));
          XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul,
                                   pul::ParsePul(frame.payload));
          entry.ops = pul.size();
          break;
        }
        case FrameType::kMerge: {
          XUPDATE_ASSIGN_OR_RETURN(WalFrame frame, wal->ReadFrame(info));
          XUPDATE_ASSIGN_OR_RETURN(MergeRecord record,
                                   DecodeMergeRecord(frame.payload));
          XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> chain,
                                   ParseChain(record));
          for (const pul::Pul& pul : chain) entry.ops += pul.size();
          break;
        }
        default:
          break;  // kBranchMeta carries no operations
      }
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
    if (cur == "main") break;
    auto it = branches_.find(cur);
    if (it == branches_.end()) {
      return Status::NotFound("branch not found in lineage: " + cur);
    }
    bound = std::min(bound, it->second.meta.fork);
    cur = it->second.meta.parent;
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

Status VersionStore::CollectPuls(const std::string& branch, uint64_t from,
                                 uint64_t to,
                                 std::vector<pul::Pul>* out) const {
  if (from > to) {
    return Status::InvalidArgument(
        "suffix range (" + std::to_string(from) + ", " +
        std::to_string(to) + "] is inverted");
  }
  if (from == to) return Status::OK();
  // The mainline and every branch journal index the same two frame
  // kinds; a branch additionally recurses into its parent below the fork.
  const Wal* wal = &wal_;
  const std::map<uint64_t, WalFrameInfo>* pul_frames = &pul_frames_;
  const std::map<uint64_t, WalFrameInfo>* merge_frames = &merge_frames_;
  uint64_t head = head_;
  uint64_t fork = 0;
  const std::string* parent = nullptr;
  std::string where;
  if (branch != "main") {
    auto it = branches_.find(branch);
    if (it == branches_.end()) {
      return Status::NotFound("branch not found: " + branch);
    }
    const BranchState& b = it->second;
    wal = &b.wal;
    pul_frames = &b.pul_frames;
    merge_frames = &b.merge_frames;
    head = b.head;
    fork = b.meta.fork;
    parent = &b.meta.parent;
    where = " of branch " + branch;
  }
  if (to > head) {
    return Status::InvalidArgument("suffix end " + std::to_string(to) +
                                   " beyond head " + std::to_string(head) +
                                   where);
  }
  if (from < fork) {
    XUPDATE_RETURN_IF_ERROR(
        CollectPuls(*parent, from, std::min(to, fork), out));
  }
  for (uint64_t cur = std::max(from, fork); cur < to; ++cur) {
    auto pit = pul_frames->find(cur + 1);
    if (pit != pul_frames->end()) {
      XUPDATE_ASSIGN_OR_RETURN(WalFrame frame, wal->ReadFrame(pit->second));
      XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(frame.payload));
      out->push_back(std::move(pul));
      continue;
    }
    auto mit = merge_frames->find(cur + 1);
    if (mit == merge_frames->end()) {
      return Status::Internal("journal gap above version " +
                              std::to_string(cur) + where);
    }
    XUPDATE_ASSIGN_OR_RETURN(WalFrame frame, wal->ReadFrame(mit->second));
    XUPDATE_ASSIGN_OR_RETURN(MergeRecord record,
                             DecodeMergeRecord(frame.payload));
    XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> chain,
                             ParseChain(record));
    for (pul::Pul& pul : chain) out->push_back(std::move(pul));
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
  std::vector<pul::Pul> out;
  XUPDATE_RETURN_IF_ERROR(CollectPuls(branch, from, to, &out));
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
    XUPDATE_ASSIGN_OR_RETURN(
        branch_log_, Wal::Create(dir_ + "/" + kBranchLogName,
                                 BranchWalOptions(options_)));
    XUPDATE_RETURN_IF_ERROR(SyncDirectory(dir_));
    has_branch_log_ = true;
  }
  WalFrame frame;
  frame.type = FrameType::kBranchMeta;
  frame.payload = payload;
  XUPDATE_RETURN_IF_ERROR(branch_log_.Append(frame, /*defer_sync=*/true));
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
  // Side handles, "main" included.
  struct Side {
    std::string name;
    uint64_t head = 0;
    const xml::Document* doc = nullptr;
    Wal* wal = nullptr;
    const std::vector<pul::Pul>* chain = nullptr;
    uint64_t base = 0;
    xml::Document merged;        // head doc + chain, when chain nonempty
    uint64_t pre_size = 0;       // journal bytes before the sync
    bool appended = false;
  };
  auto bind = [this](const std::string& name, Side* side) -> Status {
    side->name = name;
    if (name == "main") {
      side->head = head_;
      side->doc = &doc_;
      side->wal = &wal_;
      return Status::OK();
    }
    auto it = branches_.find(name);
    if (it == branches_.end()) {
      return Status::NotFound("branch not found: " + name);
    }
    side->head = it->second.head;
    side->doc = &it->second.doc;
    side->wal = &it->second.wal;
    return Status::OK();
  };
  Side a, b;
  XUPDATE_RETURN_IF_ERROR(bind(plan.branch_a, &a));
  XUPDATE_RETURN_IF_ERROR(bind(plan.branch_b, &b));
  a.chain = &plan.chain_a;
  b.chain = &plan.chain_b;
  a.base = plan.base_a;
  b.base = plan.base_b;
  if (a.chain->empty() && b.chain->empty()) {
    return MergeCommitResult{a.head, b.head, false, false};
  }
  // Both chains must land byte-exactly on one shared merged state
  // before anything touches a journal. A side without a chain is
  // already there.
  for (Side* side : {&a, &b}) {
    if (side->chain->empty()) continue;
    side->merged = *side->doc;
    for (const pul::Pul& pul : *side->chain) {
      XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&side->merged, pul));
    }
  }
  auto landed = [](const Side& side) -> const xml::Document& {
    return side.chain->empty() ? *side.doc : side.merged;
  };
  XUPDATE_ASSIGN_OR_RETURN(
      bool converged, xml::Document::SameAnnotated(landed(a), landed(b)));
  if (!converged) {
    return Status::Internal(
        "merge chains of " + a.name + " and " + b.name +
        " do not land on one state");
  }
  // Journal phase. Frames are fsync'd unconditionally — the recovery
  // rule (an unnamed tail merge frame is truncated) requires that a
  // sync record on disk implies its frames are on disk.
  auto roll_back_frames = [this, &a, &b](const Status& cause) -> Status {
    for (Side* side : {&a, &b}) {
      if (!side->appended) continue;
      Status undone = TruncateWalTo(side->wal, side->pre_size,
                                    BranchWalOptions(options_));
      if (!undone.ok()) {
        return Status::IoError(
            "merge journal write failed (" + cause.message() +
            ") and rolling back " + side->name +
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
    record.other = other.name;
    record.other_parent = other.head;
    record.base_own = side->base;
    record.base_other = other.base;
    record.chain.reserve(side->chain->size());
    for (const pul::Pul& pul : *side->chain) {
      XUPDATE_ASSIGN_OR_RETURN(std::string text, pul::SerializePul(pul));
      record.chain.push_back(std::move(text));
    }
    WalFrame frame;
    frame.type = FrameType::kMerge;
    frame.version = side->head + 1;
    frame.aux = side->head;
    frame.payload = EncodeMergeRecord(record);
    side->pre_size = side->wal->size_bytes();
    Status appended = side->wal->Append(frame, /*defer_sync=*/true);
    if (!appended.ok()) return roll_back_frames(appended);
    side->appended = true;
    Status synced = side->wal->Sync();
    if (!synced.ok()) return roll_back_frames(synced);
  }
  // Commit point: the sync record. Until it is durable the merge does
  // not exist — Open truncates the frames above.
  SyncRecord sync;
  sync.branch_a = a.name;
  sync.branch_b = b.name;
  sync.frame_a = !a.chain->empty();
  sync.frame_b = !b.chain->empty();
  sync.version_a = a.head + (sync.frame_a ? 1 : 0);
  sync.version_b = b.head + (sync.frame_b ? 1 : 0);
  Status recorded = AppendBranchLogRecord(EncodeSyncRecord(sync));
  if (!recorded.ok()) return roll_back_frames(recorded);
  // Install in memory.
  for (Side* side : {&a, &b}) {
    if (side->chain->empty()) continue;
    if (side->name == "main") {
      doc_ = std::move(side->merged);
      ++head_;
      merge_frames_[head_] = wal_.frames().back();
      Status checkpoint = MaybeCheckpoint();
      if (!checkpoint.ok() && options_.metrics != nullptr) {
        options_.metrics->AddCounter("store.checkpoint.failures");
      }
    } else {
      BranchState& state = branches_.at(side->name);
      state.doc = std::move(side->merged);
      ++state.head;
      state.merge_frames[state.head] = state.wal.frames().back();
    }
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
                                   const std::vector<pul::Pul>& commits) {
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
  BranchState& b = it->second;
  uint64_t parent_head = 0;
  if (b.meta.parent == "main") {
    parent_head = head_;
  } else {
    auto pit = branches_.find(b.meta.parent);
    if (pit == branches_.end()) {
      return Status::NotFound("parent branch not found: " + b.meta.parent);
    }
    parent_head = pit->second.head;
  }
  if (new_fork > parent_head) {
    return Status::InvalidArgument(
        "new fork " + std::to_string(new_fork) + " beyond head " +
        std::to_string(parent_head) + " of branch " + b.meta.parent);
  }
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
  XUPDATE_RETURN_IF_ERROR(b.wal.Close());
  XUPDATE_RETURN_IF_ERROR(WriteFileAtomic(path, content));
  XUPDATE_ASSIGN_OR_RETURN(b.wal,
                           Wal::Open(path, BranchWalOptions(options_)));
  XUPDATE_RETURN_IF_ERROR(BuildBranchIndex(&b));
  XUPDATE_ASSIGN_OR_RETURN(b.doc, CheckoutBranch(name, b.head));
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("store.branch.rewrite.count");
  }
  return Status::OK();
}

// --- Open-time recovery ---------------------------------------------------

Status VersionStore::BuildBranchIndex(BranchState* branch) {
  branch->pul_frames.clear();
  branch->merge_frames.clear();
  const std::vector<WalFrameInfo>& frames = branch->wal.frames();
  if (frames.empty() || frames[0].type != FrameType::kBranchMeta) {
    return Status::ParseError("branch journal " + branch->wal.path() +
                              " does not start with a metadata frame");
  }
  XUPDATE_ASSIGN_OR_RETURN(WalFrame meta_frame,
                           branch->wal.ReadFrame(frames[0]));
  XUPDATE_ASSIGN_OR_RETURN(branch->meta,
                           DecodeBranchMeta(meta_frame.payload));
  uint64_t cur = branch->meta.fork;
  for (size_t i = 1; i < frames.size(); ++i) {
    const WalFrameInfo& info = frames[i];
    switch (info.type) {
      case FrameType::kPul:
        if (info.version != cur + 1) {
          return Status::ParseError(
              "branch " + branch->meta.name + " journal gap: version " +
              std::to_string(info.version) + " after " +
              std::to_string(cur));
        }
        branch->pul_frames[info.version] = info;
        cur = info.version;
        break;
      case FrameType::kMerge:
        if (info.version != cur + 1 || info.aux != cur) {
          return Status::ParseError(
              "branch " + branch->meta.name +
              " journal gap: merge frame for version " +
              std::to_string(info.version) + " after " +
              std::to_string(cur));
        }
        branch->merge_frames[info.version] = info;
        cur = info.version;
        break;
      default:
        return Status::ParseError(
            "branch " + branch->meta.name +
            " journal holds an unexpected frame type " +
            std::to_string(static_cast<int>(info.type)) + " at offset " +
            std::to_string(info.offset));
    }
  }
  branch->head = cur;
  return Status::OK();
}

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
        TruncateWalTo(wal, cut, BranchWalOptions(options_)));
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
    BranchState branch;
    XUPDATE_ASSIGN_OR_RETURN(
        branch.wal,
        Wal::Open(dir_ + "/" + entry, BranchWalOptions(options_)));
    XUPDATE_RETURN_IF_ERROR(BuildBranchIndex(&branch));
    if (branch.meta.name != name) {
      return Status::ParseError(
          "branch journal " + entry + " declares name \"" +
          branch.meta.name + "\"");
    }
    XUPDATE_RETURN_IF_ERROR(ValidateBranchName(name));
    XUPDATE_RETURN_IF_ERROR(
        RollBackTornSyncs(&branch.wal, name, &report->merges_rolled_back));
    XUPDATE_RETURN_IF_ERROR(BuildBranchIndex(&branch));
    branches_.emplace(name, std::move(branch));
  }
  // Parent links: every branch must chain to the mainline and fork at
  // or below its parent's recovered head.
  for (const auto& [name, branch] : branches_) {
    XUPDATE_RETURN_IF_ERROR(Lineage(name).status());
    uint64_t parent_head = 0;
    if (branch.meta.parent == "main") {
      parent_head = head_;
    } else {
      auto pit = branches_.find(branch.meta.parent);
      if (pit == branches_.end()) {
        return Status::ParseError("branch " + name +
                                  " references unknown parent " +
                                  branch.meta.parent);
      }
      parent_head = pit->second.head;
    }
    if (branch.meta.fork > parent_head) {
      return Status::ParseError(
          "branch " + name + " forks at version " +
          std::to_string(branch.meta.fork) + " beyond recovered head " +
          std::to_string(parent_head) + " of " + branch.meta.parent);
    }
  }
  // Head documents (order-free: checkout never reads another branch's
  // cached head document).
  for (auto& [name, branch] : branches_) {
    XUPDATE_ASSIGN_OR_RETURN(branch.doc, CheckoutBranch(name, branch.head));
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

Result<BranchVerifyResult> VersionStore::VerifyBranch(
    const std::string& name) const {
  auto it = branches_.find(name);
  if (it == branches_.end()) {
    return Status::NotFound("branch not found: " + name);
  }
  const BranchState& b = it->second;
  BranchVerifyResult result;
  result.name = name;
  result.head = b.head;
  // Structural re-scan: every frame must decode CRC-clean with no
  // trailing garbage.
  XUPDATE_ASSIGN_OR_RETURN(std::string data,
                           ReadFileToString(b.wal.path()));
  if (data.size() < Wal::kMagicSize ||
      data.compare(0, Wal::kMagicSize, Wal::kMagic, Wal::kMagicSize) != 0) {
    return Status::ParseError("bad journal magic in " + b.wal.path());
  }
  size_t offset = Wal::kMagicSize;
  while (offset < data.size()) {
    XUPDATE_ASSIGN_OR_RETURN(WalFrame frame, Wal::DecodeFrame(data, &offset));
    (void)frame;
    ++result.frames;
  }
  if (result.frames != b.wal.frames().size()) {
    return Status::ParseError("branch " + name +
                              " frame directory out of sync");
  }
  // Forward replay from the fork point must land on the in-memory head
  // document byte-for-byte; every merge frame must resolve.
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc,
                           CheckoutBranch(b.meta.parent, b.meta.fork));
  for (uint64_t v = b.meta.fork + 1; v <= b.head; ++v) {
    auto pit = b.pul_frames.find(v);
    if (pit != b.pul_frames.end()) {
      XUPDATE_ASSIGN_OR_RETURN(WalFrame frame, b.wal.ReadFrame(pit->second));
      XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(frame.payload));
      XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&doc, pul));
    } else {
      auto mit = b.merge_frames.find(v);
      if (mit == b.merge_frames.end()) {
        return Status::ParseError("branch " + name +
                                  " has no frame for version " +
                                  std::to_string(v));
      }
      XUPDATE_ASSIGN_OR_RETURN(WalFrame frame, b.wal.ReadFrame(mit->second));
      XUPDATE_ASSIGN_OR_RETURN(MergeRecord record,
                               DecodeMergeRecord(frame.payload));
      XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> chain,
                               ParseChain(record));
      for (const pul::Pul& pul : chain) {
        XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&doc, pul));
      }
      XUPDATE_RETURN_IF_ERROR(
          VerifyMergeFrame(name, v, mit->second.aux, record));
      ++result.merges_checked;
    }
    ++result.replayed_versions;
  }
  XUPDATE_ASSIGN_OR_RETURN(bool same,
                           xml::Document::SameAnnotated(doc, b.doc));
  if (!same) {
    return Status::ParseError("branch " + name +
                              " replay diverges from its head document");
  }
  return result;
}

}  // namespace xupdate::store
