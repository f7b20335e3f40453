#include "branch/rebase.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <linux/capability.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "branch/merge.h"
#include "label/labeling.h"
#include "store/version.h"
#include "testing/test_docs.h"

namespace xupdate::branch {
namespace {

namespace fs = std::filesystem;
using store::VersionStore;

// Holds a directory at mode 0300 (write and search, no read): a rename
// inside it succeeds, but opening it for the directory fsync fails
// with EACCES. Root passes mode checks through CAP_DAC_OVERRIDE and
// CAP_DAC_READ_SEARCH, so those are dropped from this thread's
// effective set (they stay permitted) and raised again at the end.
class UnreadableDirectory {
 public:
  explicit UnreadableDirectory(const fs::path& dir) : dir_(dir) {
    header_.version = _LINUX_CAPABILITY_VERSION_3;
    if (::syscall(SYS_capget, &header_, saved_) != 0) return;
    __user_cap_data_struct lowered[2] = {saved_[0], saved_[1]};
    lowered[0].effective &= ~((1u << CAP_DAC_OVERRIDE) |
                              (1u << CAP_DAC_READ_SEARCH));
    if (::syscall(SYS_capset, &header_, lowered) != 0) return;
    lowered_ = true;
    fs::permissions(dir_, fs::perms::owner_write | fs::perms::owner_exec);
    int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
      ::close(fd);
    } else {
      active_ = true;
    }
  }
  ~UnreadableDirectory() {
    fs::permissions(dir_, fs::perms::owner_all);
    if (lowered_) ::syscall(SYS_capset, &header_, saved_);
  }
  // False when the directory stayed readable (nothing to test).
  bool active() const { return active_; }

 private:
  fs::path dir_;
  __user_cap_header_struct header_{};
  __user_cap_data_struct saved_[2] = {};
  bool lowered_ = false;
  bool active_ = false;
};

class BranchRebaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_branch_rebase_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    base_doc_ = xupdate::testing::PaperFigureDocument();
    auto xml = VersionStore::SerializeAnnotated(base_doc_);
    ASSERT_TRUE(xml.ok());
    base_xml_ = *xml;
  }

  void TearDown() override { fs::remove_all(dir_); }

  VersionStore MakeStore() {
    std::string path = (dir_ / "store").string();
    auto init = VersionStore::Init(path, base_xml_);
    EXPECT_TRUE(init.ok()) << init;
    auto store = VersionStore::Open(path);
    EXPECT_TRUE(store.ok()) << store.status();
    return std::move(*store);
  }

  pul::Pul RepVPul(const xml::Document& doc, int round) {
    label::Labeling labeling = label::Labeling::Build(doc);
    pul::Pul p;
    p.BindIdSpace(doc.max_assigned_id() + 1 +
                  static_cast<xml::NodeId>(round) * 1000);
    EXPECT_TRUE(p.AddStringOp(pul::OpKind::kReplaceValue, 15, labeling,
                              "value round " + std::to_string(round))
                    .ok());
    return p;
  }

  pul::Pul InsertPul(const xml::Document& doc, int round) {
    label::Labeling labeling = label::Labeling::Build(doc);
    pul::Pul p;
    p.BindIdSpace(doc.max_assigned_id() + 1 +
                  static_cast<xml::NodeId>(round) * 1000);
    auto frag = p.AddFragment("<note>round " + std::to_string(round) +
                              "</note>");
    EXPECT_TRUE(frag.ok());
    EXPECT_TRUE(
        p.AddTreeOp(pul::OpKind::kInsAfter, 19, labeling, {*frag}).ok());
    return p;
  }

  // del(14) — removes the subtree holding text node 15.
  pul::Pul DeletePul(const xml::Document& doc) {
    label::Labeling labeling = label::Labeling::Build(doc);
    pul::Pul p;
    p.BindIdSpace(doc.max_assigned_id() + 1);
    EXPECT_TRUE(p.AddTreeOp(pul::OpKind::kDelete, 14, labeling, {}).ok());
    return p;
  }

  std::string HeadBytes(const VersionStore& store, const std::string& name) {
    auto info = store.GetBranch(name);
    EXPECT_TRUE(info.ok()) << info.status();
    auto bytes = store.CheckoutXmlBranch(name, info->head);
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    return *bytes;
  }

  fs::path dir_;
  xml::Document base_doc_;
  std::string base_xml_;
};

TEST_F(BranchRebaseTest, ReplaysIndependentCommitsOntoNewBase) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 1)).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 2)).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 3)).ok());
  RebaseOptions options;
  options.onto = store.head();
  auto report = Rebase(&store, "w", options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->applied);
  EXPECT_EQ(report->old_fork, 0u);
  EXPECT_EQ(report->new_fork, 2u);
  EXPECT_EQ(report->replayed, 1u);
  EXPECT_EQ(report->dropped, 0u);
  EXPECT_TRUE(report->conflicts.empty());
  auto info = store.GetBranch("w");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->fork, 2u);
  EXPECT_EQ(info->head, 3u);
  // The rebased head carries both mainline inserts and the branch edit.
  std::string head = HeadBytes(store, "w");
  EXPECT_NE(head.find("round 2"), std::string::npos);
  EXPECT_NE(head.find("round 3"), std::string::npos);
  EXPECT_NE(head.find("value round 1"), std::string::npos);
  auto verified = store.Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
}

TEST_F(BranchRebaseTest, PhaseTimersAndResidentOntoState) {
  std::string path = (dir_ / "store").string();
  ASSERT_TRUE(VersionStore::Init(path, base_xml_).ok());
  Metrics store_metrics;
  store::StoreOptions store_options;
  store_options.metrics = &store_metrics;
  auto opened = VersionStore::Open(path, store_options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  VersionStore& store = *opened;
  const char* phases[] = {"branch.rebase.checkout.seconds",
                          "branch.rebase.undo.seconds",
                          "branch.rebase.rewind_check.seconds",
                          "branch.rebase.replay.seconds",
                          "branch.rebase.commit.seconds"};
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 1)).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 2)).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 3)).ok());
  // Round 1 moves onto an older mainline version (a checkout of it);
  // round 2 onto main's head, whose resident document is copied instead.
  for (uint64_t onto : {1u, 2u}) {
    SCOPED_TRACE("onto " + std::to_string(onto));
    Metrics metrics;
    RebaseOptions options;
    options.onto = onto;
    options.metrics = &metrics;
    uint64_t checkouts = store_metrics.counter("store.checkout.count");
    auto report = Rebase(&store, "w", options);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_TRUE(report->applied);
    double phase_sum = 0.0;
    for (const char* phase : phases) {
      EXPECT_EQ(metrics.timer(phase).count, 1u) << phase;
      phase_sum += metrics.total_seconds(phase);
    }
    EXPECT_LE(phase_sum, metrics.total_seconds("branch.rebase.seconds"));
    // The fork state and the replay's start when onto is not the head;
    // the rewritten branch's head is the replayed document itself.
    EXPECT_EQ(store_metrics.counter("store.checkout.count") - checkouts,
              onto == store.head() ? 1u : 2u);
  }
  std::string head = HeadBytes(store, "w");
  EXPECT_NE(head.find("round 3"), std::string::npos);
  EXPECT_NE(head.find("value round 1"), std::string::npos);
  auto verified = store.Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
}

TEST_F(BranchRebaseTest, FailedRewriteLeavesTheBranchWritable) {
  std::string path = (dir_ / "store").string();
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 1)).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 2)).ok());
  // A directory where the rewrite stages its new journal makes the
  // journal write fail after the rebase marker is durable.
  fs::path staging = dir_ / "store" / "branch-w.log.tmp";
  ASSERT_TRUE(fs::create_directories(staging));
  RebaseOptions options;
  options.onto = store.head();
  auto report = Rebase(&store, "w", options);
  EXPECT_FALSE(report.ok());
  fs::remove_all(staging);
  // The branch stays on its old journal, and that journal still takes
  // commits.
  auto info = store.GetBranch("w");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->fork, 0u);
  doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto committed = store.CommitOnBranch("w", InsertPul(**doc, 3));
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(*committed, 2u);
  auto verified = store.Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
  std::string head = HeadBytes(store, "w");
  EXPECT_NE(head.find("round 3"), std::string::npos);
  ASSERT_TRUE(store.Close().ok());
  auto reopened = VersionStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(HeadBytes(*reopened, "w"), head);
}

TEST_F(BranchRebaseTest, FailedSyncAfterTheRenameAdoptsTheRewrittenJournal) {
  std::string path = (dir_ / "store").string();
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 1)).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 2)).ok());
  RebaseOptions options;
  options.onto = store.head();
  // A first rebase creates branches.log, whose creation syncs the
  // directory too.
  ASSERT_TRUE(Rebase(&store, "w", options).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 3)).ok());
  options.onto = store.head();
  {
    // The rewritten journal is renamed over the old one, then the
    // directory fsync fails.
    UnreadableDirectory unreadable(path);
    if (!unreadable.active()) {
      GTEST_SKIP() << "cannot make " << path << " unreadable";
    }
    auto report = Rebase(&store, "w", options);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.status().message().find("open dir"), std::string::npos)
        << report.status();
  }
  // The branch is on the rewritten journal, so a commit acknowledged now
  // survives a reopen.
  auto info = store.GetBranch("w");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->fork, 2u);
  EXPECT_EQ(info->head, 3u);
  doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto committed = store.CommitOnBranch("w", InsertPul(**doc, 4));
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(*committed, 4u);
  auto verified = store.Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
  std::string head = HeadBytes(store, "w");
  for (const char* text : {"value round 1", "round 2", "round 3", "round 4"}) {
    EXPECT_NE(head.find(text), std::string::npos) << text;
  }
  ASSERT_TRUE(store.Close().ok());
  auto reopened = VersionStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto reopened_info = reopened->GetBranch("w");
  ASSERT_TRUE(reopened_info.ok()) << reopened_info.status();
  EXPECT_EQ(reopened_info->head, 4u);
  EXPECT_EQ(HeadBytes(*reopened, "w"), head);
}

TEST_F(BranchRebaseTest, FailedBranchLogCreationIsRetriedByTheNextRecord) {
  std::string path = (dir_ / "store").string();
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 1)).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 2)).ok());
  RebaseOptions options;
  options.onto = store.head();
  {
    // The rebase record is the store's first, so it creates
    // branches.log; the directory fsync after the creation fails.
    UnreadableDirectory unreadable(path);
    if (!unreadable.active()) {
      GTEST_SKIP() << "cannot make " << path << " unreadable";
    }
    auto report = Rebase(&store, "w", options);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.status().message().find("open dir"), std::string::npos)
        << report.status();
  }
  EXPECT_TRUE(fs::exists(dir_ / "store" / "branches.log"));
  auto info = store.GetBranch("w");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->fork, 0u);
  // The next record syncs the directory on the open handle instead of
  // creating the file again.
  auto report = Rebase(&store, "w", options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->applied);
  info = store.GetBranch("w");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->fork, 1u);
  EXPECT_EQ(info->head, 2u);
  auto verified = store.Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
  std::string head = HeadBytes(store, "w");
  for (const char* text : {"value round 1", "round 2"}) {
    EXPECT_NE(head.find(text), std::string::npos) << text;
  }
  ASSERT_TRUE(store.Close().ok());
  auto reopened = VersionStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto reopened_info = reopened->GetBranch("w");
  ASSERT_TRUE(reopened_info.ok()) << reopened_info.status();
  EXPECT_EQ(reopened_info->fork, 1u);
  EXPECT_EQ(reopened_info->head, 2u);
  EXPECT_EQ(HeadBytes(*reopened, "w"), head);
}

TEST_F(BranchRebaseTest, RebasesAcrossAParentMergeFrame) {
  // Main replaces node 14's children with a fresh text node T. Its full
  // merge frame undoes that (T goes) and the merge PUL re-creates T
  // under the same id. Main's range holds T's id in two parameter trees,
  // which no single aggregated PUL can; the parent delta then comes from
  // the diff operator.
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  ASSERT_TRUE(store.CreateBranch("r", "main", 0).ok());
  {
    label::Labeling labeling = label::Labeling::Build(store.head_doc());
    pul::Pul repc;
    repc.BindIdSpace(store.head_doc().max_assigned_id() + 1);
    xml::NodeId text = repc.NewTextParam("replaced");
    ASSERT_TRUE(repc.AddTreeOp(pul::OpKind::kReplaceChildren, 14, labeling,
                               {text})
                    .ok());
    ASSERT_TRUE(store.Commit(repc).ok());
  }
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", InsertPul(**doc, 2)).ok());
  MergeStats stats;
  ASSERT_TRUE(Merge(&store, "main", "w", {}, &stats).ok());
  ASSERT_FALSE(stats.fast_forward);
  doc = store.BranchHeadDoc("r");
  ASSERT_TRUE(store.CommitOnBranch("r", InsertPul(**doc, 3)).ok());
  Metrics metrics;
  RebaseOptions options;
  options.onto = store.head();
  options.metrics = &metrics;
  auto report = Rebase(&store, "r", options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->applied);
  EXPECT_EQ(report->replayed, 1u);
  EXPECT_GT(report->parent_delta_ops, 0u);
  EXPECT_EQ(metrics.counter("branch.rebase.delta_fallback"), 1u);
  std::string head = HeadBytes(store, "r");
  EXPECT_NE(head.find("replaced"), std::string::npos);
  EXPECT_NE(head.find("round 2"), std::string::npos);
  EXPECT_NE(head.find("round 3"), std::string::npos);
  auto verified = store.Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
}

TEST_F(BranchRebaseTest, ConflictAbortsAndInstallsNothing) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 1)).ok());
  // Main deletes the subtree the branch edited inside.
  ASSERT_TRUE(store.Commit(DeletePul(store.head_doc())).ok());
  std::string before = HeadBytes(store, "w");
  RebaseOptions options;
  options.onto = store.head();
  auto report = Rebase(&store, "w", options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->applied);
  ASSERT_EQ(report->conflicts.size(), 1u);
  EXPECT_EQ(report->conflicts[0].version, 1u);
  // Classified by the integration engine: the branch's repV is
  // overridden by the parent's ancestor-target delete.
  ASSERT_FALSE(report->conflicts[0].types.empty());
  EXPECT_EQ(report->conflicts[0].types[0],
            core::ConflictType::kNonLocalOverride);
  // Nothing changed on disk or in memory.
  auto info = store.GetBranch("w");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->fork, 0u);
  EXPECT_EQ(HeadBytes(store, "w"), before);
}

// Both sides give element 7 an attribute of one name. Replayed onto
// main, the branch commit would end with a duplicate attribute; the
// applicability check predicts that, so it is a conflict, not a failed
// rebase.
TEST_F(BranchRebaseTest, DuplicateAttributeOnReplayIsAConflict) {
  auto role = [](const xml::Document& doc, int round) {
    label::Labeling labeling = label::Labeling::Build(doc);
    pul::Pul p;
    p.BindIdSpace(doc.max_assigned_id() + 1 +
                  static_cast<xml::NodeId>(round) * 1000);
    xml::NodeId a = p.NewAttributeParam("role", std::to_string(round));
    EXPECT_TRUE(
        p.AddTreeOp(pul::OpKind::kInsAttributes, 7, labeling, {a}).ok());
    return p;
  };
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", role(**doc, 1)).ok());
  ASSERT_TRUE(store.Commit(role(store.head_doc(), 2)).ok());
  std::string before = HeadBytes(store, "w");
  RebaseOptions options;
  options.onto = store.head();
  auto report = Rebase(&store, "w", options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->applied);
  ASSERT_EQ(report->conflicts.size(), 1u);
  EXPECT_EQ(report->conflicts[0].version, 1u);
  EXPECT_NE(report->conflicts[0].detail.find("duplicate attribute"),
            std::string::npos);
  EXPECT_EQ(HeadBytes(store, "w"), before);
}

TEST_F(BranchRebaseTest, SkipConflictingDropsAndContinues) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 1)).ok());
  doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", InsertPul(**doc, 2)).ok());
  ASSERT_TRUE(store.Commit(DeletePul(store.head_doc())).ok());
  RebaseOptions options;
  options.onto = store.head();
  options.skip_conflicting = true;
  auto report = Rebase(&store, "w", options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->applied);
  EXPECT_EQ(report->replayed, 1u);  // the insert survives
  EXPECT_EQ(report->dropped, 1u);   // the repV inside the deleted subtree
  ASSERT_EQ(report->conflicts.size(), 1u);
  auto info = store.GetBranch("w");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->fork, 1u);
  EXPECT_EQ(info->head, 2u);
  std::string head = HeadBytes(store, "w");
  EXPECT_NE(head.find("round 2"), std::string::npos);
  EXPECT_EQ(head.find("value round 1"), std::string::npos);
}

// Every store file, by path relative to the store directory.
std::map<std::string, std::string> StoreFiles(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[fs::relative(entry.path(), dir).string()] = bytes.str();
  }
  return files;
}

// A full merge writes twin merge frames, one on each side's journal.
// Rebase rewrites the branch's journal, and a rewritten merge frame would
// detach from its twin on the other journal (the sync record pairing
// them would name a frame that no longer exists), so rebase refuses the
// branch before it touches anything.
TEST_F(BranchRebaseTest, BranchHoldingAMergeCommitIsRefused) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 1)).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 2)).ok());
  MergeStats stats;
  auto merged = Merge(&store, "main", "w", {}, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_FALSE(stats.fast_forward);
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 3)).ok());
  auto info = store.GetBranch("w");
  ASSERT_TRUE(info.ok()) << info.status();
  const uint64_t merge_version = info->head;
  const std::map<std::string, std::string> before =
      StoreFiles(dir_ / "store");
  RebaseOptions options;
  options.onto = store.head();
  auto report = Rebase(&store, "w", options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find(
                "has a merge commit at version " +
                std::to_string(merge_version)),
            std::string::npos)
      << report.status();
  EXPECT_EQ(StoreFiles(dir_ / "store"), before);
  auto after = store.GetBranch("w");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->fork, info->fork);
  EXPECT_EQ(after->head, merge_version);
  auto verified = store.Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
}

TEST_F(BranchRebaseTest, VoidsOlderSyncRecords) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  // w edits, main fast-forwards onto it: a sync record, but no merge
  // frame on w's journal — so w stays rebasable.
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 1)).ok());
  ASSERT_TRUE(Merge(&store, "main", "w").ok());
  auto base = store.MergeBase("main", "w");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->base_a, 1u);  // the sync
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 2)).ok());
  RebaseOptions options;
  options.onto = store.head();
  auto report = Rebase(&store, "w", options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->applied);
  // w's one commit replays even though the sync already carried it into
  // main — repV is idempotent, so the replay is harmless.
  EXPECT_EQ(report->replayed, 1u);
  auto info = store.GetBranch("w");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->fork, 2u);
  EXPECT_EQ(info->head, 3u);
  // The rebase voided the sync record: the base falls back to the new
  // fork point.
  base = store.MergeBase("main", "w");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->base_a, 2u);
  EXPECT_EQ(base->base_b, 2u);
  // And a later merge still converges the pair.
  doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 3)).ok());
  ASSERT_TRUE(Merge(&store, "main", "w").ok());
  EXPECT_EQ(HeadBytes(store, "main"), HeadBytes(store, "w"));
}

TEST_F(BranchRebaseTest, RefusesBranchesWithChildren) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 1)).ok());
  ASSERT_TRUE(store.CreateBranch("child", "w", 1).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 2)).ok());
  std::string child_before = HeadBytes(store, "child");
  RebaseOptions options;
  options.onto = store.head();
  auto report = Rebase(&store, "w", options);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("child"), std::string::npos)
      << report.status();
  // The store-level installer refuses independently of the rebase
  // engine's guard.
  EXPECT_FALSE(store.RewriteBranch("w", store.head(), {}, {}).ok());
  // The child's history through w is untouched.
  EXPECT_EQ(HeadBytes(store, "child"), child_before);
  auto verified = store.Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
  // Rebasing the leaf child itself stays legal (onto its parent w's
  // head, which is still version 1).
  RebaseOptions child_options;
  child_options.onto = 1;
  auto child_report = Rebase(&store, "child", child_options);
  ASSERT_TRUE(child_report.ok()) << child_report.status();
}

TEST_F(BranchRebaseTest, RejectsBadTargets) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 1)).ok());
  ASSERT_TRUE(store.CreateBranch("w", "main", 1).ok());
  RebaseOptions options;
  options.onto = 0;  // below the fork
  EXPECT_FALSE(Rebase(&store, "w", options).ok());
  options.onto = 7;  // beyond the parent head
  EXPECT_FALSE(Rebase(&store, "w", options).ok());
  EXPECT_FALSE(Rebase(&store, "main", options).ok());
  EXPECT_FALSE(Rebase(&store, "nope", options).ok());
}

}  // namespace
}  // namespace xupdate::branch
