#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "branch/merge.h"
#include "common/file_io.h"
#include "label/labeling.h"
#include "store/version.h"
#include "store/wal.h"
#include "testing/test_docs.h"

namespace xupdate::store {
namespace {

namespace fs = std::filesystem;

// Crash-recovery contract for branch journals: each branch's WAL
// truncated independently at any byte offset of its final frame must
// recover to the branch's last complete version, leave every other
// journal untouched, and pass a full Verify().
class BranchRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_branch_recovery_test_" +
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

  Result<uint64_t> CommitInsert(VersionStore* store,
                                const std::string& branch, int round) {
    auto doc = store->BranchHeadDoc(branch);
    if (!doc.ok()) return doc.status();
    return store->CommitOnBranch(branch, InsertPul(**doc, round));
  }

  std::string HeadBytes(const VersionStore& store, const std::string& name) {
    auto info = store.GetBranch(name);
    EXPECT_TRUE(info.ok()) << info.status();
    auto bytes = store.CheckoutXmlBranch(name, info->head);
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    return *bytes;
  }

  // Builds the base store used by the truncation matrices: main at
  // version 2, branch "w" forked at version 1 with commits 2..4 of its
  // own. Records the expected bytes of every version on both chains.
  void BuildBaseStore() {
    base_dir_ = (dir_ / "base").string();
    ASSERT_TRUE(VersionStore::Init(base_dir_, base_xml_).ok());
    auto store = VersionStore::Open(base_dir_);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store->Commit(InsertPul(store->head_doc(), 1)).ok());
    ASSERT_TRUE(store->CreateBranch("w", "main", 1).ok());
    ASSERT_TRUE(store->Commit(InsertPul(store->head_doc(), 2)).ok());
    ASSERT_EQ(store->head(), 2u);
    for (int round = 3; round <= 5; ++round) {
      ASSERT_TRUE(CommitInsert(&*store, "w", round).ok());
    }
    auto info = store->GetBranch("w");
    ASSERT_TRUE(info.ok());
    ASSERT_EQ(info->head, 4u);
    for (uint64_t v = 0; v <= 2; ++v) {
      auto bytes = store->CheckoutXml(v);
      ASSERT_TRUE(bytes.ok());
      main_bytes_.push_back(*bytes);
    }
    for (uint64_t v = 0; v <= 4; ++v) {
      auto bytes = store->CheckoutXmlBranch("w", v);
      ASSERT_TRUE(bytes.ok());
      branch_bytes_.push_back(*bytes);
    }
    ASSERT_TRUE(store->Close().ok());
  }

  // The final frame's start offset and the file size of a journal.
  void FinalFrameBounds(const std::string& path, uint64_t* start,
                        uint64_t* size) {
    auto journal = ReadFileToString(path);
    ASSERT_TRUE(journal.ok());
    *size = journal->size();
    auto wal = Wal::Open(path, {});
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_FALSE(wal->frames().empty());
    *start = wal->frames().back().offset;
    ASSERT_TRUE(wal->Close().ok());
  }

  // Clones the base store, truncating `file` (relative) to `cut` bytes.
  std::string CloneTruncated(const std::string& file, uint64_t cut,
                             const std::string& name) {
    std::string clone = (dir_ / name).string();
    fs::copy(base_dir_, clone, fs::copy_options::recursive);
    auto journal = ReadFileToString(clone + "/" + file);
    EXPECT_TRUE(journal.ok());
    std::ofstream f(clone + "/" + file,
                    std::ios::binary | std::ios::trunc);
    f << journal->substr(0, cut);
    f.close();
    return clone;
  }

  fs::path dir_;
  std::string base_dir_;
  xml::Document base_doc_;
  std::string base_xml_;
  std::vector<std::string> main_bytes_;    // main_bytes_[v]
  std::vector<std::string> branch_bytes_;  // branch_bytes_[v] on w's chain
};

TEST_F(BranchRecoveryTest, EveryByteOffsetOfBranchFinalFrameRecovers) {
  BuildBaseStore();
  uint64_t start = 0, size = 0;
  FinalFrameBounds(base_dir_ + "/branch-w.log", &start, &size);
  for (uint64_t cut = start; cut < size; ++cut) {
    std::string clone =
        CloneTruncated("branch-w.log", cut, "wcut_" + std::to_string(cut));
    OpenReport report;
    auto store = VersionStore::Open(clone, {}, &report);
    ASSERT_TRUE(store.ok()) << "cut=" << cut << ": " << store.status();
    EXPECT_EQ(report.branches, 1u) << "cut=" << cut;
    // The branch lost exactly its last version; main is untouched.
    auto info = store->GetBranch("w");
    ASSERT_TRUE(info.ok()) << "cut=" << cut;
    EXPECT_EQ(info->head, 3u) << "cut=" << cut;
    EXPECT_EQ(store->head(), 2u) << "cut=" << cut;
    EXPECT_EQ(HeadBytes(*store, "w"), branch_bytes_[3]) << "cut=" << cut;
    EXPECT_EQ(HeadBytes(*store, "main"), main_bytes_[2]) << "cut=" << cut;
    auto verify = store->Verify();
    ASSERT_TRUE(verify.ok()) << "cut=" << cut << ": " << verify.status();
    ASSERT_EQ(verify->branches.size(), 1u);
    EXPECT_EQ(verify->branches[0].head, 3u) << "cut=" << cut;
    ASSERT_TRUE(store->Close().ok());
    fs::remove_all(clone);
  }
}

TEST_F(BranchRecoveryTest, EveryByteOffsetOfMainFinalFrameKeepsBranch) {
  BuildBaseStore();
  uint64_t start = 0, size = 0;
  FinalFrameBounds(base_dir_ + "/wal.log", &start, &size);
  for (uint64_t cut = start; cut < size; ++cut) {
    std::string clone =
        CloneTruncated("wal.log", cut, "mcut_" + std::to_string(cut));
    auto store = VersionStore::Open(clone);
    ASSERT_TRUE(store.ok()) << "cut=" << cut << ": " << store.status();
    // Main rolls back to the fork point; w keeps its whole chain (its
    // journal was not touched and it forked at version 1).
    EXPECT_EQ(store->head(), 1u) << "cut=" << cut;
    auto info = store->GetBranch("w");
    ASSERT_TRUE(info.ok()) << "cut=" << cut;
    EXPECT_EQ(info->head, 4u) << "cut=" << cut;
    EXPECT_EQ(HeadBytes(*store, "w"), branch_bytes_[4]) << "cut=" << cut;
    EXPECT_EQ(HeadBytes(*store, "main"), main_bytes_[1]) << "cut=" << cut;
    auto verify = store->Verify();
    ASSERT_TRUE(verify.ok()) << "cut=" << cut << ": " << verify.status();
    ASSERT_TRUE(store->Close().ok());
    fs::remove_all(clone);
  }
}

TEST_F(BranchRecoveryTest, TornSyncRollsBackBothJournals) {
  std::string path = (dir_ / "torn").string();
  ASSERT_TRUE(VersionStore::Init(path, base_xml_).ok());
  std::string pre_main, pre_w;
  {
    auto store = VersionStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store->CreateBranch("w", "main", 0).ok());
    ASSERT_TRUE(store->Commit(InsertPul(store->head_doc(), 1)).ok());
    auto doc = store->BranchHeadDoc("w");
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(store->CommitOnBranch("w", RepVPul(**doc, 2)).ok());
    pre_main = HeadBytes(*store, "main");
    pre_w = HeadBytes(*store, "w");
    auto merged = xupdate::branch::Merge(&*store, "main", "w");
    ASSERT_TRUE(merged.ok()) << merged.status();
    ASSERT_TRUE(merged->committed_a);
    ASSERT_TRUE(merged->committed_b);
    ASSERT_TRUE(store->Close().ok());
  }
  // Drop the sync record: both journals now end in a merge frame whose
  // commit marker never made it to branches.log — a crash between the
  // frame appends and the sync-record append.
  {
    std::ofstream f(path + "/branches.log",
                    std::ios::binary | std::ios::trunc);
    f.write(Wal::kMagic, Wal::kMagicSize);
  }
  OpenReport report;
  auto store = VersionStore::Open(path, {}, &report);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(report.merges_rolled_back, 2u);
  // Both sides rolled back to their pre-merge heads, byte-exactly.
  EXPECT_EQ(store->head(), 1u);
  auto info = store->GetBranch("w");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->head, 1u);
  EXPECT_EQ(HeadBytes(*store, "main"), pre_main);
  EXPECT_EQ(HeadBytes(*store, "w"), pre_w);
  auto verify = store->Verify();
  ASSERT_TRUE(verify.ok()) << verify.status();
  // The pair merges again from the fork point and converges.
  auto base = store->MergeBase("main", "w");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->base_a, 0u);
  EXPECT_EQ(base->base_b, 0u);
  ASSERT_TRUE(xupdate::branch::Merge(&*store, "main", "w").ok());
  EXPECT_EQ(HeadBytes(*store, "main"), HeadBytes(*store, "w"));
}

TEST_F(BranchRecoveryTest, CommittedMergeSurvivesReopenWithParents) {
  std::string path = (dir_ / "committed").string();
  ASSERT_TRUE(VersionStore::Init(path, base_xml_).ok());
  std::string merged_bytes;
  {
    auto store = VersionStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store->CreateBranch("w", "main", 0).ok());
    ASSERT_TRUE(store->Commit(InsertPul(store->head_doc(), 1)).ok());
    auto doc = store->BranchHeadDoc("w");
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(store->CommitOnBranch("w", RepVPul(**doc, 2)).ok());
    ASSERT_TRUE(xupdate::branch::Merge(&*store, "main", "w").ok());
    // Keep committing past the merge so it is no longer the tail frame
    // on either journal — recovery must only ever roll back TAIL merges.
    ASSERT_TRUE(store->Commit(InsertPul(store->head_doc(), 3)).ok());
    ASSERT_TRUE(CommitInsert(&*store, "w", 4).ok());
    merged_bytes = HeadBytes(*store, "main");
    ASSERT_TRUE(store->Close().ok());
  }
  OpenReport report;
  auto store = VersionStore::Open(path, {}, &report);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(report.merges_rolled_back, 0u);
  EXPECT_EQ(store->head(), 3u);
  auto info = store->GetBranch("w");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->head, 3u);
  EXPECT_EQ(HeadBytes(*store, "main"), merged_bytes);
  // Both parents of the merge stay resolvable: the audit re-reads every
  // merge frame and resolves (branch, version) on each side.
  auto verify = store->Verify();
  ASSERT_TRUE(verify.ok()) << verify.status();
  EXPECT_EQ(verify->merges_checked, 1u);
  ASSERT_EQ(verify->branches.size(), 1u);
  EXPECT_EQ(verify->branches[0].merges_checked, 1u);
}

TEST_F(BranchRecoveryTest, RefusedJournalKeepsItsSyncedMergeFrames) {
  // Both journals end in a merge frame whose sync record is committed
  // under their own names. A journal file Open must refuse, misnamed
  // or without a meta frame, must not lose those frames to the
  // torn-sync rollback, which looks sync records up by file name.
  std::string path = (dir_ / "synced").string();
  ASSERT_TRUE(VersionStore::Init(path, base_xml_).ok());
  {
    auto store = VersionStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store->CreateBranch("a", "main", 0).ok());
    ASSERT_TRUE(store->Commit(InsertPul(store->head_doc(), 1)).ok());
    auto doc = store->BranchHeadDoc("a");
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(store->CommitOnBranch("a", RepVPul(**doc, 2)).ok());
    auto merged = xupdate::branch::Merge(&*store, "main", "a");
    ASSERT_TRUE(merged.ok()) << merged.status();
    ASSERT_TRUE(merged->committed_a);
    ASSERT_TRUE(merged->committed_b);
    ASSERT_TRUE(store->Close().ok());
  }
  struct Case {
    std::string from, to, error;
  };
  for (const Case& c :
       {Case{"branch-a.log", "branch-b.log", "declares name"},
        Case{"wal.log", "branch-x.log", "metadata frame"}}) {
    SCOPED_TRACE(c.to);
    std::string clone = (dir_ / ("refused_" + c.to)).string();
    fs::copy(path, clone, fs::copy_options::recursive);
    if (c.from.rfind("branch-", 0) == 0) {
      fs::rename(clone + "/" + c.from, clone + "/" + c.to);
    } else {
      fs::copy_file(clone + "/" + c.from, clone + "/" + c.to);
    }
    auto before = ReadFileToString(clone + "/" + c.to);
    ASSERT_TRUE(before.ok());
    auto wal = Wal::Open(clone + "/" + c.to, {});
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_EQ(wal->frames().back().type, FrameType::kMerge);
    ASSERT_TRUE(wal->Close().ok());
    auto store = VersionStore::Open(clone);
    ASSERT_FALSE(store.ok());
    EXPECT_NE(store.status().message().find(c.error), std::string::npos)
        << store.status();
    auto after = ReadFileToString(clone + "/" + c.to);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, *before);
    fs::remove_all(clone);
  }
}

TEST_F(BranchRecoveryTest, ForkPointSnapshotReuseIsByteIdenticalAcrossParallelism) {
  // The branch forks at a checkpointed version and its checkouts below
  // the fork resolve through the parent's snapshots. The replay must be
  // byte-identical at parallelism 1 and 4.
  std::string path = (dir_ / "snap").string();
  StoreOptions build_options;
  build_options.snapshot_every = 2;  // checkpoints at versions 2 and 4
  ASSERT_TRUE(VersionStore::Init(path, base_xml_, build_options).ok());
  {
    auto store = VersionStore::Open(path, build_options);
    ASSERT_TRUE(store.ok()) << store.status();
    for (int round = 1; round <= 4; ++round) {
      ASSERT_TRUE(store->Commit(InsertPul(store->head_doc(), round)).ok());
    }
    ASSERT_TRUE(store->snapshots().Has(4));
    ASSERT_TRUE(store->CreateBranch("w", "main", 4).ok());
    ASSERT_TRUE(CommitInsert(&*store, "w", 5).ok());
    ASSERT_TRUE(CommitInsert(&*store, "w", 6).ok());
    ASSERT_TRUE(store->Close().ok());
  }
  std::vector<std::string> at_p1;
  for (int parallelism : {1, 4}) {
    StoreOptions options;
    options.parallelism = parallelism;
    auto store = VersionStore::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status();
    std::vector<std::string> bytes;
    for (uint64_t v = 0; v <= 6; ++v) {
      auto xml = store->CheckoutXmlBranch("w", v);
      ASSERT_TRUE(xml.ok()) << "p=" << parallelism << " v=" << v << ": "
                            << xml.status();
      bytes.push_back(*xml);
    }
    // Below the fork the branch serves the parent's bytes (the shared
    // snapshot at the fork point really is shared).
    for (uint64_t v = 0; v <= 4; ++v) {
      auto main_xml = store->CheckoutXml(v);
      ASSERT_TRUE(main_xml.ok());
      EXPECT_EQ(bytes[v], *main_xml) << "p=" << parallelism << " v=" << v;
    }
    auto verify = store->Verify();
    ASSERT_TRUE(verify.ok()) << verify.status();
    ASSERT_TRUE(store->Close().ok());
    if (at_p1.empty()) {
      at_p1 = std::move(bytes);
    } else {
      for (uint64_t v = 0; v <= 6; ++v) {
        EXPECT_EQ(bytes[v], at_p1[v]) << "parallelism divergence at v=" << v;
      }
    }
  }
}

TEST_F(BranchRecoveryTest, FailedCreateBranchLeavesNoJournalBehind) {
  std::string path = (dir_ / "create_fail").string();
  ASSERT_TRUE(VersionStore::Init(path, base_xml_).ok());
  {
    StoreOptions options;
    options.fail_after_bytes = 0;  // the meta-frame append tears
    auto store = VersionStore::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status();
    auto created = store->CreateBranch("w", "main", 0);
    ASSERT_FALSE(created.ok());
    // The torn journal was removed: an in-session retry fails on the
    // (still-injected) write fault, not on "journal already exists".
    auto retried = store->CreateBranch("w", "main", 0);
    ASSERT_FALSE(retried.ok());
    EXPECT_EQ(retried.message().find("already exists"), std::string::npos)
        << retried;
    ASSERT_TRUE(store->Close().ok());
  }
  // No branch materializes at the next Open, and the name is free.
  auto reopened = VersionStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(reopened->BranchNames().empty());
  EXPECT_TRUE(reopened->CreateBranch("w", "main", 0).ok());
}

TEST_F(BranchRecoveryTest, UnknownFrameTypeIsANamedErrorNotASilentSkip) {
  BuildBaseStore();
  // A CRC-valid frame of a type this build does not know must fail the
  // open loudly — truncating it as a "torn tail" would drop real data
  // written by a newer format.
  WalFrame alien;
  alien.type = static_cast<FrameType>(9);
  alien.version = 99;
  alien.payload = "from the future";
  std::string encoded = Wal::EncodeFrame(alien);
  for (const std::string& file : {std::string("wal.log"),
                                  std::string("branch-w.log")}) {
    std::string clone = (dir_ / ("alien_" + file)).string();
    fs::copy(base_dir_, clone, fs::copy_options::recursive);
    {
      std::ofstream f(clone + "/" + file,
                      std::ios::binary | std::ios::app);
      f << encoded;
    }
    auto store = VersionStore::Open(clone);
    ASSERT_FALSE(store.ok()) << file;
    EXPECT_NE(store.status().message().find("unknown frame type"),
              std::string::npos)
        << file << ": " << store.status();
    fs::remove_all(clone);
  }
}

}  // namespace
}  // namespace xupdate::store
