#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "label/labeling.h"
#include "store/snapshot.h"
#include "store/version.h"
#include "store/wal.h"
#include "testing/test_docs.h"
#include "workload/pul_generator.h"

namespace xupdate::store {
namespace {

namespace fs = std::filesystem;

// Crash-recovery contract: truncating the journal at ANY byte offset
// inside the final frame must recover to the last complete version,
// with a clean Verify() and byte-identical checkouts.
class RecoveryTest : public ::testing::Test {
 protected:
  static constexpr size_t kVersions = 7;  // snapshots land at 0, 3, 6

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_recovery_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    base_dir_ = (dir_ / "base").string();

    xml::Document doc = xupdate::testing::PaperFigureDocument();
    auto base_xml = VersionStore::SerializeAnnotated(doc);
    ASSERT_TRUE(base_xml.ok());

    StoreOptions options;
    options.snapshot_every = 3;  // the final version is NOT snapshotted
    ASSERT_TRUE(VersionStore::Init(base_dir_, *base_xml, options).ok());
    auto store = VersionStore::Open(base_dir_, options);
    ASSERT_TRUE(store.ok()) << store.status();

    label::Labeling labeling = label::Labeling::Build(doc);
    workload::PulGenerator gen(doc, labeling, 42);
    workload::PulGenerator::SequenceOptions seq;
    seq.num_puls = kVersions;
    seq.ops_per_pul = 3;
    auto puls = gen.GenerateSequence(seq);
    ASSERT_TRUE(puls.ok()) << puls.status();

    expected_.push_back(*base_xml);
    for (const pul::Pul& pul : *puls) {
      auto version = store->Commit(pul);
      ASSERT_TRUE(version.ok()) << version.status();
      auto xml = VersionStore::SerializeAnnotated(store->head_doc());
      ASSERT_TRUE(xml.ok());
      expected_.push_back(*xml);
    }
    ASSERT_EQ(store->head(), kVersions);
    ASSERT_TRUE(store->Close().ok());

    journal_path_ = base_dir_ + "/wal.log";
    auto journal = ReadFileToString(journal_path_);
    ASSERT_TRUE(journal.ok());
    journal_ = *journal;

    // Locate the final frame via a direct Wal scan of the clean file.
    auto wal = Wal::Open(journal_path_, {});
    ASSERT_TRUE(wal.ok());
    ASSERT_EQ(wal->frames().size(), kVersions);
    const WalFrameInfo& last = wal->frames().back();
    final_frame_start_ = last.offset;
    ASSERT_EQ(final_frame_start_ + Wal::kFrameHeaderSize +
                  Wal::kFrameBodyFixedSize + last.payload_bytes,
              journal_.size());
    ASSERT_TRUE(wal->Close().ok());
  }

  void TearDown() override { fs::remove_all(dir_); }

  // Clones the base store, truncating its journal to `cut` bytes.
  std::string CloneTruncated(uint64_t cut, const std::string& name) {
    std::string clone = (dir_ / name).string();
    fs::copy(base_dir_, clone, fs::copy_options::recursive);
    std::ofstream f(clone + "/wal.log",
                    std::ios::binary | std::ios::trunc);
    f << journal_.substr(0, cut);
    f.close();
    return clone;
  }

  fs::path dir_;
  std::string base_dir_;
  std::string journal_path_;
  std::string journal_;
  uint64_t final_frame_start_ = 0;
  std::vector<std::string> expected_;  // expected_[v] = annotated xml
};

TEST_F(RecoveryTest, EveryByteOffsetOfFinalFrameRecovers) {
  // Every cut inside the final frame loses exactly the last version.
  for (uint64_t cut = final_frame_start_; cut < journal_.size(); ++cut) {
    std::string clone =
        CloneTruncated(cut, "cut_" + std::to_string(cut));
    OpenReport report;
    auto store = VersionStore::Open(clone, {}, &report);
    ASSERT_TRUE(store.ok()) << "cut=" << cut << ": " << store.status();
    EXPECT_EQ(store->head(), kVersions - 1) << "cut=" << cut;
    EXPECT_EQ(report.wal.truncated_bytes, cut - final_frame_start_)
        << "cut=" << cut;
    auto xml = store->CheckoutXml(store->head());
    ASSERT_TRUE(xml.ok()) << "cut=" << cut;
    EXPECT_EQ(*xml, expected_[kVersions - 1]) << "cut=" << cut;
    auto verify = store->Verify();
    EXPECT_TRUE(verify.ok()) << "cut=" << cut << ": " << verify.status();
    ASSERT_TRUE(store->Close().ok());
    fs::remove_all(clone);
  }
}

TEST_F(RecoveryTest, FullJournalRecoversHeadVersion) {
  std::string clone = CloneTruncated(journal_.size(), "full");
  auto store = VersionStore::Open(clone);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->head(), kVersions);
  auto xml = store->CheckoutXml(kVersions);
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, expected_[kVersions]);
  auto verify = store->Verify();
  EXPECT_TRUE(verify.ok()) << verify.status();
}

TEST_F(RecoveryTest, RecoveredStoreAcceptsNewCommits) {
  std::string clone =
      CloneTruncated(final_frame_start_ + 1, "recommit");
  auto store = VersionStore::Open(clone);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(store->head(), kVersions - 1);
  xml::Document head = store->head_doc();
  label::Labeling labeling = label::Labeling::Build(head);
  workload::PulGenerator gen(head, labeling, 7);
  workload::PulGenerator::SequenceOptions seq;
  seq.num_puls = 2;
  seq.ops_per_pul = 2;
  auto puls = gen.GenerateSequence(seq);
  ASSERT_TRUE(puls.ok());
  for (const pul::Pul& pul : *puls) {
    ASSERT_TRUE(store->Commit(pul).ok());
  }
  EXPECT_EQ(store->head(), kVersions + 1);
  auto verify = store->Verify();
  EXPECT_TRUE(verify.ok()) << verify.status();
  // Pre-crash history is still byte-stable.
  for (uint64_t v = 0; v < kVersions; ++v) {
    auto xml = store->CheckoutXml(v);
    ASSERT_TRUE(xml.ok());
    EXPECT_EQ(*xml, expected_[v]) << "version " << v;
  }
}

TEST_F(RecoveryTest, StaleSnapshotAfterDataLossIsRemoved) {
  // Cut away the last frame entirely; the snapshot at version 6 is now
  // the head snapshot, but fabricate the scenario where a snapshot
  // exists ABOVE the recovered head (fsync=never crash) by cutting back
  // to version 5 (inside frame 6) while snapshots 0/3/6 survive.
  auto wal = Wal::Open(journal_path_, {});
  ASSERT_TRUE(wal.ok());
  uint64_t frame6_start = wal->frames()[5].offset;
  ASSERT_TRUE(wal->Close().ok());
  std::string clone = CloneTruncated(frame6_start + 3, "stale");
  ASSERT_TRUE(PathExists(clone + "/" + SnapshotStore::FileName(6)));
  OpenReport report;
  auto store = VersionStore::Open(clone, {}, &report);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->head(), 5u);
  EXPECT_EQ(report.snapshots_ignored, 1u);
  // Deleted from disk, not merely unindexed, so no later Open can pick
  // it up as a replay base once the head grows past version 6 again.
  EXPECT_FALSE(PathExists(clone + "/" + SnapshotStore::FileName(6)));
  EXPECT_FALSE(store->snapshots().Has(6));
  auto xml = store->CheckoutXml(5);
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, expected_[5]);
  auto verify = store->Verify();
  EXPECT_TRUE(verify.ok()) << verify.status();
}

TEST_F(RecoveryTest, RecommitPastStaleSnapshotServesNewBytes) {
  // Crash back to version 5 while the checkpoint for version 6
  // survives, then commit new versions 6..8. Checkout must serve the
  // NEW bytes for those versions — if the stale checkpoint were still
  // indexed, NearestAtOrBelow would hand Checkout(6..8) the pre-crash
  // document as its replay base.
  auto wal = Wal::Open(journal_path_, {});
  ASSERT_TRUE(wal.ok());
  uint64_t frame6_start = wal->frames()[5].offset;
  ASSERT_TRUE(wal->Close().ok());
  std::string clone = CloneTruncated(frame6_start + 3, "recommit_stale");
  auto store = VersionStore::Open(clone);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_EQ(store->head(), 5u);

  xml::Document head = store->head_doc();
  label::Labeling labeling = label::Labeling::Build(head);
  workload::PulGenerator gen(head, labeling, 1234);
  workload::PulGenerator::SequenceOptions seq;
  seq.num_puls = 3;
  seq.ops_per_pul = 3;
  auto puls = gen.GenerateSequence(seq);
  ASSERT_TRUE(puls.ok()) << puls.status();
  std::vector<std::string> fresh;  // fresh[i] = bytes of version 6 + i
  for (const pul::Pul& pul : *puls) {
    ASSERT_TRUE(store->Commit(pul).ok());
    auto bytes = VersionStore::SerializeAnnotated(store->head_doc());
    ASSERT_TRUE(bytes.ok());
    fresh.push_back(*bytes);
  }
  ASSERT_EQ(store->head(), 8u);
  for (uint64_t v = 6; v <= 8; ++v) {
    auto xml = store->CheckoutXml(v);
    ASSERT_TRUE(xml.ok()) << "version " << v << ": " << xml.status();
    EXPECT_EQ(*xml, fresh[v - 6]) << "version " << v;
  }
  // The re-taken version 6 genuinely differs from its pre-crash bytes,
  // so the EQ above really distinguishes the two histories.
  EXPECT_NE(fresh[0], expected_[6]);
  auto verify = store->Verify();
  EXPECT_TRUE(verify.ok()) << verify.status();
  ASSERT_TRUE(store->Close().ok());
  // A reopen re-scans the snapshot directory; the new bytes must
  // survive that too.
  auto reopened = VersionStore::Open(clone);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  for (uint64_t v = 6; v <= 8; ++v) {
    auto xml = reopened->CheckoutXml(v);
    ASSERT_TRUE(xml.ok()) << "version " << v;
    EXPECT_EQ(*xml, fresh[v - 6]) << "version " << v;
  }
}

TEST_F(RecoveryTest, CrashAfterTruncateBeforeDirsyncRecovers) {
  // Torn-tail truncation is followed by an fsync of the parent
  // directory (mirroring WriteFileAtomic), so a crash in that window
  // cannot resurrect the torn suffix on media that reorders metadata.
  // From userspace the observable contract is: (a) after recovery the
  // journal on disk IS the truncated prefix, and (b) if a crash in the
  // window nevertheless re-exposes the torn bytes, a second recovery
  // reaches the identical state — truncation is idempotent.
  uint64_t cut = final_frame_start_ + 5;  // mid-frame: header survives
  std::string clone = CloneTruncated(cut, "dirsync");
  std::string torn_suffix = journal_.substr(final_frame_start_, 5);

  {
    OpenReport report;
    auto store = VersionStore::Open(clone, {}, &report);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(store->head(), kVersions - 1);
    EXPECT_EQ(report.wal.truncated_bytes, 5u);
    ASSERT_TRUE(store->Close().ok());
  }
  // (a) The on-disk journal is exactly the pre-torn prefix.
  auto after_first = ReadFileToString(clone + "/wal.log");
  ASSERT_TRUE(after_first.ok());
  EXPECT_EQ(after_first->size(), final_frame_start_);
  EXPECT_EQ(*after_first, journal_.substr(0, final_frame_start_));

  // (b) Simulate the crash-in-window worst case: the torn suffix
  // reappears. Recovery must truncate it again and land in the same
  // state, serving the same bytes.
  {
    std::ofstream f(clone + "/wal.log",
                    std::ios::binary | std::ios::app);
    f << torn_suffix;
  }
  OpenReport report;
  auto store = VersionStore::Open(clone, {}, &report);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->head(), kVersions - 1);
  EXPECT_EQ(report.wal.truncated_bytes, 5u);
  auto xml = store->CheckoutXml(store->head());
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, expected_[kVersions - 1]);
  auto verify = store->Verify();
  EXPECT_TRUE(verify.ok()) << verify.status();
  ASSERT_TRUE(store->Close().ok());
  auto after_second = ReadFileToString(clone + "/wal.log");
  ASSERT_TRUE(after_second.ok());
  EXPECT_EQ(*after_second, journal_.substr(0, final_frame_start_));
}

TEST_F(RecoveryTest, FaultInjectionBudgetSweep) {
  // Measure the byte size of the next frame by letting one clone commit
  // it cleanly, then sweep fault budgets across that frame: every
  // budget that tears the frame must fail the commit yet leave a store
  // that recovers to the pre-commit head.
  xml::Document head;
  pul::Pul next_pul;
  {
    auto store = VersionStore::Open(base_dir_);
    ASSERT_TRUE(store.ok());
    head = store->head_doc();
  }
  label::Labeling labeling = label::Labeling::Build(head);
  workload::PulGenerator gen(head, labeling, 99);
  workload::PulGenerator::SequenceOptions seq;
  seq.num_puls = 1;
  seq.ops_per_pul = 3;
  auto puls = gen.GenerateSequence(seq);
  ASSERT_TRUE(puls.ok());
  next_pul = (*puls)[0];

  uint64_t frame_bytes = 0;
  {
    std::string probe = CloneTruncated(journal_.size(), "probe");
    auto store = VersionStore::Open(probe);
    ASSERT_TRUE(store.ok());
    uint64_t before = fs::file_size(probe + "/wal.log");
    ASSERT_TRUE(store->Commit(next_pul).ok());
    frame_bytes = fs::file_size(probe + "/wal.log") - before;
    ASSERT_TRUE(store->Close().ok());
  }
  ASSERT_GT(frame_bytes, Wal::kFrameHeaderSize + Wal::kFrameBodyFixedSize);

  const std::vector<uint64_t> budgets = {
      0, 1, Wal::kFrameHeaderSize - 1, Wal::kFrameHeaderSize,
      Wal::kFrameHeaderSize + Wal::kFrameBodyFixedSize,
      frame_bytes / 2, frame_bytes - 1};
  for (uint64_t budget : budgets) {
    std::string clone =
        CloneTruncated(journal_.size(), "budget_" + std::to_string(budget));
    {
      StoreOptions options;
      options.fail_after_bytes = static_cast<int64_t>(budget);
      auto store = VersionStore::Open(clone, options);
      ASSERT_TRUE(store.ok()) << "budget=" << budget;
      auto failed = store->Commit(next_pul);
      ASSERT_FALSE(failed.ok()) << "budget=" << budget;
      EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
      EXPECT_EQ(store->head(), kVersions);
      (void)store->Close();
    }
    auto recovered = VersionStore::Open(clone);
    ASSERT_TRUE(recovered.ok())
        << "budget=" << budget << ": " << recovered.status();
    EXPECT_EQ(recovered->head(), kVersions) << "budget=" << budget;
    auto xml = recovered->CheckoutXml(kVersions);
    ASSERT_TRUE(xml.ok());
    EXPECT_EQ(*xml, expected_[kVersions]);
    auto verify = recovered->Verify();
    EXPECT_TRUE(verify.ok())
        << "budget=" << budget << ": " << verify.status();
    ASSERT_TRUE(recovered->Close().ok());
    fs::remove_all(clone);
  }
}

// A checkpoint cut at any byte, or with any one byte flipped, is
// skipped and counted at Open, and the version it held still checks
// out byte-identically by replay from the checkpoint below it.
TEST_F(RecoveryTest, TornOrFlippedCheckpointIsIgnored) {
  std::string clone = CloneTruncated(journal_.size(), "damaged_snapshot");
  std::string snap_path = clone + "/" + SnapshotStore::FileName(3);
  auto snap = ReadFileToString(snap_path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  const std::string good = *snap;
  auto expect_ignored = [&](const std::string& damaged,
                            const std::string& what) {
    ASSERT_TRUE(WriteFileAtomic(snap_path, damaged).ok());
    OpenReport report;
    auto store = VersionStore::Open(clone, {}, &report);
    ASSERT_TRUE(store.ok()) << what << ": " << store.status();
    EXPECT_EQ(report.snapshots_ignored, 1u) << what;
    EXPECT_FALSE(store->snapshots().Has(3)) << what;
    auto xml = store->CheckoutXml(3);
    ASSERT_TRUE(xml.ok()) << what << ": " << xml.status();
    EXPECT_EQ(*xml, expected_[3]) << what;
    ASSERT_TRUE(store->Close().ok());
  };
  for (size_t cut = 0; cut < good.size(); ++cut) {
    ASSERT_NO_FATAL_FAILURE(expect_ignored(good.substr(0, cut),
                                           "cut at " + std::to_string(cut)));
  }
  for (size_t at = 0; at < good.size(); ++at) {
    std::string flipped = good;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xff);
    ASSERT_NO_FATAL_FAILURE(
        expect_ignored(flipped, "byte " + std::to_string(at) + " flipped"));
  }
  // Restored, the checkpoint serves again.
  ASSERT_TRUE(WriteFileAtomic(snap_path, good).ok());
  OpenReport report;
  auto store = VersionStore::Open(clone, {}, &report);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(report.snapshots_ignored, 0u);
  EXPECT_TRUE(store->snapshots().Has(3));
}

// A complete checkpoint of the retired XUSNP001 format (id-annotated
// XML) fails Open with an error naming the file and the format; a torn
// one is skipped like any torn file.
TEST_F(RecoveryTest, RetiredXmlCheckpointFailsOpen) {
  std::string clone = CloneTruncated(journal_.size(), "retired_snapshot");
  std::string snap_path = clone + "/" + SnapshotStore::FileName(3);
  WalFrame frame;
  frame.type = FrameType::kSnapshot;
  frame.version = 3;
  frame.payload = expected_[3];
  std::string retired =
      std::string(kRetiredSnapshotMagic, kSnapshotMagicSize) +
      Wal::EncodeFrame(frame);
  ASSERT_TRUE(WriteFileAtomic(snap_path, retired).ok());
  auto store = VersionStore::Open(clone);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(store.status().message().find(SnapshotStore::FileName(3)),
            std::string::npos)
      << store.status();
  EXPECT_NE(store.status().message().find("XUSNP001"), std::string::npos)
      << store.status();

  ASSERT_TRUE(
      WriteFileAtomic(snap_path, retired.substr(0, retired.size() - 1)).ok());
  OpenReport report;
  auto reopened = VersionStore::Open(clone, {}, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(report.snapshots_ignored, 1u);
  auto xml = reopened->CheckoutXml(3);
  ASSERT_TRUE(xml.ok()) << xml.status();
  EXPECT_EQ(*xml, expected_[3]);
}

}  // namespace
}  // namespace xupdate::store
