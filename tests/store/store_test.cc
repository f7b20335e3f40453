#include "store/version.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "label/labeling.h"
#include "pul/apply.h"
#include "testing/test_docs.h"
#include "workload/pul_generator.h"
#include "xml/parser.h"

namespace xupdate::store {
namespace {

namespace fs = std::filesystem;

class VersionStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_store_test_" +
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

  std::string StoreDir(const std::string& name = "store") {
    return (dir_ / name).string();
  }

  // One PUL replacing the value of text node 15, distinguishable per
  // round.
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

  // One PUL inserting a fresh element after node 19.
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

  fs::path dir_;
  xml::Document base_doc_;
  std::string base_xml_;
};

TEST_F(VersionStoreTest, InitCreatesVersionZero) {
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_).ok());
  auto store = VersionStore::Open(StoreDir());
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->head(), 0u);
  auto xml = store->CheckoutXml(0);
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, base_xml_);
  ASSERT_EQ(store->snapshots().versions().size(), 1u);
  EXPECT_EQ(store->snapshots().versions()[0], 0u);
}

TEST_F(VersionStoreTest, InitRefusesExistingStore) {
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_).ok());
  EXPECT_FALSE(VersionStore::Init(StoreDir(), base_xml_).ok());
}

TEST_F(VersionStoreTest, CommitAdvancesHeadAndCheckoutReplays) {
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_).ok());
  auto store = VersionStore::Open(StoreDir());
  ASSERT_TRUE(store.ok());
  std::vector<std::string> expected;
  expected.push_back(base_xml_);
  for (int round = 0; round < 5; ++round) {
    pul::Pul pul = round % 2 == 0 ? RepVPul(store->head_doc(), round)
                                  : InsertPul(store->head_doc(), round);
    auto version = store->Commit(pul);
    ASSERT_TRUE(version.ok()) << version.status();
    EXPECT_EQ(*version, static_cast<uint64_t>(round + 1));
    auto xml = VersionStore::SerializeAnnotated(store->head_doc());
    ASSERT_TRUE(xml.ok());
    expected.push_back(*xml);
  }
  // Every historical version replays to the bytes recorded at commit
  // time, and versions are stable across reopen.
  for (uint64_t v = 0; v <= 5; ++v) {
    auto xml = store->CheckoutXml(v);
    ASSERT_TRUE(xml.ok()) << xml.status();
    EXPECT_EQ(*xml, expected[v]) << "version " << v;
  }
  ASSERT_TRUE(store->Close().ok());
  auto reopened = VersionStore::Open(StoreDir());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->head(), 5u);
  for (uint64_t v = 0; v <= 5; ++v) {
    auto xml = reopened->CheckoutXml(v);
    ASSERT_TRUE(xml.ok());
    EXPECT_EQ(*xml, expected[v]) << "version " << v;
  }
}

TEST_F(VersionStoreTest, CheckoutBeyondHeadFails) {
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_).ok());
  auto store = VersionStore::Open(StoreDir());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Checkout(1).ok());
}

TEST_F(VersionStoreTest, SnapshotCadenceByVersions) {
  StoreOptions options;
  options.snapshot_every = 2;
  options.snapshot_bytes = 0;
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_, options).ok());
  auto store = VersionStore::Open(StoreDir(), options);
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(store->Commit(RepVPul(store->head_doc(), round)).ok());
  }
  EXPECT_EQ(store->snapshots().versions(),
            (std::vector<uint64_t>{0, 2, 4, 6}));
}

TEST_F(VersionStoreTest, SnapshotCadenceByJournalBytes) {
  StoreOptions options;
  options.snapshot_every = 0;
  options.snapshot_bytes = 1;  // every commit crosses the byte budget
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_, options).ok());
  auto store = VersionStore::Open(StoreDir(), options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Commit(RepVPul(store->head_doc(), 0)).ok());
  ASSERT_TRUE(store->Commit(RepVPul(store->head_doc(), 1)).ok());
  EXPECT_EQ(store->snapshots().versions(),
            (std::vector<uint64_t>{0, 1, 2}));
}

TEST_F(VersionStoreTest, LogListsFramesInOrder) {
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_).ok());
  auto store = VersionStore::Open(StoreDir());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Commit(RepVPul(store->head_doc(), 0)).ok());
  ASSERT_TRUE(store->Commit(InsertPul(store->head_doc(), 1)).ok());
  auto entries = store->LogBranch("main", /*with_op_counts=*/false);
  ASSERT_TRUE(entries.ok()) << entries.status();
  const std::vector<LogEntry>& log = *entries;
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].version, 1u);
  EXPECT_EQ(log[0].type, FrameType::kPul);
  EXPECT_EQ(log[1].version, 2u);
  EXPECT_GT(log[1].offset, log[0].offset);
  EXPECT_GT(log[0].payload_bytes, 0u);
}

TEST_F(VersionStoreTest, RollbackRestoresBytesAndKeepsHistory) {
  StoreOptions options;
  options.snapshot_every = 2;
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_, options).ok());
  auto store = VersionStore::Open(StoreDir(), options);
  ASSERT_TRUE(store.ok());
  std::vector<std::string> expected;
  expected.push_back(base_xml_);
  for (int round = 0; round < 4; ++round) {
    pul::Pul pul = round % 2 == 0 ? InsertPul(store->head_doc(), round)
                                  : RepVPul(store->head_doc(), round);
    ASSERT_TRUE(store->Commit(pul).ok());
    auto xml = VersionStore::SerializeAnnotated(store->head_doc());
    ASSERT_TRUE(xml.ok());
    expected.push_back(*xml);
  }
  auto rolled = store->Rollback(1);
  ASSERT_TRUE(rolled.ok()) << rolled.status();
  EXPECT_GT(*rolled, 4u);
  auto head_xml = store->CheckoutXml(store->head());
  ASSERT_TRUE(head_xml.ok());
  EXPECT_EQ(*head_xml, expected[1]);
  // Rolling back commits forward: the pre-rollback versions remain
  // addressable with their original bytes.
  for (uint64_t v = 0; v <= 4; ++v) {
    auto xml = store->CheckoutXml(v);
    ASSERT_TRUE(xml.ok());
    EXPECT_EQ(*xml, expected[v]) << "version " << v;
  }
  // Rollback to the current head is rejected.
  EXPECT_FALSE(store->Rollback(store->head()).ok());
}

// Successive rollbacks on a seeded 9-version workload (checkpoints at
// 0, 3, 6, 9): each new head is byte-equal to its target, Verify passes
// after every rollback, and the committed undo frames do not depend on
// the reduce parallelism.
TEST_F(VersionStoreTest, RollbackOnGeneratedWorkload) {
  label::Labeling labeling = label::Labeling::Build(base_doc_);
  workload::PulGenerator gen(base_doc_, labeling, /*seed=*/2718);
  workload::PulGenerator::SequenceOptions seq;
  seq.num_puls = 9;
  seq.ops_per_pul = 4;
  auto puls = gen.GenerateSequence(seq);
  ASSERT_TRUE(puls.ok()) << puls.status();
  std::vector<std::string> journals;
  for (int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    std::string path = StoreDir("p" + std::to_string(parallelism));
    StoreOptions options;
    options.snapshot_every = 3;
    options.parallelism = parallelism;
    ASSERT_TRUE(VersionStore::Init(path, base_xml_, options).ok());
    {
      auto store = VersionStore::Open(path, options);
      ASSERT_TRUE(store.ok()) << store.status();
      for (const pul::Pul& pul : *puls) {
        auto version = store->Commit(pul);
        ASSERT_TRUE(version.ok()) << version.status();
      }
      ASSERT_TRUE(store->Close().ok());
    }
    for (uint64_t to : {7u, 4u, 0u}) {
      SCOPED_TRACE("rollback to " + std::to_string(to));
      auto store = VersionStore::Open(path, options);
      ASSERT_TRUE(store.ok()) << store.status();
      auto head = store->Rollback(to);
      ASSERT_TRUE(head.ok()) << head.status();
      auto head_xml = store->CheckoutXml(*head);
      auto target = store->CheckoutXml(to);
      ASSERT_TRUE(head_xml.ok()) << head_xml.status();
      ASSERT_TRUE(target.ok()) << target.status();
      EXPECT_EQ(*head_xml, *target);
      auto verify = store->Verify();
      EXPECT_TRUE(verify.ok()) << verify.status();
      ASSERT_TRUE(store->Close().ok());
    }
    auto journal = ReadFileToString(path + "/wal.log");
    ASSERT_TRUE(journal.ok()) << journal.status();
    journals.push_back(*journal);
  }
  EXPECT_EQ(journals[0], journals[1]);
}

TEST_F(VersionStoreTest, FailedCommitLeavesStoreConsistent) {
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_).ok());
  std::string durable_xml;
  {
    StoreOptions options;
    auto store = VersionStore::Open(StoreDir(), options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Commit(RepVPul(store->head_doc(), 0)).ok());
    auto xml = VersionStore::SerializeAnnotated(store->head_doc());
    ASSERT_TRUE(xml.ok());
    durable_xml = *xml;
    ASSERT_TRUE(store->Close().ok());
  }
  {
    // Re-open with a fault budget that tears the next append.
    StoreOptions options;
    options.fail_after_bytes = 40;
    auto store = VersionStore::Open(StoreDir(), options);
    ASSERT_TRUE(store.ok());
    auto failed = store->Commit(RepVPul(store->head_doc(), 1));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
    // In-memory state is untouched by the failed commit.
    EXPECT_EQ(store->head(), 1u);
    (void)store->Close();
  }
  auto recovered = VersionStore::Open(StoreDir());
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->head(), 1u);
  auto xml = recovered->CheckoutXml(1);
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, durable_xml);
  auto verify = recovered->Verify();
  EXPECT_TRUE(verify.ok()) << verify.status();
}

TEST_F(VersionStoreTest, VerifyPassesOnGeneratedWorkload) {
  StoreOptions options;
  options.snapshot_every = 3;
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_, options).ok());
  auto store = VersionStore::Open(StoreDir(), options);
  ASSERT_TRUE(store.ok());
  label::Labeling labeling = label::Labeling::Build(base_doc_);
  workload::PulGenerator gen(base_doc_, labeling, 31);
  workload::PulGenerator::SequenceOptions seq;
  seq.num_puls = 7;
  seq.ops_per_pul = 5;
  auto puls = gen.GenerateSequence(seq);
  ASSERT_TRUE(puls.ok()) << puls.status();
  for (const pul::Pul& pul : *puls) {
    auto version = store->Commit(pul);
    ASSERT_TRUE(version.ok()) << version.status();
  }
  auto report = store->Verify();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->head, 7u);
  EXPECT_EQ(report->frames, 7u);
  EXPECT_EQ(report->replayed_versions, 7u);
  EXPECT_GE(report->snapshots_checked, 3u);
}

TEST_F(VersionStoreTest, MetricsAndTracerObserveLifecycle) {
  Metrics metrics;
  obs::Tracer tracer;
  StoreOptions options;
  options.metrics = &metrics;
  options.tracer = &tracer;
  options.snapshot_every = 1;
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_, options).ok());
  auto store = VersionStore::Open(StoreDir(), options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Commit(RepVPul(store->head_doc(), 0)).ok());
  EXPECT_EQ(metrics.counter("store.commit.count"), 1u);
  EXPECT_GT(metrics.counter("store.wal.append.frames"), 0u);
  EXPECT_GT(metrics.counter("store.snapshot.write.count"), 0u);
  EXPECT_GT(metrics.timer("store.commit.seconds").count, 0u);
  // Open + checkpoint both left deterministic trace notes.
  bool saw_open = false;
  bool saw_checkpoint = false;
  for (const obs::TraceEvent& event : tracer.SortedEvents()) {
    if (event.scope == "store" && event.name == "open") saw_open = true;
    if (event.scope == "store" && event.name == "checkpoint") {
      saw_checkpoint = true;
    }
  }
  EXPECT_TRUE(saw_open);
  EXPECT_TRUE(saw_checkpoint);
}

// A whitespace-only text node is content like any other: a checkpoint
// must keep it, so the checkpointed version, a reopened head and Verify
// all agree with the resident head. (The XML parser drops such text by
// default, so a checkpoint read back as parsed XML lost it.)
TEST_F(VersionStoreTest, WhitespaceOnlyTextSurvivesCheckpoint) {
  auto base = xml::ParseDocument("<a><b>x</b></a>");
  ASSERT_TRUE(base.ok()) << base.status();
  auto base_xml = VersionStore::SerializeAnnotated(*base);
  ASSERT_TRUE(base_xml.ok());
  StoreOptions options;
  options.snapshot_every = 1;
  ASSERT_TRUE(VersionStore::Init(StoreDir(), *base_xml, options).ok());
  std::string head_xml;
  {
    auto store = VersionStore::Open(StoreDir(), options);
    ASSERT_TRUE(store.ok()) << store.status();
    label::Labeling labeling = label::Labeling::Build(store->head_doc());
    pul::Pul pul;
    pul.BindIdSpace(store->head_doc().max_assigned_id() + 1);
    ASSERT_TRUE(
        pul.AddStringOp(pul::OpKind::kReplaceValue, 3, labeling, "   ").ok());
    auto version = store->Commit(pul);
    ASSERT_TRUE(version.ok()) << version.status();
    ASSERT_EQ(store->snapshots().versions(), (std::vector<uint64_t>{0, 1}));
    auto xml = VersionStore::SerializeAnnotated(store->head_doc());
    ASSERT_TRUE(xml.ok());
    head_xml = *xml;
    EXPECT_EQ(head_xml, "<a xu:ids=\"1\"><b xu:ids=\"2\"><?xuid 3?>   </b></a>");
    auto checkout = store->CheckoutXml(*version);
    ASSERT_TRUE(checkout.ok()) << checkout.status();
    EXPECT_EQ(*checkout, head_xml);
    ASSERT_TRUE(store->Close().ok());
  }
  auto reopened = VersionStore::Open(StoreDir(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(reopened->head_doc().Exists(3));
  auto xml = VersionStore::SerializeAnnotated(reopened->head_doc());
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, head_xml);
  auto verify = reopened->Verify();
  EXPECT_TRUE(verify.ok()) << verify.status();
}

}  // namespace
}  // namespace xupdate::store
