#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/metrics.h"
#include "label/labeling.h"
#include "pul/apply.h"
#include "store/version.h"
#include "testing/test_docs.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"
#include "xml/parser.h"

namespace xupdate::store {
namespace {

namespace fs = std::filesystem;

// Group-commit contract of VersionStore::CommitBatch: one fsync for the
// whole batch, per-PUL outcomes, and byte-identity with the equivalent
// sequence of single Commit calls.
class CommitBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_commit_batch_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    doc_ = xupdate::testing::PaperFigureDocument();
    auto xml = VersionStore::SerializeAnnotated(doc_);
    ASSERT_TRUE(xml.ok());
    base_xml_ = *xml;
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string NewStoreDir(const std::string& name) {
    return (dir_ / name).string();
  }

  // A chain of PULs where pul i applies to the document after 0..i-1.
  std::vector<pul::Pul> Chain(size_t n, uint64_t seed) {
    label::Labeling labeling = label::Labeling::Build(doc_);
    workload::PulGenerator gen(doc_, labeling, seed);
    workload::PulGenerator::SequenceOptions seq;
    seq.num_puls = n;
    seq.ops_per_pul = 3;
    auto puls = gen.GenerateSequence(seq);
    EXPECT_TRUE(puls.ok()) << puls.status();
    return *puls;
  }

  fs::path dir_;
  xml::Document doc_;
  std::string base_xml_;
};

TEST_F(CommitBatchTest, BatchCoalescesFsyncsAndAssignsVersions) {
  constexpr size_t kPuls = 6;
  std::vector<pul::Pul> chain = Chain(kPuls, 17);
  Metrics metrics;
  StoreOptions options;
  options.metrics = &metrics;
  options.snapshot_every = 0;  // no checkpoint noise in the counters
  options.snapshot_bytes = 0;
  std::string dir = NewStoreDir("batch");
  ASSERT_TRUE(VersionStore::Init(dir, base_xml_, options).ok());
  auto store = VersionStore::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status();

  uint64_t fsyncs_before = metrics.counter("store.wal.fsync.count");
  std::vector<const pul::Pul*> batch;
  for (const pul::Pul& pul : chain) batch.push_back(&pul);
  std::vector<CommitOutcome> outcomes;
  auto committed = store->CommitBatch(batch, &outcomes);
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(*committed, kPuls);
  ASSERT_EQ(outcomes.size(), kPuls);
  for (size_t i = 0; i < kPuls; ++i) {
    EXPECT_TRUE(outcomes[i].status.ok()) << i << ": " << outcomes[i].status;
    EXPECT_EQ(outcomes[i].version, i + 1);
  }
  EXPECT_EQ(store->head(), kPuls);

  // The whole batch cost exactly one fdatasync — this is the group
  // commit the server's batcher builds on, and the inequality the
  // acceptance criterion (fsyncs < commits) rests on.
  uint64_t fsyncs = metrics.counter("store.wal.fsync.count") - fsyncs_before;
  EXPECT_EQ(fsyncs, 1u);
  EXPECT_EQ(metrics.counter("store.commit.count"), kPuls);
  EXPECT_EQ(metrics.counter("store.commit_batch.count"), 1u);

  auto verify = store->Verify();
  EXPECT_TRUE(verify.ok()) << verify.status();
}

TEST_F(CommitBatchTest, BatchMatchesSequentialCommitsByteForByte) {
  constexpr size_t kPuls = 5;
  std::vector<pul::Pul> chain = Chain(kPuls, 23);

  std::string seq_dir = NewStoreDir("seq");
  ASSERT_TRUE(VersionStore::Init(seq_dir, base_xml_, {}).ok());
  auto seq_store = VersionStore::Open(seq_dir);
  ASSERT_TRUE(seq_store.ok());
  for (const pul::Pul& pul : chain) {
    ASSERT_TRUE(seq_store->Commit(pul).ok());
  }

  std::string batch_dir = NewStoreDir("batch");
  ASSERT_TRUE(VersionStore::Init(batch_dir, base_xml_, {}).ok());
  auto batch_store = VersionStore::Open(batch_dir);
  ASSERT_TRUE(batch_store.ok());
  std::vector<const pul::Pul*> batch;
  for (const pul::Pul& pul : chain) batch.push_back(&pul);
  std::vector<CommitOutcome> outcomes;
  ASSERT_TRUE(batch_store->CommitBatch(batch, &outcomes).ok());

  ASSERT_EQ(seq_store->head(), batch_store->head());
  for (uint64_t v = 0; v <= seq_store->head(); ++v) {
    auto a = seq_store->CheckoutXml(v);
    auto b = batch_store->CheckoutXml(v);
    ASSERT_TRUE(a.ok()) << v;
    ASSERT_TRUE(b.ok()) << v;
    EXPECT_EQ(*a, *b) << "version " << v;
  }
}

TEST_F(CommitBatchTest, InapplicablePulIsSkippedRestCommits) {
  // Two PULs deleting the same node: once the first applies on the
  // batch's scratch document, the second is no longer applicable. The
  // rest of the batch keeps committing around it. The paper-figure
  // document is too small to survive losing a subtree AND still feed
  // the generator, so this test runs on a synthetic XMark document.
  xmark::Config config;
  config.target_bytes = 4096;
  config.seed = 9;
  auto text = xmark::GenerateDocumentText(config);
  ASSERT_TRUE(text.ok()) << text.status();
  auto parsed = xml::ParseDocument(*text);
  ASSERT_TRUE(parsed.ok());
  doc_ = std::move(*parsed);
  auto annotated = VersionStore::SerializeAnnotated(doc_);
  ASSERT_TRUE(annotated.ok());
  base_xml_ = *annotated;

  label::Labeling labeling = label::Labeling::Build(doc_);
  xml::NodeId victim = doc_.children(doc_.root()).front();
  pul::Pul delete_once;
  ASSERT_TRUE(delete_once.AddDelete(victim, labeling).ok());
  pul::Pul delete_again;
  ASSERT_TRUE(delete_again.AddDelete(victim, labeling).ok());
  // Applicability of the generated chain must not depend on the victim:
  // regenerate the chain on the post-delete document instead.
  xml::Document after = doc_;
  ASSERT_TRUE(pul::ApplyPul(&after, delete_once).ok());
  label::Labeling after_labeling = label::Labeling::Build(after);
  workload::PulGenerator gen(after, after_labeling, 31);
  workload::PulGenerator::SequenceOptions seq;
  seq.num_puls = 2;
  seq.ops_per_pul = 3;
  auto tail = gen.GenerateSequence(seq);
  ASSERT_TRUE(tail.ok()) << tail.status();
  std::vector<const pul::Pul*> batch = {&delete_once, &delete_again,
                                        &(*tail)[0], &(*tail)[1]};
  std::string dir = NewStoreDir("skip");
  ASSERT_TRUE(VersionStore::Init(dir, base_xml_, {}).ok());
  auto store = VersionStore::Open(dir);
  ASSERT_TRUE(store.ok());
  std::vector<CommitOutcome> outcomes;
  auto committed = store->CommitBatch(batch, &outcomes);
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(*committed, 3u);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[0].version, 1u);
  EXPECT_FALSE(outcomes[1].status.ok());  // the duplicate
  EXPECT_TRUE(outcomes[2].status.ok());
  EXPECT_EQ(outcomes[2].version, 2u);
  EXPECT_TRUE(outcomes[3].status.ok());
  EXPECT_EQ(outcomes[3].version, 3u);
  EXPECT_EQ(store->head(), 3u);
  auto verify = store->Verify();
  EXPECT_TRUE(verify.ok()) << verify.status();
}

TEST_F(CommitBatchTest, NullAndEmptyBatches) {
  std::string dir = NewStoreDir("empty");
  ASSERT_TRUE(VersionStore::Init(dir, base_xml_, {}).ok());
  auto store = VersionStore::Open(dir);
  ASSERT_TRUE(store.ok());

  std::vector<CommitOutcome> outcomes;
  auto none = store->CommitBatch({}, &outcomes);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
  EXPECT_TRUE(outcomes.empty());

  std::vector<const pul::Pul*> batch = {nullptr};
  auto null_batch = store->CommitBatch(batch, &outcomes);
  ASSERT_TRUE(null_batch.ok());
  EXPECT_EQ(*null_batch, 0u);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].status.ok());
  EXPECT_EQ(store->head(), 0u);
}

TEST_F(CommitBatchTest, WalFailureFailsWholeBatchAndKeepsMemoryState) {
  std::vector<pul::Pul> chain = Chain(3, 41);
  StoreOptions options;
  options.fail_after_bytes = 10;  // first append tears
  std::string dir = NewStoreDir("poison");
  ASSERT_TRUE(VersionStore::Init(dir, base_xml_, {}).ok());
  auto store = VersionStore::Open(dir, options);
  ASSERT_TRUE(store.ok());

  std::vector<const pul::Pul*> batch;
  for (const pul::Pul& pul : chain) batch.push_back(&pul);
  std::vector<CommitOutcome> outcomes;
  auto committed = store->CommitBatch(batch, &outcomes);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kIoError);
  ASSERT_EQ(outcomes.size(), 3u);
  for (const CommitOutcome& outcome : outcomes) {
    EXPECT_FALSE(outcome.status.ok());
  }
  // In-memory state untouched: head still 0, and the store still serves
  // version 0's bytes.
  EXPECT_EQ(store->head(), 0u);
  auto xml = store->CheckoutXml(0);
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, base_xml_);
  (void)store->Close();

  // And the torn journal recovers to the pre-batch state.
  auto recovered = VersionStore::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->head(), 0u);
  auto verify = recovered->Verify();
  EXPECT_TRUE(verify.ok()) << verify.status();
}

// Every commit entry is a group commit, and the fsync policy is applied
// once per group: `always` syncs every group, `never` none, and `batch`
// syncs the group that brings a journal's unsynced frames to
// `batch_interval`, counting frames across groups.
TEST_F(CommitBatchTest, FsyncPolicyIsAppliedOncePerGroup) {
  std::vector<pul::Pul> chain = Chain(7, 47);
  struct Case {
    FsyncPolicy policy;
    // Fsyncs of each step: three Commits, three CommitOnBranch calls,
    // then two CommitBatch calls of two PULs each.
    std::vector<uint64_t> fsyncs;
  };
  const std::vector<Case> cases = {
      {FsyncPolicy::kAlways, {1, 1, 1, 1, 1, 1, 1, 1}},
      {FsyncPolicy::kBatch, {0, 0, 1, 0, 0, 1, 0, 1}},
      {FsyncPolicy::kNever, {0, 0, 0, 0, 0, 0, 0, 0}},
  };
  for (const Case& c : cases) {
    std::string name(FsyncPolicyName(c.policy));
    SCOPED_TRACE(name);
    Metrics metrics;
    StoreOptions options;
    options.metrics = &metrics;
    options.fsync = c.policy;
    options.batch_interval = 3;
    options.snapshot_every = 0;
    options.snapshot_bytes = 0;
    std::string dir = NewStoreDir(name);
    ASSERT_TRUE(VersionStore::Init(dir, base_xml_, options).ok());
    auto store = VersionStore::Open(dir, options);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store->CreateBranch("b", "main", 0).ok());
    std::vector<uint64_t> fsyncs;
    auto step = [&](auto&& commit) {
      uint64_t before = metrics.counter("store.wal.fsync.count");
      commit();
      fsyncs.push_back(metrics.counter("store.wal.fsync.count") - before);
    };
    for (size_t i = 0; i < 3; ++i) {
      step([&] { ASSERT_TRUE(store->Commit(chain[i]).ok()); });
    }
    for (size_t i = 0; i < 3; ++i) {
      step([&] { ASSERT_TRUE(store->CommitOnBranch("b", chain[i]).ok()); });
    }
    for (size_t i = 3; i < 7; i += 2) {
      step([&] {
        auto committed = store->CommitBatch({&chain[i], &chain[i + 1]},
                                            nullptr);
        ASSERT_TRUE(committed.ok()) << committed.status();
        EXPECT_EQ(*committed, 2u);
      });
    }
    EXPECT_EQ(fsyncs, c.fsyncs);
    EXPECT_EQ(store->head(), 7u);
    auto verify = store->Verify();
    EXPECT_TRUE(verify.ok()) << verify.status();
  }
}

TEST_F(CommitBatchTest, CreateBranchSyncsItsNewJournalOnce) {
  Metrics metrics;
  StoreOptions options;
  options.metrics = &metrics;
  std::string dir = NewStoreDir("branch");
  ASSERT_TRUE(VersionStore::Init(dir, base_xml_, options).ok());
  auto store = VersionStore::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status();
  uint64_t before = metrics.counter("store.wal.fsync.count");
  ASSERT_TRUE(store->CreateBranch("b", "main", 0).ok());
  // One forced sync of the parent journal (the fork point must not
  // outlive its base), one of the new journal's meta frame.
  EXPECT_EQ(metrics.counter("store.wal.fsync.count") - before, 2u);
}

// A one-PUL CommitBatch and a Commit take the same path, so they leave
// the same store files behind, checkpoints included.
TEST_F(CommitBatchTest, OnePulBatchesLeaveTheSameFilesAsCommits) {
  std::vector<pul::Pul> chain = Chain(10, 53);
  StoreOptions options;
  options.snapshot_every = 4;
  std::string commit_dir = NewStoreDir("commit");
  std::string batch_dir = NewStoreDir("batch");
  for (const std::string& dir : {commit_dir, batch_dir}) {
    ASSERT_TRUE(VersionStore::Init(dir, base_xml_, options).ok());
    auto store = VersionStore::Open(dir, options);
    ASSERT_TRUE(store.ok()) << store.status();
    for (const pul::Pul& pul : chain) {
      if (dir == commit_dir) {
        ASSERT_TRUE(store->Commit(pul).ok());
      } else {
        auto committed = store->CommitBatch({&pul}, nullptr);
        ASSERT_TRUE(committed.ok()) << committed.status();
        ASSERT_EQ(*committed, 1u);
      }
    }
    ASSERT_TRUE(store->Close().ok());
  }
  auto files = [](const std::string& dir) {
    std::map<std::string, std::string> out;
    for (const auto& entry : fs::directory_iterator(dir)) {
      auto bytes = ReadFileToString(entry.path().string());
      EXPECT_TRUE(bytes.ok()) << bytes.status();
      out[entry.path().filename().string()] = *bytes;
    }
    return out;
  };
  std::map<std::string, std::string> committed = files(commit_dir);
  EXPECT_EQ(committed.size(), 4u);  // wal.log + checkpoints 0, 4 and 8
  EXPECT_EQ(files(batch_dir), committed);
}

// A one-PUL group is checked and applied on the resident head, after
// its frame is durable, so every dynamic error of the apply must be
// caught before the append: a PUL that fails at the apply leaves no
// frame, no change to the head document, and a store that keeps
// committing and reopens.
TEST_F(CommitBatchTest, OnePulBatchThatCannotApplyLeavesNoTrace) {
  label::Labeling labeling = label::Labeling::Build(doc_);
  // Element 7 already has @position.
  pul::Pul duplicate;
  duplicate.BindIdSpace(doc_.max_assigned_id() + 1);
  ASSERT_TRUE(duplicate
                  .AddTreeOp(pul::OpKind::kInsAttributes, 7, labeling,
                             {duplicate.NewAttributeParam("position", "01")})
                  .ok());
  // A parameter tree whose node id names an existing node (id 1 is the
  // document root): materializing it would clash.
  pul::Pul clashing;
  auto tree = clashing.AddFragment("<x/>");
  ASSERT_TRUE(tree.ok()) << tree.status();
  ASSERT_TRUE(doc_.Exists(*tree));
  ASSERT_TRUE(
      clashing.AddTreeOp(pul::OpKind::kInsLast, 4, labeling, {*tree}).ok());
  const std::vector<std::pair<const pul::Pul*, StatusCode>> cases = {
      {&duplicate, StatusCode::kNotApplicable},
      {&clashing, StatusCode::kInvalidArgument},
  };
  std::vector<pul::Pul> chain = Chain(1, 59);
  for (const auto& [bad, code] : cases) {
    SCOPED_TRACE(StatusCodeToString(code));
    std::string dir = NewStoreDir(std::string(StatusCodeToString(code)));
    ASSERT_TRUE(VersionStore::Init(dir, base_xml_, {}).ok());
    auto store = VersionStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status();
    auto head_xml = VersionStore::SerializeAnnotated(store->head_doc());
    ASSERT_TRUE(head_xml.ok());
    const uint64_t wal_bytes = store->wal_bytes();

    std::vector<CommitOutcome> outcomes;
    auto committed = store->CommitBatch({bad}, &outcomes);
    ASSERT_TRUE(committed.ok()) << committed.status();
    EXPECT_EQ(*committed, 0u);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status.code(), code) << outcomes[0].status;
    EXPECT_EQ(store->head(), 0u);
    auto after_xml = VersionStore::SerializeAnnotated(store->head_doc());
    ASSERT_TRUE(after_xml.ok());
    EXPECT_EQ(*after_xml, *head_xml);
    EXPECT_EQ(store->wal_bytes(), wal_bytes);
    auto commit = store->Commit(*bad);
    ASSERT_FALSE(commit.ok());
    EXPECT_EQ(commit.status().code(), code);
    EXPECT_EQ(store->wal_bytes(), wal_bytes);
    auto verify = store->Verify();
    EXPECT_TRUE(verify.ok()) << verify.status();

    auto next = store->Commit(chain[0]);
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_EQ(*next, 1u);
    ASSERT_TRUE(store->Close().ok());
    auto reopened = VersionStore::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->head(), 1u);
    verify = reopened->Verify();
    EXPECT_TRUE(verify.ok()) << verify.status();
  }
}

}  // namespace
}  // namespace xupdate::store
