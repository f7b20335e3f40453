#include "store/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/file_io.h"
#include "pul/pul.h"
#include "store/version.h"

namespace xupdate::store {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_wal_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "wal.log").string();
  }

  void TearDown() override { fs::remove_all(dir_); }

  static WalFrame PulFrame(uint64_t version, std::string payload) {
    WalFrame frame;
    frame.type = FrameType::kPul;
    frame.version = version;
    frame.payload = std::move(payload);
    return frame;
  }

  std::string ReadAll() {
    auto data = ReadFileToString(path_);
    EXPECT_TRUE(data.ok());
    return data.ok() ? *data : std::string();
  }

  void WriteAll(const std::string& data) {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f << data;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(WalTest, CreateWritesMagicOnly) {
  auto wal = Wal::Create(path_, {});
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE(wal->Close().ok());
  std::string data = ReadAll();
  ASSERT_EQ(data.size(), Wal::kMagicSize);
  EXPECT_EQ(data, std::string(Wal::kMagic, Wal::kMagicSize));
}

TEST_F(WalTest, CreateRefusesExistingFile) {
  { auto wal = Wal::Create(path_, {}); ASSERT_TRUE(wal.ok()); }
  auto again = Wal::Create(path_, {});
  EXPECT_FALSE(again.ok());
}

TEST_F(WalTest, AppendReopenRoundTrip) {
  {
    auto wal = Wal::Create(path_, {});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(PulFrame(1, "first")).ok());
    ASSERT_TRUE(wal->Append(PulFrame(2, "second payload")).ok());
    WalFrame merge;
    merge.type = FrameType::kMerge;
    merge.version = 3;
    merge.aux = 2;
    merge.payload = "merge";
    ASSERT_TRUE(wal->Append(merge).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  WalRecovery recovery;
  auto wal = Wal::Open(path_, {}, &recovery);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(recovery.frames, 3u);
  EXPECT_EQ(recovery.truncated_bytes, 0u);
  ASSERT_EQ(wal->frames().size(), 3u);
  EXPECT_EQ(wal->frames()[0].version, 1u);
  EXPECT_EQ(wal->frames()[1].version, 2u);
  EXPECT_EQ(wal->frames()[2].type, FrameType::kMerge);
  EXPECT_EQ(wal->frames()[2].aux, 2u);
  auto frame = wal->ReadFrame(wal->frames()[1]);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->payload, "second payload");
}

// Type bytes 2 and 3 held the aggregate and undo frames of the retired
// journal compactor. A journal still holding one is refused with the
// named unknown-type error, by the journal and by the store alike, and
// is never truncated as a torn tail.
TEST_F(WalTest, RetiredFrameTypesAreRefusedNotTruncated) {
  for (uint8_t retired : {2, 3}) {
    SCOPED_TRACE("type " + std::to_string(retired));
    std::string store_dir =
        (dir_ / ("store" + std::to_string(retired))).string();
    ASSERT_TRUE(VersionStore::Init(store_dir, "<a/>").ok());
    {
      auto store = VersionStore::Open(store_dir);
      ASSERT_TRUE(store.ok()) << store.status();
      ASSERT_TRUE(store->Commit(pul::Pul()).ok());
      ASSERT_TRUE(store->Close().ok());
    }
    std::string journal = store_dir + "/wal.log";
    WalFrame old;
    old.type = static_cast<FrameType>(retired);
    old.version = 1;
    old.aux = 0;
    old.payload = "<pul/>";
    {
      std::ofstream f(journal, std::ios::binary | std::ios::app);
      f << Wal::EncodeFrame(old);
    }
    auto before = ReadFileToString(journal);
    ASSERT_TRUE(before.ok());
    std::string named = "unknown frame type " + std::to_string(retired);

    auto wal = Wal::Open(journal, {});
    ASSERT_FALSE(wal.ok());
    EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(wal.status().message().find(named), std::string::npos)
        << wal.status();

    auto store = VersionStore::Open(store_dir);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(store.status().message().find(named), std::string::npos)
        << store.status();

    auto after = ReadFileToString(journal);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, *before);
  }
}

TEST_F(WalTest, TornTailIsTruncatedOnOpen) {
  {
    auto wal = Wal::Create(path_, {});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(PulFrame(1, "one")).ok());
    ASSERT_TRUE(wal->Append(PulFrame(2, "two")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  std::string intact = ReadAll();
  // Simulate a crash mid-append: half of a third frame.
  std::string partial = Wal::EncodeFrame(PulFrame(3, "torn"));
  WriteAll(intact + partial.substr(0, partial.size() / 2));
  WalRecovery recovery;
  auto wal = Wal::Open(path_, {}, &recovery);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(recovery.frames, 2u);
  EXPECT_EQ(recovery.truncated_bytes, partial.size() / 2);
  // The truncation is persisted: the file is back to the intact bytes.
  EXPECT_EQ(ReadAll(), intact);
}

TEST_F(WalTest, MidFileCorruptionTruncatesFromThere) {
  {
    auto wal = Wal::Create(path_, {});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(PulFrame(1, "aaaa")).ok());
    ASSERT_TRUE(wal->Append(PulFrame(2, "bbbb")).ok());
    ASSERT_TRUE(wal->Append(PulFrame(3, "cccc")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  std::string data = ReadAll();
  // Flip one payload byte in the second frame.
  size_t frame_bytes = Wal::EncodeFrame(PulFrame(1, "aaaa")).size();
  size_t second_payload =
      Wal::kMagicSize + frame_bytes + Wal::kFrameHeaderSize +
      Wal::kFrameBodyFixedSize;
  data[second_payload] ^= 0x01;
  WriteAll(data);
  WalRecovery recovery;
  auto wal = Wal::Open(path_, {}, &recovery);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(recovery.frames, 1u);
  EXPECT_GT(recovery.truncated_bytes, 0u);
}

TEST_F(WalTest, BadMagicRejected) {
  WriteAll("NOTAWAL0");
  EXPECT_FALSE(Wal::Open(path_, {}).ok());
  WriteAll("short");
  EXPECT_FALSE(Wal::Open(path_, {}).ok());
}

TEST_F(WalTest, AppendAfterRecoveryContinuesCleanly) {
  {
    auto wal = Wal::Create(path_, {});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(PulFrame(1, "one")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  WriteAll(ReadAll() + "torn-partial-frame");
  {
    auto wal = Wal::Open(path_, {});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(PulFrame(2, "two")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  auto wal = Wal::Open(path_, {});
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(wal->frames().size(), 2u);
  auto frame = wal->ReadFrame(wal->frames()[1]);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->payload, "two");
}

TEST_F(WalTest, FaultInjectionTearsExactlyAtBudget) {
  WalOptions options;
  // Budget covers the first frame and half of the second.
  std::string first = Wal::EncodeFrame(PulFrame(1, "payload-one"));
  std::string second = Wal::EncodeFrame(PulFrame(2, "payload-two"));
  options.fail_after_bytes =
      static_cast<int64_t>(first.size() + second.size() / 2);
  auto wal = Wal::Create(path_, options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(PulFrame(1, "payload-one")).ok());
  Status failed = wal->Append(PulFrame(2, "payload-two"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // A third append keeps failing (the budget is exhausted).
  EXPECT_FALSE(wal->Append(PulFrame(3, "x")).ok());
  (void)wal->Close();
  // Recovery sees exactly the one complete frame.
  WalRecovery recovery;
  auto reopened = Wal::Open(path_, {}, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(recovery.frames, 1u);
  EXPECT_EQ(recovery.truncated_bytes, second.size() / 2);
}

TEST_F(WalTest, PoisonedAfterFailedAppend) {
  WalOptions options;
  std::string first = Wal::EncodeFrame(PulFrame(1, "payload-one"));
  std::string second = Wal::EncodeFrame(PulFrame(2, "payload-two"));
  options.fail_after_bytes =
      static_cast<int64_t>(first.size() + second.size() / 2);
  auto wal = Wal::Create(path_, options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(PulFrame(1, "payload-one")).ok());
  ASSERT_FALSE(wal->Append(PulFrame(2, "payload-two")).ok());
  // The failure left torn bytes at the tail; a "successful" append
  // after them would be truncated away by the next recovery. The
  // handle must refuse up front instead.
  Status refused = wal->Append(PulFrame(3, "payload-three"));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kIoError);
  EXPECT_NE(refused.message().find("poisoned"), std::string::npos)
      << refused.message();
  EXPECT_EQ(wal->frames().size(), 1u);
  // Close skips the sync of a poisoned journal but still closes.
  EXPECT_TRUE(wal->Close().ok());
  // Reopening clears the poison: recovery truncates the torn tail and
  // appends flow again.
  auto reopened = Wal::Open(path_, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_EQ(reopened->frames().size(), 1u);
  ASSERT_TRUE(reopened->Append(PulFrame(2, "retried")).ok());
  ASSERT_TRUE(reopened->Close().ok());
}

TEST_F(WalTest, DecodeRejectsOversizedLength) {
  std::string frame = Wal::EncodeFrame(PulFrame(1, "abc"));
  // Claim a body longer than the data that follows.
  frame[0] = static_cast<char>(0xff);
  size_t offset = 0;
  EXPECT_FALSE(Wal::DecodeFrame(frame, &offset).ok());
}

TEST_F(WalTest, FsyncPolicyNamesRoundTrip) {
  for (FsyncPolicy policy :
       {FsyncPolicy::kAlways, FsyncPolicy::kBatch, FsyncPolicy::kNever}) {
    FsyncPolicy parsed;
    ASSERT_TRUE(FsyncPolicyFromName(FsyncPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  FsyncPolicy out;
  EXPECT_FALSE(FsyncPolicyFromName("sometimes", &out));
}

TEST_F(WalTest, MetricsCountAppendsAndRecovery) {
  Metrics metrics;
  WalOptions options;
  options.metrics = &metrics;
  {
    auto wal = Wal::Create(path_, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(PulFrame(1, "one")).ok());
    ASSERT_TRUE(wal->Append(PulFrame(2, "two")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  EXPECT_EQ(metrics.counter("store.wal.append.frames"), 2u);
  EXPECT_GT(metrics.counter("store.wal.append.bytes"), 0u);
  EXPECT_GT(metrics.counter("store.wal.fsync.count"), 0u);
  WriteAll(ReadAll() + "garbage-tail");
  auto wal = Wal::Open(path_, options);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(metrics.counter("store.wal.open.frames"), 2u);
  EXPECT_EQ(metrics.counter("store.wal.open.truncated_bytes"),
            std::string("garbage-tail").size());
}

}  // namespace
}  // namespace xupdate::store
