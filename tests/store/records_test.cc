#include "store/records.h"

#include <gtest/gtest.h>

#include <string>

#include "common/framing.h"

namespace xupdate::store {
namespace {

MergeRecord SampleMerge() {
  MergeRecord record;
  record.other = "w";
  record.other_parent = 7;
  record.base_own = 3;
  record.base_other = 4;
  record.chain = {"<pul/>", "", "<pul>x</pul>"};
  return record;
}

TEST(RecordsTest, MergeRecordRoundTripsAndEveryTruncationFails) {
  std::string payload = EncodeMergeRecord(SampleMerge());
  auto decoded = DecodeMergeRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(EncodeMergeRecord(*decoded), payload);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto truncated = DecodeMergeRecord(payload.substr(0, cut));
    ASSERT_FALSE(truncated.ok()) << cut;
    EXPECT_EQ(truncated.status().code(), StatusCode::kParseError) << cut;
  }
}

TEST(RecordsTest, ChainCountBeyondThePayloadIsTruncationNotAnAllocation) {
  // A count of 2^32 - 1 entries in a payload holding none: the decoder
  // must report truncation without reserving room for the count first.
  MergeRecord record = SampleMerge();
  record.chain.clear();
  std::string payload = EncodeMergeRecord(record);
  payload.resize(payload.size() - 4);
  framing::PutU32(&payload, 0xFFFFFFFFu);
  auto decoded = DecodeMergeRecord(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(RecordsTest, BranchLogRecordsRoundTrip) {
  SyncRecord sync;
  sync.branch_a = "main";
  sync.version_a = 9;
  sync.branch_b = "w";
  sync.version_b = 5;
  sync.frame_a = true;
  auto decoded_sync = DecodeBranchLogRecord(EncodeSyncRecord(sync));
  ASSERT_TRUE(decoded_sync.ok()) << decoded_sync.status();
  EXPECT_EQ(decoded_sync->kind, 1);
  EXPECT_EQ(EncodeSyncRecord(decoded_sync->sync), EncodeSyncRecord(sync));
  RebaseRecord rebase;
  rebase.branch = "w";
  rebase.old_fork = 2;
  rebase.new_fork = 6;
  auto decoded_rebase = DecodeBranchLogRecord(EncodeRebaseRecord(rebase));
  ASSERT_TRUE(decoded_rebase.ok()) << decoded_rebase.status();
  EXPECT_EQ(decoded_rebase->kind, 2);
  EXPECT_EQ(EncodeRebaseRecord(decoded_rebase->rebase),
            EncodeRebaseRecord(rebase));
  BranchMetaRecord meta;
  meta.name = "w";
  meta.parent = "main";
  meta.fork = 2;
  meta.policies.preserve_inserted_data = true;
  auto decoded_meta = DecodeBranchMeta(EncodeBranchMeta(meta));
  ASSERT_TRUE(decoded_meta.ok()) << decoded_meta.status();
  EXPECT_EQ(EncodeBranchMeta(*decoded_meta), EncodeBranchMeta(meta));
}

}  // namespace
}  // namespace xupdate::store
