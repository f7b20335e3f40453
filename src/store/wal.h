#ifndef XUPDATE_STORE_WAL_H_
#define XUPDATE_STORE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/file_io.h"
#include "common/metrics.h"
#include "common/result.h"
#include "obs/trace.h"

namespace xupdate::store {

// Write-ahead journal of serialized PULs — the durable half of the
// versioned update store. The file is a fixed 8-byte magic header
// followed by length-prefixed, CRC32C-framed records:
//
//   file   := "XUWAL001" frame*
//   frame  := u32 body_len | u32 masked_crc32c(body) | body
//   body   := u8 type | u64 version | u64 aux | payload
//
// All integers little-endian. The CRC is masked (common/crc32c.h) and
// covers the whole body, so a bit flip in the type/version words is
// caught, not only in the payload. Frame types:
//
//   kPul        one committed PUL; `version` is the version it produces
//               (its parent is version - 1), `aux` is 0.
//
// Type bytes 2 and 3 are retired: they held the aggregate and undo
// frames of a journal compactor that no longer exists. They are never
// reused, and a journal holding one fails Open() with a named
// "unknown frame type" kInvalidArgument instead of being truncated.
//
// Torn-tail discipline: a crash mid-append leaves a trailing partial
// frame. Open() scans the file front to back and truncates it at the
// first offset where a complete, CRC-clean frame cannot be read — the
// classic "recover to the last valid frame" WAL contract. The
// truncation itself is fsync'd, so `store verify` reports a clean
// journal immediately after recovery.
//
// Write-failure discipline: a failed append (e.g. ENOSPC) can leave a
// torn prefix of the frame on disk, and a failed fdatasync leaves the
// tail's durability unknown — in both cases nothing after the failure
// point can be trusted to be frame-aligned, so the handle poisons
// itself and refuses every further Append. The caller reopens the
// journal, which truncates back to the last clean frame.
//
// Fsync policy trades durability for commit throughput. Append never
// syncs; a writer appends a group of frames and ends it with SyncGroup,
// the one place a commit reads the policy (Close() also reads it, to
// sync unless the policy is kNever):
//   kAlways  fdatasync at the end of every group that appended a frame
//            (default; no committed version is ever lost);
//   kBatch   fdatasync at the end of the group that brings the frames
//            appended since the last sync to `batch_interval`, and on
//            Close();
//   kNever   leave flushing to the OS (benchmark baseline).

enum class FsyncPolicy { kAlways, kBatch, kNever };

// "always" / "batch" / "never"; false if `name` is not a policy.
bool FsyncPolicyFromName(std::string_view name, FsyncPolicy* out);
std::string_view FsyncPolicyName(FsyncPolicy policy);

// kSnapshot never appears in the journal — it is the single frame of a
// snapshot checkpoint file (magic + frame, same CRC discipline).
//
//   kMerge      a merge commit on a branch journal: the payload is a
//               store/records.h MergeRecord (the other parent branch,
//               both parents' pre-merge versions, the merge base, and
//               the exact PUL chain that takes this branch's pre-merge
//               head to the merged state). `version` is the version it
//               produces on this branch; `aux` is this branch's
//               pre-merge head (the local parent).
//   kBranchMeta branch metadata records (store/records.h): the first
//               frame of every branch journal (kind 0, the branch's
//               name/parent/fork/policies) and every frame of
//               branches.log (kind 1 sync-commit markers, kind 2
//               rebase markers). `version`/`aux` are record-defined.
enum class FrameType : uint8_t {
  kPul = 1,
  // 2 and 3 are retired (see above); do not renumber.
  kSnapshot = 4,
  kMerge = 5,
  kBranchMeta = 6,
};

struct WalFrame {
  FrameType type = FrameType::kPul;
  uint64_t version = 0;
  uint64_t aux = 0;
  std::string payload;
};

// A decoded frame whose payload aliases the bytes it was decoded from.
struct WalFrameView {
  FrameType type = FrameType::kPul;
  uint64_t version = 0;
  uint64_t aux = 0;
  std::string_view payload;
};

// Where a frame sits in the file; enough to re-read it lazily.
struct WalFrameInfo {
  FrameType type = FrameType::kPul;
  uint64_t version = 0;
  uint64_t aux = 0;
  uint64_t offset = 0;        // of the frame header
  uint32_t payload_bytes = 0;
};

// What Open() found (and possibly repaired).
struct WalRecovery {
  size_t frames = 0;
  uint64_t valid_bytes = 0;      // file size after recovery
  uint64_t truncated_bytes = 0;  // torn/corrupt tail dropped
};

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  size_t batch_interval = 16;
  // Fault injection: after this many appended bytes (counted across the
  // Wal's lifetime, header included), Append() writes only the prefix
  // that fits and fails — simulating a crash that tears the last frame.
  // Negative disables. Wired to the CLI via XUPDATE_STORE_FAIL_AFTER_BYTES.
  int64_t fail_after_bytes = -1;
  Metrics* metrics = nullptr;
};

class Wal {
 public:
  // Creates an empty journal (header only). Fails if the file exists.
  static Result<Wal> Create(const std::string& path,
                            const WalOptions& options);

  // Opens an existing journal, scanning every frame and truncating a
  // torn tail. The scan result (frame directory) is retained for
  // index building; payloads are not kept in memory.
  static Result<Wal> Open(const std::string& path, const WalOptions& options,
                          WalRecovery* recovery = nullptr);

  // A default-constructed Wal is closed; use Create()/Open().
  Wal() = default;
  Wal(Wal&&) noexcept = default;
  Wal& operator=(Wal&&) noexcept = default;

  // Appends one frame without syncing it: the frame is durable only
  // after a later SyncGroup (per policy) or Sync. After any append or
  // fsync failure the handle is poisoned: every later Append is refused
  // (kIoError) until the journal is reopened and its tail recovered.
  Status Append(const WalFrame& frame);

  // Ends a group of appends by applying the fsync policy once (see
  // above): a group of N commits costs at most one fdatasync.
  Status SyncGroup();

  // Forces an fdatasync regardless of policy.
  Status Sync();

  bool is_open() const { return file_.is_open(); }

  // Flushes (per policy) and closes the append handle.
  Status Close();

  // Re-reads and CRC-checks the frame at `info.offset`.
  Result<WalFrame> ReadFrame(const WalFrameInfo& info) const;

  // Frame directory in file order: the Open() scan plus every
  // successful Append() since.
  const std::vector<WalFrameInfo>& frames() const { return frames_; }

  uint64_t size_bytes() const { return size_bytes_; }
  const std::string& path() const { return path_; }

  // Serializes one frame to its on-disk bytes (shared with snapshot
  // files, which are a magic header plus a single frame).
  static std::string EncodeFrame(const WalFrame& frame);

  // EncodeFrame in place, for a writer that appends a large payload
  // itself: BeginFrame appends the frame's header placeholder and fixed
  // body fields to `out` and returns where the frame starts; the caller
  // appends the payload; EndFrame fails (kInvalidArgument) if the
  // payload exceeds kMaxPayloadBytes, else fills in the header.
  static size_t BeginFrame(std::string* out, FrameType type,
                           uint64_t version, uint64_t aux);
  static Status EndFrame(std::string* out, size_t frame_start);

  // Decodes the frame starting at `data[offset]`; advances `offset` past
  // it. Returns kParseError for a torn or corrupt frame, and a named
  // kInvalidArgument for a CRC-valid frame of an unknown type.
  static Result<WalFrame> DecodeFrame(std::string_view data, size_t* offset);
  // DecodeFrame without the payload copy: the view aliases `data`.
  static Result<WalFrameView> DecodeFrameView(std::string_view data,
                                              size_t* offset);

  static constexpr char kMagic[] = "XUWAL001";  // 8 bytes, no NUL on disk
  static constexpr size_t kMagicSize = 8;
  static constexpr size_t kFrameHeaderSize = 8;   // len + crc
  static constexpr size_t kFrameBodyFixedSize = 17;  // type + version + aux
  // Largest payload a frame can carry: the body (fixed fields +
  // payload) must fit the u32 length prefix. Append rejects anything
  // larger up front — silently wrapping the length would corrupt the
  // journal.
  static constexpr uint64_t kMaxPayloadBytes =
      UINT32_MAX - kFrameBodyFixedSize;

 private:
  std::string path_;
  AppendableFile file_;
  WalOptions options_;
  std::vector<WalFrameInfo> frames_;
  uint64_t size_bytes_ = 0;
  uint64_t appended_bytes_ = 0;   // for fault injection accounting
  size_t appends_since_sync_ = 0;
  // Set by a failed append/fsync; Append refuses once set (the file may
  // end in torn bytes that only a reopen's tail recovery can clear).
  bool poisoned_ = false;
};

}  // namespace xupdate::store

#endif  // XUPDATE_STORE_WAL_H_
