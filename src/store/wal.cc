#include "store/wal.h"

#include <cstring>
#include <utility>

#include "common/framing.h"

namespace xupdate::store {

namespace {

using framing::GetU64;
using framing::PutU64;

bool ValidFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kPul:
    case FrameType::kSnapshot:
    case FrameType::kMerge:
    case FrameType::kBranchMeta:
      return true;
  }
  return false;
}

}  // namespace

bool FsyncPolicyFromName(std::string_view name, FsyncPolicy* out) {
  if (name == "always") {
    *out = FsyncPolicy::kAlways;
  } else if (name == "batch") {
    *out = FsyncPolicy::kBatch;
  } else if (name == "never") {
    *out = FsyncPolicy::kNever;
  } else {
    return false;
  }
  return true;
}

std::string_view FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

std::string Wal::EncodeFrame(const WalFrame& frame) {
  std::string out;
  out.reserve(kFrameHeaderSize + kFrameBodyFixedSize + frame.payload.size());
  size_t start = BeginFrame(&out, frame.type, frame.version, frame.aux);
  out += frame.payload;
  framing::SealFrame(&out, start);
  return out;
}

size_t Wal::BeginFrame(std::string* out, FrameType type, uint64_t version,
                       uint64_t aux) {
  size_t start = out->size();
  out->append(kFrameHeaderSize, '\0');
  out->push_back(static_cast<char>(type));
  PutU64(out, version);
  PutU64(out, aux);
  return start;
}

Status Wal::EndFrame(std::string* out, size_t frame_start) {
  size_t payload =
      out->size() - frame_start - kFrameHeaderSize - kFrameBodyFixedSize;
  if (payload > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload of " +
                                   std::to_string(payload) +
                                   " bytes exceeds the frame limit");
  }
  framing::SealFrame(out, frame_start);
  return Status::OK();
}

Result<WalFrame> Wal::DecodeFrame(std::string_view data, size_t* offset) {
  XUPDATE_ASSIGN_OR_RETURN(WalFrameView view, DecodeFrameView(data, offset));
  WalFrame frame;
  frame.type = view.type;
  frame.version = view.version;
  frame.aux = view.aux;
  frame.payload = std::string(view.payload);
  return frame;
}

Result<WalFrameView> Wal::DecodeFrameView(std::string_view data,
                                          size_t* offset) {
  size_t pos = *offset;
  std::string_view body;
  XUPDATE_RETURN_IF_ERROR(framing::DecodeFrame(data, offset, &body));
  if (body.size() < kFrameBodyFixedSize) {
    *offset = pos;
    return Status::ParseError("torn or oversized frame body");
  }
  uint8_t type = static_cast<uint8_t>(body[0]);
  if (!ValidFrameType(type)) {
    // The CRC already passed, so this is not a torn tail or a bit flip:
    // the frame is intact but written by a format this build does not
    // understand. Report it as a distinct, named condition — callers
    // must not mistake it for corruption and truncate real data.
    *offset = pos;
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type) + " at offset " +
                                   std::to_string(pos) +
                                   " (CRC-valid frame; not corruption)");
  }
  WalFrameView frame;
  frame.type = static_cast<FrameType>(type);
  frame.version = GetU64(body, 1);
  frame.aux = GetU64(body, 9);
  frame.payload = body.substr(kFrameBodyFixedSize);
  return frame;
}

Result<Wal> Wal::Create(const std::string& path, const WalOptions& options) {
  if (PathExists(path)) {
    return Status::InvalidArgument("journal already exists: " + path);
  }
  Wal wal;
  wal.path_ = path;
  wal.options_ = options;
  XUPDATE_ASSIGN_OR_RETURN(wal.file_, AppendableFile::Open(path));
  XUPDATE_RETURN_IF_ERROR(
      wal.file_.Append(std::string_view(kMagic, kMagicSize)));
  XUPDATE_RETURN_IF_ERROR(wal.file_.Sync());
  wal.size_bytes_ = kMagicSize;
  return wal;
}

Result<Wal> Wal::Open(const std::string& path, const WalOptions& options,
                      WalRecovery* recovery) {
  XUPDATE_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  if (data.size() < kMagicSize ||
      std::memcmp(data.data(), kMagic, kMagicSize) != 0) {
    return Status::ParseError("bad journal magic in " + path);
  }
  Wal wal;
  wal.path_ = path;
  wal.options_ = options;
  // Scan every frame; stop (and truncate) at the first torn or corrupt
  // one. A frame that fails its CRC mid-file also truncates — bytes
  // after a broken frame cannot be trusted to be frame-aligned. A
  // CRC-valid frame with an unknown type byte is NOT corruption
  // (DecodeFrame reports it as kInvalidArgument, not kParseError):
  // truncating it would silently destroy data written by a newer
  // format, so Open fails with the named error instead.
  size_t offset = kMagicSize;
  while (offset < data.size()) {
    size_t frame_start = offset;
    Result<WalFrameView> frame = DecodeFrameView(data, &offset);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kInvalidArgument) {
        return Status::InvalidArgument("journal " + path + ": " +
                                       frame.status().message());
      }
      break;
    }
    WalFrameInfo info;
    info.type = frame->type;
    info.version = frame->version;
    info.aux = frame->aux;
    info.offset = frame_start;
    info.payload_bytes = static_cast<uint32_t>(frame->payload.size());
    wal.frames_.push_back(info);
  }
  uint64_t valid_bytes = wal.frames_.empty()
                             ? kMagicSize
                             : wal.frames_.back().offset + kFrameHeaderSize +
                                   kFrameBodyFixedSize +
                                   wal.frames_.back().payload_bytes;
  uint64_t torn = data.size() - valid_bytes;
  if (torn > 0) {
    XUPDATE_RETURN_IF_ERROR(TruncateFile(path, valid_bytes));
    // Make the truncation itself durable before the store accepts new
    // commits, mirroring WriteFileAtomic: TruncateFile fsyncs the file,
    // but the inode change is only safely ordered once the containing
    // directory is synced too. Recovery is idempotent either way (a
    // lost truncate just re-runs this scan), but a commit appended
    // after a non-durable truncate could land beyond resurrected torn
    // bytes after a second crash.
    size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    XUPDATE_RETURN_IF_ERROR(SyncDirectory(dir));
  }
  if (recovery != nullptr) {
    recovery->frames = wal.frames_.size();
    recovery->valid_bytes = valid_bytes;
    recovery->truncated_bytes = torn;
  }
  if (options.metrics != nullptr) {
    options.metrics->AddCounter("store.wal.open.frames",
                                wal.frames_.size());
    options.metrics->AddCounter("store.wal.open.truncated_bytes", torn);
  }
  XUPDATE_ASSIGN_OR_RETURN(wal.file_, AppendableFile::Open(path));
  wal.size_bytes_ = valid_bytes;
  return wal;
}

Status Wal::Append(const WalFrame& frame) {
  if (poisoned_) {
    return Status::IoError(
        "append refused: journal poisoned by earlier write failure: " +
        path_);
  }
  if (frame.payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(frame.payload.size()) +
        " bytes exceeds the journal frame limit");
  }
  std::string encoded = EncodeFrame(frame);
  // Fault injection: write the prefix that fits under the byte budget,
  // then fail — the torn tail Open() must recover from.
  if (options_.fail_after_bytes >= 0) {
    uint64_t budget = static_cast<uint64_t>(options_.fail_after_bytes);
    if (appended_bytes_ + encoded.size() > budget) {
      poisoned_ = true;
      size_t fits = budget > appended_bytes_
                        ? static_cast<size_t>(budget - appended_bytes_)
                        : 0;
      if (fits > 0) {
        XUPDATE_RETURN_IF_ERROR(
            file_.Append(std::string_view(encoded).substr(0, fits)));
        (void)file_.Sync();
        appended_bytes_ += fits;
        size_bytes_ += fits;
      }
      return Status::IoError("injected write failure after " +
                             std::to_string(appended_bytes_) + " bytes");
    }
  }
  {
    ScopedTimer timer(options_.metrics, "store.wal.append.seconds");
    Status appended = file_.Append(encoded);
    if (!appended.ok()) {
      // A prefix of the frame may be on disk; nothing appended after
      // it would be frame-aligned, so the handle is write-dead until a
      // reopen truncates the torn tail.
      poisoned_ = true;
      return appended;
    }
  }
  appended_bytes_ += encoded.size();
  size_bytes_ += encoded.size();
  ++appends_since_sync_;
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("store.wal.append.bytes", encoded.size());
    options_.metrics->AddCounter("store.wal.append.frames");
  }
  WalFrameInfo info;
  info.type = frame.type;
  info.version = frame.version;
  info.aux = frame.aux;
  info.offset = size_bytes_ - encoded.size();
  info.payload_bytes = static_cast<uint32_t>(frame.payload.size());
  frames_.push_back(info);
  return Status::OK();
}

Status Wal::SyncGroup() {
  if (appends_since_sync_ == 0) return Status::OK();
  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      return Sync();
    case FsyncPolicy::kBatch:
      if (appends_since_sync_ >= options_.batch_interval) return Sync();
      return Status::OK();
    case FsyncPolicy::kNever:
      return Status::OK();
  }
  return Status::OK();
}

Status Wal::Sync() {
  ScopedTimer timer(options_.metrics, "store.wal.fsync.seconds");
  Status synced = file_.Sync();
  if (!synced.ok()) {
    // After a failed fdatasync the kernel may have dropped the dirty
    // pages, so the tail's durability is unknowable; stop appending.
    poisoned_ = true;
    return synced;
  }
  appends_since_sync_ = 0;
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("store.wal.fsync.count");
  }
  return Status::OK();
}

Status Wal::Close() {
  if (!file_.is_open()) return Status::OK();
  // A poisoned journal is not synced on close: its tail is already
  // suspect and the close must not mask the original failure status.
  if (!poisoned_ && options_.fsync != FsyncPolicy::kNever &&
      appends_since_sync_ > 0) {
    XUPDATE_RETURN_IF_ERROR(Sync());
  }
  return file_.Close();
}

Result<WalFrame> Wal::ReadFrame(const WalFrameInfo& info) const {
  // Re-read just the frame's region: the store deliberately does not
  // cache payloads (journals outgrow memory; the OS page cache serves
  // hot replays).
  size_t frame_size =
      kFrameHeaderSize + kFrameBodyFixedSize + info.payload_bytes;
  XUPDATE_ASSIGN_OR_RETURN(std::string data,
                           ReadFileRegion(path_, info.offset, frame_size));
  size_t offset = 0;
  XUPDATE_ASSIGN_OR_RETURN(WalFrame frame, DecodeFrame(data, &offset));
  if (frame.version != info.version || frame.type != info.type) {
    return Status::Internal("frame directory out of sync with journal");
  }
  return frame;
}

}  // namespace xupdate::store
