#include "store/records.h"

#include <algorithm>
#include <cctype>

#include "common/framing.h"

namespace xupdate::store {

namespace {

using framing::GetU32;
using framing::GetU64;
using framing::PutU32;
using framing::PutU64;

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  *out += s;
}

Status GetString(std::string_view data, size_t* offset, std::string* out) {
  if (*offset + 4 > data.size()) {
    return Status::ParseError("truncated string length in branch record");
  }
  uint32_t len = GetU32(data, *offset);
  *offset += 4;
  if (*offset + len > data.size()) {
    return Status::ParseError("truncated string in branch record");
  }
  out->assign(data.substr(*offset, len));
  *offset += len;
  return Status::OK();
}

Status GetU64At(std::string_view data, size_t* offset, uint64_t* out) {
  if (*offset + 8 > data.size()) {
    return Status::ParseError("truncated integer in branch record");
  }
  *out = GetU64(data, *offset);
  *offset += 8;
  return Status::OK();
}

Status GetByte(std::string_view data, size_t* offset, uint8_t* out) {
  if (*offset + 1 > data.size()) {
    return Status::ParseError("truncated byte in branch record");
  }
  *out = static_cast<uint8_t>(data[*offset]);
  *offset += 1;
  return Status::OK();
}

uint8_t PolicyBits(const pul::Policies& p) {
  return static_cast<uint8_t>((p.preserve_insertion_order ? 1 : 0) |
                              (p.preserve_inserted_data ? 2 : 0) |
                              (p.preserve_removed_data ? 4 : 0));
}

pul::Policies PoliciesFromBits(uint8_t bits) {
  pul::Policies p;
  p.preserve_insertion_order = (bits & 1) != 0;
  p.preserve_inserted_data = (bits & 2) != 0;
  p.preserve_removed_data = (bits & 4) != 0;
  return p;
}

Status CheckExhausted(std::string_view data, size_t offset,
                      const char* what) {
  if (offset != data.size()) {
    return Status::ParseError(std::string("trailing bytes after ") + what);
  }
  return Status::OK();
}

}  // namespace

Status ValidateBranchName(const std::string& name) {
  if (name.empty() || name.size() > 64) {
    return Status::InvalidArgument(
        "branch name must be 1..64 characters: \"" + name + "\"");
  }
  for (char c : name) {
    bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
              c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          "branch name may only contain [A-Za-z0-9_-]: \"" + name + "\"");
    }
  }
  if (name == "main") {
    return Status::InvalidArgument(
        "\"main\" is the reserved mainline name; it cannot be created");
  }
  return Status::OK();
}

std::string EncodeBranchMeta(const BranchMetaRecord& record) {
  std::string out;
  out.push_back(static_cast<char>(0));  // kind
  PutString(&out, record.name);
  PutString(&out, record.parent);
  PutU64(&out, record.fork);
  out.push_back(static_cast<char>(PolicyBits(record.policies)));
  return out;
}

Result<BranchMetaRecord> DecodeBranchMeta(std::string_view payload) {
  size_t offset = 0;
  uint8_t kind = 0;
  XUPDATE_RETURN_IF_ERROR(GetByte(payload, &offset, &kind));
  if (kind != 0) {
    return Status::ParseError("branch journal meta frame has kind " +
                              std::to_string(kind) + ", expected 0");
  }
  BranchMetaRecord record;
  XUPDATE_RETURN_IF_ERROR(GetString(payload, &offset, &record.name));
  XUPDATE_RETURN_IF_ERROR(GetString(payload, &offset, &record.parent));
  XUPDATE_RETURN_IF_ERROR(GetU64At(payload, &offset, &record.fork));
  uint8_t bits = 0;
  XUPDATE_RETURN_IF_ERROR(GetByte(payload, &offset, &bits));
  record.policies = PoliciesFromBits(bits);
  XUPDATE_RETURN_IF_ERROR(CheckExhausted(payload, offset, "branch meta"));
  return record;
}

std::string EncodeMergeRecord(const MergeRecord& record) {
  std::string out;
  PutString(&out, record.other);
  PutU64(&out, record.other_parent);
  PutU64(&out, record.base_own);
  PutU64(&out, record.base_other);
  PutU32(&out, static_cast<uint32_t>(record.chain.size()));
  for (const std::string& pul : record.chain) PutString(&out, pul);
  return out;
}

Result<MergeRecord> DecodeMergeRecord(std::string_view payload) {
  size_t offset = 0;
  MergeRecord record;
  XUPDATE_RETURN_IF_ERROR(GetString(payload, &offset, &record.other));
  XUPDATE_RETURN_IF_ERROR(GetU64At(payload, &offset, &record.other_parent));
  XUPDATE_RETURN_IF_ERROR(GetU64At(payload, &offset, &record.base_own));
  XUPDATE_RETURN_IF_ERROR(GetU64At(payload, &offset, &record.base_other));
  if (offset + 4 > payload.size()) {
    return Status::ParseError("truncated chain count in merge record");
  }
  uint32_t count = GetU32(payload, offset);
  offset += 4;
  // Each entry takes at least its 4-byte length: a count the payload
  // cannot hold must fail as truncation, not reserve gigabytes first.
  record.chain.reserve(std::min<size_t>(count, (payload.size() - offset) / 4));
  for (uint32_t i = 0; i < count; ++i) {
    std::string pul;
    XUPDATE_RETURN_IF_ERROR(GetString(payload, &offset, &pul));
    record.chain.push_back(std::move(pul));
  }
  XUPDATE_RETURN_IF_ERROR(CheckExhausted(payload, offset, "merge record"));
  return record;
}

std::string EncodeSyncRecord(const SyncRecord& record) {
  std::string out;
  out.push_back(static_cast<char>(1));  // kind
  uint8_t flags = static_cast<uint8_t>((record.frame_a ? 1 : 0) |
                                       (record.frame_b ? 2 : 0));
  out.push_back(static_cast<char>(flags));
  PutString(&out, record.branch_a);
  PutU64(&out, record.version_a);
  PutString(&out, record.branch_b);
  PutU64(&out, record.version_b);
  return out;
}

std::string EncodeRebaseRecord(const RebaseRecord& record) {
  std::string out;
  out.push_back(static_cast<char>(2));  // kind
  PutString(&out, record.branch);
  PutU64(&out, record.old_fork);
  PutU64(&out, record.new_fork);
  return out;
}

Result<BranchLogRecord> DecodeBranchLogRecord(std::string_view payload) {
  size_t offset = 0;
  BranchLogRecord out;
  XUPDATE_RETURN_IF_ERROR(GetByte(payload, &offset, &out.kind));
  switch (out.kind) {
    case 1: {
      uint8_t flags = 0;
      XUPDATE_RETURN_IF_ERROR(GetByte(payload, &offset, &flags));
      out.sync.frame_a = (flags & 1) != 0;
      out.sync.frame_b = (flags & 2) != 0;
      XUPDATE_RETURN_IF_ERROR(
          GetString(payload, &offset, &out.sync.branch_a));
      XUPDATE_RETURN_IF_ERROR(
          GetU64At(payload, &offset, &out.sync.version_a));
      XUPDATE_RETURN_IF_ERROR(
          GetString(payload, &offset, &out.sync.branch_b));
      XUPDATE_RETURN_IF_ERROR(
          GetU64At(payload, &offset, &out.sync.version_b));
      return CheckExhausted(payload, offset, "sync record").ok()
                 ? Result<BranchLogRecord>(std::move(out))
                 : Result<BranchLogRecord>(
                       Status::ParseError("trailing bytes after sync record"));
    }
    case 2: {
      XUPDATE_RETURN_IF_ERROR(
          GetString(payload, &offset, &out.rebase.branch));
      XUPDATE_RETURN_IF_ERROR(
          GetU64At(payload, &offset, &out.rebase.old_fork));
      XUPDATE_RETURN_IF_ERROR(
          GetU64At(payload, &offset, &out.rebase.new_fork));
      XUPDATE_RETURN_IF_ERROR(
          CheckExhausted(payload, offset, "rebase record"));
      return out;
    }
    default:
      return Status::ParseError("unknown branch log record kind " +
                                std::to_string(out.kind));
  }
}

}  // namespace xupdate::store
