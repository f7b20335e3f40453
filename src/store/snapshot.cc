#include "store/snapshot.h"

#include <algorithm>

#include "xml/document_image.h"

namespace xupdate::store {

namespace {

constexpr char kPrefix[] = "snap-";
constexpr char kSuffix[] = ".snap";
constexpr size_t kDigits = 20;

// snap-<20 digits>.snap -> version; false for any other name.
bool ParseName(const std::string& name, uint64_t* version) {
  const size_t expect =
      sizeof(kPrefix) - 1 + kDigits + sizeof(kSuffix) - 1;
  if (name.size() != expect) return false;
  if (name.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) return false;
  if (name.compare(expect - (sizeof(kSuffix) - 1), sizeof(kSuffix) - 1,
                   kSuffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = sizeof(kPrefix) - 1; i < sizeof(kPrefix) - 1 + kDigits;
       ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *version = v;
  return true;
}

}  // namespace

std::string SnapshotStore::FileName(uint64_t version) {
  std::string digits = std::to_string(version);
  return std::string(kPrefix) +
         std::string(kDigits - digits.size(), '0') + digits + kSuffix;
}

Result<SnapshotStore> SnapshotStore::Open(const std::string& dir,
                                          Metrics* metrics) {
  SnapshotStore store;
  store.dir_ = dir;
  store.metrics_ = metrics;
  XUPDATE_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           ListDirectory(dir));
  std::string data;
  std::string_view payload;
  for (const std::string& name : names) {
    uint64_t version = 0;
    if (!ParseName(name, &version)) continue;
    // Check the file now so a torn checkpoint is ignored up front
    // instead of failing a later Checkout; one of the retired format
    // fails Open.
    Status checked = store.ReadFile(version, &data, &payload);
    if (checked.code() == StatusCode::kInvalidArgument) return checked;
    if (!checked.ok()) {
      ++store.skipped_files_;
      continue;
    }
    store.versions_.push_back(version);
  }
  std::sort(store.versions_.begin(), store.versions_.end());
  if (metrics != nullptr) {
    metrics->AddCounter("store.snapshot.open.count",
                        store.versions_.size());
    metrics->AddCounter("store.snapshot.open.skipped",
                        store.skipped_files_);
  }
  return store;
}

Status SnapshotStore::Write(uint64_t version, const xml::Document& doc) {
  ScopedTimer timer(metrics_, "store.snapshot.write.seconds");
  std::string content(kSnapshotMagic, kSnapshotMagicSize);
  size_t frame = Wal::BeginFrame(&content, FrameType::kSnapshot, version, 0);
  XUPDATE_RETURN_IF_ERROR(xml::EncodeImage(doc, &content));
  XUPDATE_RETURN_IF_ERROR(Wal::EndFrame(&content, frame));
  XUPDATE_RETURN_IF_ERROR(
      WriteFileAtomic(dir_ + "/" + FileName(version), content));
  if (!Has(version)) {
    versions_.insert(
        std::upper_bound(versions_.begin(), versions_.end(), version),
        version);
  }
  if (metrics_ != nullptr) {
    metrics_->AddCounter("store.snapshot.write.count");
    metrics_->AddCounter("store.snapshot.write.bytes", content.size());
  }
  return Status::OK();
}

Result<size_t> SnapshotStore::RemoveAbove(uint64_t version) {
  size_t removed = 0;
  while (!versions_.empty() && versions_.back() > version) {
    XUPDATE_RETURN_IF_ERROR(
        RemoveFile(dir_ + "/" + FileName(versions_.back())));
    versions_.pop_back();
    ++removed;
  }
  if (removed > 0) {
    XUPDATE_RETURN_IF_ERROR(SyncDirectory(dir_));
    if (metrics_ != nullptr) {
      metrics_->AddCounter("store.snapshot.removed_stale", removed);
    }
  }
  return removed;
}

Status SnapshotStore::ReadFile(uint64_t version, std::string* data,
                               std::string_view* payload) const {
  std::string path = dir_ + "/" + FileName(version);
  XUPDATE_ASSIGN_OR_RETURN(*data, ReadFileToString(path));
  std::string_view magic = std::string_view(*data).substr(
      0, std::min(data->size(), kSnapshotMagicSize));
  const bool retired = magic == kRetiredSnapshotMagic;
  if (!retired && magic != kSnapshotMagic) {
    return Status::ParseError("bad snapshot magic in " + path);
  }
  size_t offset = kSnapshotMagicSize;
  Result<WalFrameView> frame = Wal::DecodeFrameView(*data, &offset);
  if (!frame.ok()) {
    return Status::ParseError("torn or corrupt snapshot file " + path +
                              ": " + frame.status().message());
  }
  if (retired) {
    return Status::InvalidArgument(
        "snapshot file " + path + " is a checkpoint of the retired " +
        kRetiredSnapshotMagic +
        " format (id-annotated XML); this store reads " + kSnapshotMagic +
        " document images only");
  }
  if (frame->type != FrameType::kSnapshot || frame->version != version ||
      offset != data->size()) {
    return Status::ParseError("malformed snapshot file " + path);
  }
  *payload = frame->payload;
  return Status::OK();
}

Result<std::string> SnapshotStore::Read(uint64_t version) const {
  std::string data;
  std::string_view payload;
  XUPDATE_RETURN_IF_ERROR(ReadFile(version, &data, &payload));
  // The payload runs to the end of the file's bytes.
  data.erase(0, data.size() - payload.size());
  return data;
}

Result<xml::Document> SnapshotStore::Load(uint64_t version) const {
  std::string data;
  std::string_view payload;
  XUPDATE_RETURN_IF_ERROR(ReadFile(version, &data, &payload));
  return xml::DecodeImage(payload);
}

bool SnapshotStore::NearestAtOrBelow(uint64_t v, uint64_t* out) const {
  auto it = std::upper_bound(versions_.begin(), versions_.end(), v);
  if (it == versions_.begin()) return false;
  *out = *(it - 1);
  return true;
}

bool SnapshotStore::Has(uint64_t version) const {
  return std::binary_search(versions_.begin(), versions_.end(), version);
}

}  // namespace xupdate::store
