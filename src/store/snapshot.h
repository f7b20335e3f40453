#ifndef XUPDATE_STORE_SNAPSHOT_H_
#define XUPDATE_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "store/wal.h"
#include "xml/document.h"

namespace xupdate::store {

// Snapshot checkpoints for the versioned store: binary images of the
// document (xml/document_image.h) at selected versions, so Checkout(v)
// decodes the nearest checkpoint and replays from there instead of
// from version 0, and never parses XML.
//
// One file per checkpoint, `snap-<version, 20 decimal digits>.snap`:
//
//   file := "XUSNP002" frame
//
// where the frame is a WAL frame (store/wal.h) of type kSnapshot,
// version = the checkpointed version, aux 0, payload = the document
// image. Files are written atomically (temp + fsync + rename +
// directory fsync), so a crash mid-checkpoint leaves either no file or
// a complete one; Open() skips and counts any other file: a short
// file, an unknown magic, a frame that fails its CRC, a wrong type or
// version, trailing bytes.
//
// Checkpoints were id-annotated XML under the magic "XUSNP001", which
// every checkout parsed. That format is retired: a complete XUSNP001
// checkpoint makes Open() fail with a named kInvalidArgument naming
// the file, instead of being skipped as torn and leaving the store
// without its base checkpoint.

inline constexpr char kSnapshotMagic[] = "XUSNP002";
inline constexpr char kRetiredSnapshotMagic[] = "XUSNP001";
inline constexpr size_t kSnapshotMagicSize = 8;

class SnapshotStore {
 public:
  // A default-constructed store is empty; use Open().
  SnapshotStore() = default;

  // Scans `dir` for snapshot files. Unreadable or torn files are
  // skipped (and counted), not fatal: the journal can always rebuild.
  // A checkpoint of the retired format fails the scan.
  static Result<SnapshotStore> Open(const std::string& dir,
                                    Metrics* metrics = nullptr);

  // Writes the image of `doc` as the checkpoint for `version`
  // atomically and registers it.
  Status Write(uint64_t version, const xml::Document& doc);

  // The CRC-verified payload of the checkpoint for `version`: its
  // document image.
  Result<std::string> Read(uint64_t version) const;

  // The document the checkpoint for `version` holds, decoded from the
  // file's bytes as read.
  Result<xml::Document> Load(uint64_t version) const;

  // Deletes every checkpoint strictly above `version` — file and index
  // entry — and fsyncs the directory; returns how many were removed.
  // VersionStore::Open uses this to purge checkpoints that outlived a
  // journal tail lost in a crash: left in place, a later commit past
  // their version would let NearestAtOrBelow hand Checkout pre-crash
  // bytes as a replay base.
  Result<size_t> RemoveAbove(uint64_t version);

  // Largest checkpointed version <= v; false if none (version 0 is
  // always checkpointed by VersionStore::Init, so this only fails on a
  // damaged store).
  bool NearestAtOrBelow(uint64_t v, uint64_t* out) const;

  bool Has(uint64_t version) const;

  // Checkpointed versions, ascending.
  const std::vector<uint64_t>& versions() const { return versions_; }

  // Files skipped by Open() because they failed magic/CRC/name checks.
  size_t skipped_files() const { return skipped_files_; }

  static std::string FileName(uint64_t version);

 private:
  // Reads the checkpoint file for `version` into `*data` and points
  // `*payload` at the image inside it.
  Status ReadFile(uint64_t version, std::string* data,
                  std::string_view* payload) const;

  std::string dir_;
  std::vector<uint64_t> versions_;
  size_t skipped_files_ = 0;
  Metrics* metrics_ = nullptr;
};

}  // namespace xupdate::store

#endif  // XUPDATE_STORE_SNAPSHOT_H_
