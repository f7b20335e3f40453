#ifndef XUPDATE_COMMON_FILE_IO_H_
#define XUPDATE_COMMON_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace xupdate {

// Thin POSIX file layer for the versioned store. Everything reports
// through Status/Result (kIoError with errno text); nothing throws.

// Reads the whole file into a string (binary, no translation).
Result<std::string> ReadFileToString(const std::string& path);

// Reads exactly `length` bytes starting at `offset` (pread); fails if
// the file is shorter.
Result<std::string> ReadFileRegion(const std::string& path, uint64_t offset,
                                   size_t length);

// Writes `content` to `path` (created or truncated) and fsyncs it. On
// failure the file is removed.
Status WriteFileSynced(const std::string& path, std::string_view content);

// Writes `content` to `path` atomically: a sidecar temp file is written,
// fsync'd, and renamed over `path`; the containing directory is fsync'd
// so the rename itself is durable. Readers never observe a torn file.
Status WriteFileAtomic(const std::string& path, std::string_view content);

// mkdir -p. OK if the directory already exists.
Status EnsureDirectory(const std::string& path);

// Non-recursive listing of the entry names (not paths) in `path`,
// sorted, "." and ".." excluded.
Result<std::vector<std::string>> ListDirectory(const std::string& path);

bool PathExists(const std::string& path);

Status RemoveFile(const std::string& path);

// Renames `from` over `to` and fsyncs the destination directory.
Status RenameFile(const std::string& from, const std::string& to);

// fsync on the directory fd — makes preceding creates/renames durable.
Status SyncDirectory(const std::string& path);

// Append-only file handle (the WAL's write side). The fd is CLOEXEC;
// Close() is idempotent and runs on destruction (without surfacing
// errors — call Close() explicitly when the status matters).
class AppendableFile {
 public:
  // Opens (creating if missing) for appending.
  static Result<AppendableFile> Open(const std::string& path);

  AppendableFile() = default;
  AppendableFile(AppendableFile&& other) noexcept;
  AppendableFile& operator=(AppendableFile&& other) noexcept;
  AppendableFile(const AppendableFile&) = delete;
  AppendableFile& operator=(const AppendableFile&) = delete;
  ~AppendableFile();

  Status Append(std::string_view data);
  // fdatasync.
  Status Sync();
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  // Bytes in the file (existing content plus everything appended).
  uint64_t size() const { return size_; }

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
};

// Truncates the file at `path` to `size` bytes and fsyncs it.
Status TruncateFile(const std::string& path, uint64_t size);

}  // namespace xupdate

#endif  // XUPDATE_COMMON_FILE_IO_H_
