#include "common/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace xupdate {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

// Writes the whole buffer, retrying on short writes and EINTR.
Status WriteAll(int fd, std::string_view data, const std::string& path) {
  const char* p = data.data();
  size_t n = data.size();
  while (n > 0) {
    ssize_t written = ::write(fd, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  std::string out;
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    out.reserve(static_cast<size_t>(st.st_size));
  }
  char buffer[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Errno("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    out.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Result<std::string> ReadFileRegion(const std::string& path, uint64_t offset,
                                   size_t length) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  std::string out(length, '\0');
  size_t done = 0;
  while (done < length) {
    ssize_t n = ::pread(fd, out.data() + done, length - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Errno("pread", path);
      ::close(fd);
      return status;
    }
    if (n == 0) {
      ::close(fd);
      return Status::IoError("short read in " + path + " at offset " +
                             std::to_string(offset + done));
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return out;
}

Status WriteFileSynced(const std::string& path, std::string_view content) {
  int fd = ::open(path.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open", path);
  Status status = WriteAll(fd, content, path);
  if (status.ok() && ::fsync(fd) != 0) status = Errno("fsync", path);
  if (::close(fd) != 0 && status.ok()) status = Errno("close", path);
  if (!status.ok()) ::unlink(path.c_str());
  return status;
}

Status WriteFileAtomic(const std::string& path, std::string_view content) {
  std::string tmp = path + ".tmp";
  XUPDATE_RETURN_IF_ERROR(WriteFileSynced(tmp, content));
  return RenameFile(tmp, path);
}

Status EnsureDirectory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Errno("mkdir", path);
}

Result<std::vector<std::string>> ListDirectory(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return Errno("opendir", path);
  std::vector<std::string> names;
  for (;;) {
    errno = 0;
    dirent* entry = ::readdir(dir);
    if (entry == nullptr) {
      if (errno != 0) {
        Status status = Errno("readdir", path);
        ::closedir(dir);
        return status;
      }
      break;
    }
    std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(std::move(name));
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Errno("rename", from + " -> " + to);
  }
  size_t slash = to.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : to.substr(0, slash);
  return SyncDirectory(dir);
}

Status SyncDirectory(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open dir", path);
  Status status;
  if (::fsync(fd) != 0) status = Errno("fsync dir", path);
  ::close(fd);
  return status;
}

Result<AppendableFile> AppendableFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) return Errno("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status = Errno("fstat", path);
    ::close(fd);
    return status;
  }
  AppendableFile file;
  file.fd_ = fd;
  file.size_ = static_cast<uint64_t>(st.st_size);
  return file;
}

AppendableFile::AppendableFile(AppendableFile&& other) noexcept
    : fd_(other.fd_), size_(other.size_) {
  other.fd_ = -1;
  other.size_ = 0;
}

AppendableFile& AppendableFile::operator=(AppendableFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    size_ = other.size_;
    other.fd_ = -1;
    other.size_ = 0;
  }
  return *this;
}

AppendableFile::~AppendableFile() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status AppendableFile::Append(std::string_view data) {
  if (fd_ < 0) return Status::InvalidArgument("append on closed file");
  XUPDATE_RETURN_IF_ERROR(WriteAll(fd_, data, "<wal>"));
  size_ += data.size();
  return Status::OK();
}

Status AppendableFile::Sync() {
  if (fd_ < 0) return Status::InvalidArgument("sync on closed file");
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(std::string("fdatasync: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status AppendableFile::Close() {
  if (fd_ < 0) return Status::OK();
  int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    return Status::IoError(std::string("close: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Errno("truncate", path);
  }
  int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  Status status;
  if (::fsync(fd) != 0) status = Errno("fsync", path);
  ::close(fd);
  return status;
}

}  // namespace xupdate
