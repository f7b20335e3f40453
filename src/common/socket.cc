#include "common/socket.h"

#include <errno.h>
#include <fcntl.h>
#include <limits.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "common/framing.h"

namespace xupdate {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

// sun_path is a fixed ~108-byte array; a longer path cannot be bound.
Status FillAddr(const std::string& path, sockaddr_un* addr) {
  if (path.empty()) {
    return Status::InvalidArgument("socket path is empty");
  }
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument(
        "socket path of " + std::to_string(path.size()) +
        " bytes exceeds the " + std::to_string(sizeof(addr->sun_path) - 1) +
        "-byte sun_path limit: " + path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.data(), path.size());
  return Status::OK();
}

Status SetCloexec(int fd) {
  if (::fcntl(fd, F_SETFD, FD_CLOEXEC) != 0) {
    return Errno("fcntl(FD_CLOEXEC)");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// UnixSocket

UnixSocket::UnixSocket(UnixSocket&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

UnixSocket& UnixSocket::operator=(UnixSocket&& other) noexcept {
  if (this != &other) {
    (void)Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

UnixSocket::~UnixSocket() { (void)Close(); }

Result<UnixSocket> UnixSocket::Connect(const std::string& path) {
  sockaddr_un addr;
  XUPDATE_RETURN_IF_ERROR(FillAddr(path, &addr));
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  UnixSocket sock;
  sock.fd_ = fd;
  XUPDATE_RETURN_IF_ERROR(SetCloexec(fd));
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return Errno("connect to " + path);
  return sock;
}

Result<std::pair<UnixSocket, UnixSocket>> UnixSocket::Pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return Errno("socketpair");
  }
  std::pair<UnixSocket, UnixSocket> pair;
  pair.first.fd_ = fds[0];
  pair.second.fd_ = fds[1];
  return pair;
}

Status UnixSocket::SendAll(std::string_view data) {
  if (fd_ < 0) return Status::IoError("send on closed socket");
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that disconnected mid-request must surface
    // as EPIPE here, not kill the process with SIGPIPE.
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status UnixSocket::SendFrame(const std::vector<std::string_view>& body_parts) {
  if (fd_ < 0) return Status::IoError("send on closed socket");
  uint64_t body_len = 0;
  uint32_t crc = 0;
  for (std::string_view part : body_parts) {
    body_len += part.size();
    crc = ExtendCrc32c(crc, part);
  }
  if (body_len > UINT32_MAX) {
    return Status::InvalidArgument("frame body of " +
                                   std::to_string(body_len) +
                                   " bytes exceeds the u32 length prefix");
  }
  std::string header;
  header.reserve(framing::kHeaderSize);
  framing::PutU32(&header, static_cast<uint32_t>(body_len));
  framing::PutU32(&header, MaskCrc32c(crc));
  std::vector<iovec> iov;
  iov.reserve(1 + body_parts.size());
  auto add = [&iov](std::string_view bytes) {
    if (bytes.empty()) return;
    iov.push_back({const_cast<char*>(bytes.data()), bytes.size()});
  };
  add(header);
  for (std::string_view part : body_parts) add(part);
  // `next` is the first entry not yet fully written; a short write
  // trims it in place. A call passes at most IOV_MAX entries.
  size_t next = 0;
  while (next < iov.size()) {
    msghdr msg{};
    msg.msg_iov = &iov[next];
    msg.msg_iovlen = std::min<size_t>(iov.size() - next, IOV_MAX);
    // MSG_NOSIGNAL: a peer that disconnected mid-request must surface
    // as EPIPE here, not kill the process with SIGPIPE.
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("sendmsg");
    }
    size_t written = static_cast<size_t>(n);
    while (written > 0 && written >= iov[next].iov_len) {
      written -= iov[next].iov_len;
      ++next;
    }
    if (written > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + written;
      iov[next].iov_len -= written;
    }
  }
  return Status::OK();
}

Status UnixSocket::RecvFrame(uint64_t max_body_bytes, std::string* body) {
  Status status = RecvFrameInto(max_body_bytes, body);
  if (!status.ok()) body->clear();
  return status;
}

Status UnixSocket::RecvFrameInto(uint64_t max_body_bytes, std::string* body) {
  if (fd_ < 0) return Status::IoError("recv on closed socket");
  // Read the 8-byte header first; EOF on the very first byte is the
  // peer closing between messages, which callers treat as a clean end
  // of conversation rather than an error.
  char header[framing::kHeaderSize];
  size_t got = 0;
  while (got < sizeof(header)) {
    ssize_t n = ::recv(fd_, header + got, sizeof(header) - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      if (got == 0) return Status::NotFound("peer closed connection");
      return Status::IoError("peer closed connection mid-frame header");
    }
    got += static_cast<size_t>(n);
  }
  std::string_view hv(header, sizeof(header));
  uint32_t body_len = framing::GetU32(hv, 0);
  // Framing is unrecoverable past an over-limit length prefix (the
  // declared body is not going to be read), so callers drop the
  // connection on this error.
  XUPDATE_RETURN_IF_ERROR(framing::CheckBodyLength(body_len, max_body_bytes));
  // Resizing from the previous body's size zero-fills only the growth;
  // recv overwrites every byte below.
  body->resize(body_len);
  got = 0;
  while (got < body_len) {
    ssize_t n = ::recv(fd_, body->data() + got, body_len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      return Status::IoError("peer closed connection mid-frame body");
    }
    got += static_cast<size_t>(n);
  }
  // The journal's frame check, so wire corruption and journal
  // corruption are caught by one code path.
  return framing::CheckBodyCrc(framing::GetU32(hv, 4), *body);
}

Status UnixSocket::ShutdownBoth() {
  if (fd_ < 0) return Status::OK();
  if (::shutdown(fd_, SHUT_RDWR) != 0 && errno != ENOTCONN) {
    return Errno("shutdown");
  }
  return Status::OK();
}

Status UnixSocket::Close() {
  if (fd_ < 0) return Status::OK();
  int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return Errno("close");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// UnixListener

UnixListener::UnixListener(UnixListener&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

UnixListener& UnixListener::operator=(UnixListener&& other) noexcept {
  if (this != &other) {
    (void)Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

UnixListener::~UnixListener() { (void)Close(); }

Result<UnixListener> UnixListener::Bind(const std::string& path, int backlog) {
  sockaddr_un addr;
  XUPDATE_RETURN_IF_ERROR(FillAddr(path, &addr));
  // A socket file left by a crashed server would make bind() fail with
  // EADDRINUSE even though nothing is listening. Probe it: if a connect
  // succeeds a live server owns the path and we must not steal it;
  // ECONNREFUSED means stale, so unlink and proceed.
  if (UnixSocket::Connect(path).ok()) {
    return Status::InvalidArgument("a server is already listening on " + path);
  }
  (void)::unlink(path.c_str());
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  UnixListener listener;
  listener.fd_ = fd;
  listener.path_ = path;
  XUPDATE_RETURN_IF_ERROR(SetCloexec(fd));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind " + path);
  }
  if (::listen(fd, backlog) != 0) {
    return Errno("listen " + path);
  }
  return listener;
}

Result<UnixSocket> UnixListener::AcceptWithTimeout(int timeout_ms) {
  if (fd_ < 0) return Status::IoError("accept on closed listener");
  pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return UnixSocket();  // treat as a timeout tick
    return Errno("poll");
  }
  if (rc == 0) return UnixSocket();  // timeout: closed socket sentinel
  int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    // The pending connection can vanish between poll and accept.
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
        errno == EWOULDBLOCK) {
      return UnixSocket();
    }
    return Errno("accept");
  }
  UnixSocket sock;
  sock.fd_ = fd;
  XUPDATE_RETURN_IF_ERROR(SetCloexec(fd));
  return sock;
}

Status UnixListener::Close() {
  if (fd_ < 0) return Status::OK();
  int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return Errno("close listener");
  if (!path_.empty()) (void)::unlink(path_.c_str());
  return Status::OK();
}

}  // namespace xupdate
