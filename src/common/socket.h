#ifndef XUPDATE_COMMON_SOCKET_H_
#define XUPDATE_COMMON_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace xupdate {

// Thin POSIX Unix-domain stream socket layer for the PUL reasoning
// server. Connections exchange length-prefixed CRC-framed messages
// (common/framing.h — the same frame the WAL journal uses), so torn and
// corrupt wire data is detected by the exact code path that detects a
// torn journal tail. Everything reports through Status/Result; nothing
// throws. All fds are CLOEXEC.

// A connected stream socket: the client side of Connect(), or one
// accepted connection on the server side.
class UnixSocket {
 public:
  // Connects to the listening socket at `path`.
  static Result<UnixSocket> Connect(const std::string& path);

  // A connected pair (socketpair(2)): two in-process peers.
  static Result<std::pair<UnixSocket, UnixSocket>> Pair();

  // A default-constructed socket is closed.
  UnixSocket() = default;
  UnixSocket(UnixSocket&& other) noexcept;
  UnixSocket& operator=(UnixSocket&& other) noexcept;
  UnixSocket(const UnixSocket&) = delete;
  UnixSocket& operator=(const UnixSocket&) = delete;
  ~UnixSocket();

  // Writes all of `data`, retrying on short writes and EINTR.
  Status SendAll(std::string_view data);

  // Writes one frame whose body is the concatenation of `body_parts`,
  // without joining them: the header (length, and the CRC chained over
  // the parts with ExtendCrc32c) and the parts go out through sendmsg,
  // resumed after short writes and EINTR. The bytes on the wire equal
  // framing::EncodeFrame(<the joined parts>).
  Status SendFrame(const std::vector<std::string_view>& body_parts);

  // Reads one complete frame into `*body`, the CRC-verified body bytes.
  // The string's capacity is reused: a reader that passes the same
  // string for every frame allocates only when a body outgrows it. The
  // length is checked against `max_body_bytes` before `*body` grows.
  //   kNotFound    clean EOF before the first header byte (the peer
  //                finished and closed — the idle-disconnect case);
  //   kIoError     EOF mid-frame or a read error (torn request);
  //   kParseError  CRC mismatch or body larger than `max_body_bytes`
  //                (framing is lost; the connection must be dropped).
  // On any error `*body` is left empty.
  Status RecvFrame(uint64_t max_body_bytes, std::string* body);

  // Half-close / close. shutdown() wakes a peer (or own thread) blocked
  // in RecvFrame; Close() is idempotent and runs on destruction.
  Status ShutdownBoth();
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  friend class UnixListener;
  // RecvFrame without the clear-on-error.
  Status RecvFrameInto(uint64_t max_body_bytes, std::string* body);

  int fd_ = -1;
};

// The server's listening socket.
class UnixListener {
 public:
  // Binds and listens at `path`. A stale socket file from a previous
  // run is unlinked first; fails if something is actively listening.
  static Result<UnixListener> Bind(const std::string& path, int backlog = 64);

  UnixListener() = default;
  UnixListener(UnixListener&& other) noexcept;
  UnixListener& operator=(UnixListener&& other) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;
  ~UnixListener();

  // Polls for a pending connection for up to `timeout_ms`, then
  // accepts it. Returns an open socket, or a closed (is_open() ==
  // false) socket on timeout — the accept-loop idiom that lets the
  // server check its stop flag between polls.
  Result<UnixSocket> AcceptWithTimeout(int timeout_ms);

  // Closes the fd and unlinks the socket file.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace xupdate

#endif  // XUPDATE_COMMON_SOCKET_H_
