#ifndef XUPDATE_SERVER_CLIENT_H_
#define XUPDATE_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/socket.h"
#include "server/protocol.h"

namespace xupdate::server {

// Client side of the daemon protocol: one connection, synchronous
// convenience calls plus the raw Send/Receive pair the load generator
// uses to pipeline (responses arrive in request order, so a sender
// thread can stream requests while a receiver thread drains replies).

// Commit can succeed, fail, or be shed (kBusy) — shedding is load
// feedback, not an error, so it is a field rather than a Status.
struct CommitAck {
  bool busy = false;
  uint64_t version = 0;
};

struct IntegrateAck {
  uint64_t conflicts = 0;
  std::string merged_xml;
};

class Client {
 public:
  static Result<Client> Connect(
      const std::string& socket_path,
      uint64_t max_message_bytes = kDefaultMaxMessageBytes);

  Client() = default;
  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;

  // Creates (initial_xml non-empty) or reopens (initial_xml empty) the
  // tenant's store; returns its head version.
  Result<uint64_t> Open(const std::string& tenant,
                        const std::string& initial_xml);
  Result<CommitAck> Commit(const std::string& tenant,
                           const std::string& pul_xml);
  // head=true checks out the current head (version ignored).
  Result<std::string> Checkout(const std::string& tenant, uint64_t version,
                               bool head = false);
  Result<std::string> Reduce(const std::string& pul_xml,
                             const std::string& mode, uint64_t parallelism);
  Result<IntegrateAck> Integrate(const std::vector<std::string>& pul_xmls,
                                 uint64_t parallelism);
  Result<std::string> Aggregate(const std::vector<std::string>& pul_xmls);
  // Server metrics registry as JSON.
  Result<std::string> Stat();
  Status Ping();
  // Asks the server to stop; returns once the server acknowledged.
  Status Shutdown();

  // Pipelining primitives. Responses must be received in send order.
  Status Send(const Message& request);
  Result<Message> Receive();

  // Unblocks a Receive() in another thread.
  Status ShutdownSocket() { return sock_.ShutdownBoth(); }
  Status Close() { return sock_.Close(); }

 private:
  // One round trip; turns kError into its Status, leaves kOk/kBusy.
  Result<Message> Call(const Message& request);

  UnixSocket sock_;
  uint64_t max_message_bytes_ = kDefaultMaxMessageBytes;
  // Receive()'s frame buffer, reused across responses (only the thread
  // that receives touches it).
  std::string recv_buf_;
};

}  // namespace xupdate::server

#endif  // XUPDATE_SERVER_CLIENT_H_
