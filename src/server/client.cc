#include "server/client.h"

#include <utility>

namespace xupdate::server {

Result<Client> Client::Connect(const std::string& socket_path,
                               uint64_t max_message_bytes) {
  Client client;
  XUPDATE_ASSIGN_OR_RETURN(client.sock_, UnixSocket::Connect(socket_path));
  client.max_message_bytes_ = max_message_bytes;
  return client;
}

Status Client::Send(const Message& request) {
  return SendMessage(&sock_, request);
}

Result<Message> Client::Receive() {
  XUPDATE_RETURN_IF_ERROR(sock_.RecvFrame(max_message_bytes_, &recv_buf_));
  return DecodeMessage(recv_buf_, /*expect_request=*/false);
}

Result<Message> Client::Call(const Message& request) {
  XUPDATE_RETURN_IF_ERROR(Send(request));
  XUPDATE_ASSIGN_OR_RETURN(Message response, Receive());
  if (response.type == MsgType::kError) return StatusFromError(response);
  return response;
}

Result<uint64_t> Client::Open(const std::string& tenant,
                              const std::string& initial_xml) {
  Message request;
  request.type = MsgType::kOpen;
  request.payload = {tenant, initial_xml};
  XUPDATE_ASSIGN_OR_RETURN(Message response, Call(request));
  return response.a;
}

Result<CommitAck> Client::Commit(const std::string& tenant,
                                 const std::string& pul_xml) {
  Message request;
  request.type = MsgType::kCommit;
  request.payload = {tenant, pul_xml};
  XUPDATE_ASSIGN_OR_RETURN(Message response, Call(request));
  CommitAck ack;
  if (response.type == MsgType::kBusy) {
    ack.busy = true;
  } else {
    ack.version = response.a;
  }
  return ack;
}

Result<std::string> Client::Checkout(const std::string& tenant,
                                     uint64_t version, bool head) {
  Message request;
  request.type = MsgType::kCheckout;
  request.a = version;
  request.b = head ? 1 : 0;
  request.payload = {tenant};
  XUPDATE_ASSIGN_OR_RETURN(Message response, Call(request));
  if (response.payload.size() != 1) {
    return Status::Internal("checkout response carries no document");
  }
  return std::move(response.payload[0]);
}

Result<std::string> Client::Reduce(const std::string& pul_xml,
                                   const std::string& mode,
                                   uint64_t parallelism) {
  Message request;
  request.type = MsgType::kReduce;
  request.a = parallelism;
  request.payload = {pul_xml, mode};
  XUPDATE_ASSIGN_OR_RETURN(Message response, Call(request));
  if (response.payload.size() != 1) {
    return Status::Internal("reduce response carries no PUL");
  }
  return std::move(response.payload[0]);
}

Result<IntegrateAck> Client::Integrate(
    const std::vector<std::string>& pul_xmls, uint64_t parallelism) {
  Message request;
  request.type = MsgType::kIntegrate;
  request.a = parallelism;
  request.payload = pul_xmls;
  XUPDATE_ASSIGN_OR_RETURN(Message response, Call(request));
  if (response.payload.size() != 1) {
    return Status::Internal("integrate response carries no PUL");
  }
  IntegrateAck ack;
  ack.conflicts = response.a;
  ack.merged_xml = std::move(response.payload[0]);
  return ack;
}

Result<std::string> Client::Aggregate(
    const std::vector<std::string>& pul_xmls) {
  Message request;
  request.type = MsgType::kAggregate;
  request.payload = pul_xmls;
  XUPDATE_ASSIGN_OR_RETURN(Message response, Call(request));
  if (response.payload.size() != 1) {
    return Status::Internal("aggregate response carries no PUL");
  }
  return std::move(response.payload[0]);
}

Result<std::string> Client::Stat() {
  Message request;
  request.type = MsgType::kStat;
  XUPDATE_ASSIGN_OR_RETURN(Message response, Call(request));
  // Forward compatibility: a newer server may append payload strings (or
  // bump the version scalar in response.b); only a payload with no
  // metrics at all is an error. Payload shape is not a protocol version
  // check — server/stat.h's parser handles every known payload version.
  if (response.payload.empty()) {
    return Status::Internal("stat response carries no metrics");
  }
  return std::move(response.payload[0]);
}

Status Client::Ping() {
  Message request;
  request.type = MsgType::kPing;
  Result<Message> response = Call(request);
  return response.ok() ? Status::OK() : response.status();
}

Status Client::Shutdown() {
  Message request;
  request.type = MsgType::kShutdown;
  Result<Message> response = Call(request);
  return response.ok() ? Status::OK() : response.status();
}

}  // namespace xupdate::server
