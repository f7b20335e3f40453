#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <utility>

#include "common/file_io.h"
#include "common/string_util.h"
#include "core/aggregate.h"
#include "core/integrate.h"
#include "core/reduce.h"
#include "pul/pul_io.h"
#include "server/stat.h"

namespace xupdate::server {

namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

Message OkMessage(uint64_t a = 0, uint64_t b = 0) {
  Message msg;
  msg.type = MsgType::kOk;
  msg.a = a;
  msg.b = b;
  return msg;
}

// A kOk response carrying one payload string, moved in: a braced
// initializer list would copy it.
Message OkMessage(uint64_t a, uint64_t b, std::string payload) {
  Message msg = OkMessage(a, b);
  msg.payload.push_back(std::move(payload));
  return msg;
}

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::string_view RequestTypeName(MsgType type) {
  switch (type) {
    case MsgType::kOpen:
      return "open";
    case MsgType::kCommit:
      return "commit";
    case MsgType::kCheckout:
      return "checkout";
    case MsgType::kReduce:
      return "reduce";
    case MsgType::kIntegrate:
      return "integrate";
    case MsgType::kAggregate:
      return "aggregate";
    case MsgType::kStat:
      return "stat";
    case MsgType::kPing:
      return "ping";
    case MsgType::kShutdown:
      return "shutdown";
    default:
      return "unknown";
  }
}

// Tenant name for the slow-request log, for the request types whose
// first payload string is a tenant.
std::string TenantOfRequest(const Message& request) {
  switch (request.type) {
    case MsgType::kOpen:
    case MsgType::kCommit:
    case MsgType::kCheckout:
    case MsgType::kStat:
      return request.payload.empty() ? std::string() : request.payload[0];
    default:
      return std::string();
  }
}

std::string FormatMs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1000.0);
  return buf;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options), started_(Clock::now()), slow_refill_(started_) {}

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("server needs a socket path");
  }
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("server needs a data directory");
  }
  XUPDATE_RETURN_IF_ERROR(EnsureDirectory(options.data_dir));
  std::unique_ptr<Server> server(new Server(options));
  // Per-tenant stores share the server's metrics registry (it is
  // thread-safe); the tracer is not shared with the stores — server
  // tracing follows the (request id, pipeline lane) discipline instead.
  server->options_.store.metrics = options.metrics;
  server->options_.store.tracer = nullptr;
  if (options.flight_recorder_capacity > 0) {
    server->flight_ =
        std::make_unique<obs::FlightRecorder>(options.flight_recorder_capacity);
  }
  if (server->options_.flight_dump_path.empty()) {
    server->options_.flight_dump_path = options.data_dir + "/flight.jsonl";
  }
  if (options.slow_request_ms >= 0 && !options.slow_request_log_path.empty()) {
    server->slow_log_stream_.open(options.slow_request_log_path,
                                  std::ios::app);
    if (!server->slow_log_stream_.is_open()) {
      return Status::IoError("cannot open slow-request log: " +
                             options.slow_request_log_path);
    }
    server->slow_log_to_file_ = true;
  }
  if (options.slow_request_log_max_per_sec > 0) {
    // Start with a full bucket so the first burst of slow requests —
    // usually the interesting one — is never throttled.
    server->slow_tokens_ =
        2.0 * static_cast<double>(options.slow_request_log_max_per_sec);
  }
  XUPDATE_ASSIGN_OR_RETURN(server->listener_,
                           UnixListener::Bind(options.socket_path));
  server->accept_thread_ =
      std::thread([s = server.get()] { s->AcceptLoop(); });
  server->batcher_thread_ =
      std::thread([s = server.get()] { s->BatcherLoop(); });
  return server;
}

Server::~Server() { (void)Stop(); }

void Server::Wait(const std::atomic<bool>* external_stop) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_requested_.load() && !stop_.load() &&
         (external_stop == nullptr || !external_stop->load())) {
    stop_cv_.wait_for(lock, milliseconds(100));
  }
}

void Server::RequestStop() {
  stop_requested_.store(true);
  stop_cv_.notify_all();
}

Status Server::Stop() {
  // Serialize concurrent Stop() calls (destructor vs. owner).
  std::lock_guard<std::mutex> stop_call(stop_call_mu_);
  if (stopped_) return Status::OK();
  stop_.store(true);
  stop_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Unblock every session's recv. In-flight requests still finish —
  // including commits waiting on the batcher, which keeps running
  // until all sessions are joined (a commit whose promise is never
  // fulfilled would deadlock the join).
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (Session& session : sessions_) (void)session.sock.ShutdownBoth();
  }
  // The accept thread (the only other mutator of sessions_) is joined,
  // so iterating without the lock is safe — and necessary: joining
  // under sessions_mu_ would deadlock, since a session closes its socket
  // under it.
  for (Session& session : sessions_) {
    if (session.worker.joinable()) session.worker.join();
  }
  // Only sessions use the reasoning pool, and they are all joined.
  pool_.reset();
  batcher_stop_.store(true);
  queue_cv_.notify_all();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  Status worst = listener_.Close();
  {
    std::lock_guard<std::mutex> tenants_lock(tenants_mu_);
    for (auto& [name, tenant] : tenants_) {
      std::lock_guard<std::mutex> lock(tenant->mu);
      if (tenant->store.has_value()) {
        Status closed = tenant->store->Close();
        if (worst.ok() && !closed.ok()) worst = closed;
      }
    }
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kShutdown, {}, 0, 0,
                    flight_->total_recorded());
    Status dumped = DumpFlightRecorder();
    if (worst.ok() && !dumped.ok()) worst = dumped;
  }
  stopped_ = true;
  return worst;
}

Status Server::DumpFlightRecorder() {
  if (flight_ == nullptr) return Status::OK();
  return WriteFileAtomic(options_.flight_dump_path, flight_->DumpJsonl());
}

uint64_t Server::uptime_ms() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<milliseconds>(Clock::now() - started_)
          .count());
}

void Server::RecordFlight(obs::FlightEventKind kind, std::string_view tenant,
                          uint64_t request, uint64_t batch, uint64_t value,
                          std::string_view detail) {
  if (flight_ == nullptr) return;
  flight_->Record(kind, tenant, request, batch, value, detail);
}

void Server::MaybeLogSlowRequest(std::string_view type,
                                 const std::string& tenant,
                                 uint64_t request_id,
                                 const CommitResult& result,
                                 double admission_seconds,
                                 double total_seconds) {
  if (options_.slow_request_ms < 0) return;
  if (total_seconds * 1000.0 <
      static_cast<double>(options_.slow_request_ms)) {
    return;
  }
  std::string line = "{\"uptime_ms\":";
  line += std::to_string(uptime_ms());
  line += ",\"request\":";
  line += std::to_string(request_id);
  line += ",\"type\":\"";
  line += type;
  line += "\",\"tenant\":\"";
  line += JsonEscape(tenant);
  line += "\",\"batch\":";
  line += std::to_string(result.batch_id);
  line += ",\"status\":\"";
  line += result.status.ok() ? std::string_view("ok")
                             : StatusCodeToString(result.status.code());
  line += "\",\"total_ms\":";
  line += FormatMs(total_seconds);
  line += ",\"admission_ms\":";
  line += FormatMs(admission_seconds);
  line += ",\"batch_wait_ms\":";
  line += FormatMs(result.batch_wait_seconds);
  line += ",\"fsync_ms\":";
  line += FormatMs(result.fsync_seconds);
  line += ",\"apply_ms\":";
  line += FormatMs(result.apply_seconds);
  line += ",\"store_ms\":";
  line += FormatMs(result.store_seconds);
  line += '}';
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    const double rate =
        static_cast<double>(options_.slow_request_log_max_per_sec);
    if (rate > 0) {
      const auto now = Clock::now();
      const double cap = 2.0 * rate;
      slow_tokens_ += SecondsBetween(slow_refill_, now) * rate;
      if (slow_tokens_ > cap) slow_tokens_ = cap;
      slow_refill_ = now;
      if (slow_tokens_ < 1.0) {
        if (options_.metrics != nullptr) {
          options_.metrics->AddCounter("server.slowlog.dropped");
        }
        return;
      }
      slow_tokens_ -= 1.0;
    }
    std::ostream& out =
        slow_log_to_file_ ? static_cast<std::ostream&>(slow_log_stream_)
                          : std::cerr;
    out << line << '\n';
    out.flush();
  }
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("server.slowlog.count");
  }
}

void Server::AcceptLoop() {
  while (!stop_.load()) {
    Result<UnixSocket> accepted = listener_.AcceptWithTimeout(100);
    ReapFinishedSessions();
    if (!accepted.ok()) {
      if (options_.metrics != nullptr) {
        options_.metrics->AddCounter("server.accept.errors");
      }
      continue;
    }
    if (!accepted->is_open()) continue;  // timeout tick
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.emplace_back();
    Session* session = &sessions_.back();
    session->sock = std::move(*accepted);
    session->worker = std::thread([this, session] { SessionLoop(session); });
    if (options_.metrics != nullptr) {
      options_.metrics->AddCounter("server.accept.count");
    }
  }
}

void Server::ReapFinishedSessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->finished.load()) {
      if (it->worker.joinable()) it->worker.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::SessionLoop(Session* session) {
  // Per-session response pipeline: the read loop pushes thunks, the
  // writer evaluates them strictly FIFO and sends the results. A queued
  // commit therefore doesn't block reading the next request — which is
  // what lets one pipelining connection's commits share a batch — while
  // responses still leave in request order. Queue depth is bounded by
  // how far the client pipelines (one thunk per unanswered request).
  std::mutex mu;
  std::condition_variable cv;
  std::deque<ResponseThunk> pending;
  bool done = false;
  std::thread writer([this, session, &mu, &cv, &pending, &done] {
    for (;;) {
      ResponseThunk next;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || done; });
        if (pending.empty()) return;  // done and drained
        next = std::move(pending.front());
        pending.pop_front();
      }
      Message response = next();  // may block on a commit outcome
      if (!SendMessage(&session->sock, response).ok()) {
        // Peer is gone. Unblock the read loop and bail; any commits
        // still pending are fulfilled by the batcher regardless.
        (void)session->sock.ShutdownBoth();
        return;
      }
    }
  });
  auto enqueue = [&mu, &cv, &pending](ResponseThunk thunk) {
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(std::move(thunk));
    }
    cv.notify_all();
  };
  bool shutdown = false;
  // The session's one receive buffer: every request frame is read into
  // it, so its capacity (at most max_message_bytes) is reused and freed
  // when the session ends. DecodeMessage copies the payload out, so the
  // buffer is free again as soon as the request is decoded.
  std::string frame;
  for (;;) {
    Status received =
        session->sock.RecvFrame(options_.max_message_bytes, &frame);
    if (!received.ok()) {
      // kNotFound is the peer closing between requests — the normal end
      // of a session. Everything else (EOF mid-frame, CRC mismatch,
      // oversized length prefix) means the stream can no longer be
      // trusted to be frame-aligned: drop the connection, count it.
      if (received.code() != StatusCode::kNotFound &&
          options_.metrics != nullptr) {
        options_.metrics->AddCounter("server.recv.errors");
      }
      break;
    }
    Result<Message> request = DecodeMessage(frame, /*expect_request=*/true);
    if (!request.ok()) {
      // The frame itself was CRC-clean, so framing is intact; a
      // malformed message gets an error response and the session lives.
      enqueue([response = ErrorResponse(request.status())] {
        return response;
      });
      continue;
    }
    if (request->type == MsgType::kShutdown) {
      shutdown = true;
      break;
    }
    enqueue(Handle(std::move(*request)));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  writer.join();
  if (shutdown) {
    // Acknowledge only after every earlier response was flushed, so the
    // client sees a fully ordered stream, then stop the server.
    (void)SendMessage(&session->sock, OkMessage());
    RequestStop();
  }
  {
    // Stop() shuts every session's socket down under sessions_mu_;
    // closing under the same lock keeps it from reading a socket that
    // is being closed.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    (void)session->sock.Close();
  }
  session->finished.store(true);
}

Server::ResponseThunk Server::Handle(Message request) {
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("server.requests");
  }
  if (request.type == MsgType::kCommit) {
    return HandleCommitDeferred(request);
  }
  // Request ids are handed out on the read loop for every request type,
  // so for a single serial connection the id sequence — and with it the
  // trace journal — is deterministic.
  const uint64_t rid = next_request_id_.fetch_add(1);
  if (options_.tracer == nullptr && options_.slow_request_ms < 0) {
    // Everything else evaluates lazily on the writer thread, after every
    // commit the connection queued before it.
    return [this, request = std::move(request)] {
      return HandleSync(request);
    };
  }
  return [this, request = std::move(request), rid] {
    obs::TraceLane lane;
    const std::string_view name = RequestTypeName(request.type);
    if (options_.tracer != nullptr) {
      lane = options_.tracer->Lane(static_cast<uint32_t>(rid), 0, "serve");
      lane.Emit(obs::EventKind::kSpanBegin, name);
    }
    const auto start = Clock::now();
    Message response = HandleSync(request);
    const double total = SecondsBetween(start, Clock::now());
    if (lane.enabled()) lane.Emit(obs::EventKind::kSpanEnd, name);
    MaybeLogSlowRequest(name, TenantOfRequest(request), rid, CommitResult{},
                        0.0, total);
    return response;
  };
}

Message Server::HandleSync(const Message& request) {
  switch (request.type) {
    case MsgType::kOpen: {
      ScopedTimer timer(options_.metrics, "server.open.seconds");
      return HandleOpen(request);
    }
    case MsgType::kCheckout: {
      ScopedTimer timer(options_.metrics, "server.checkout.seconds");
      return HandleCheckout(request);
    }
    case MsgType::kReduce: {
      ScopedTimer timer(options_.metrics, "server.reduce.seconds");
      return HandleReduce(request);
    }
    case MsgType::kIntegrate: {
      ScopedTimer timer(options_.metrics, "server.integrate.seconds");
      return HandleIntegrate(request);
    }
    case MsgType::kAggregate: {
      ScopedTimer timer(options_.metrics, "server.aggregate.seconds");
      return HandleAggregate(request);
    }
    case MsgType::kStat:
      return HandleStat(request);
    case MsgType::kPing:
      return OkMessage(request.a, request.b);
    case MsgType::kShutdown:
      return OkMessage();
    default:
      return ErrorResponse(Status::InvalidArgument("unhandled request type"));
  }
}

Result<Server::Tenant*> Server::GetTenant(const std::string& name,
                                          bool create) {
  if (!ValidTenantName(name)) {
    return Status::InvalidArgument("invalid tenant name: \"" + name + "\"");
  }
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    if (!create) return Status::NotFound("tenant is not open: " + name);
    auto tenant = std::make_unique<Tenant>();
    tenant->name = name;
    // ValidTenantName is a strict subset of the metric-name charset, so
    // these names always pass registration.
    const std::string prefix = "tenant/" + name + "/";
    tenant->m_commit_seconds = prefix + "commit.seconds";
    tenant->m_commit_count = prefix + "commit.count";
    tenant->m_commit_errors = prefix + "commit.errors";
    tenant->m_checkout_seconds = prefix + "checkout.seconds";
    tenant->m_shed_count = prefix + "shed.count";
    tenant->m_requests = prefix + "requests";
    tenant->m_wal_bytes = prefix + "wal.bytes";
    it = tenants_.emplace(name, std::move(tenant)).first;
  }
  if (options_.metrics != nullptr && options_.per_tenant_metrics) {
    options_.metrics->AddCounter(it->second->m_requests);
  }
  return it->second.get();
}

Message Server::HandleOpen(const Message& request) {
  if (request.payload.size() != 2) {
    return ErrorResponse(
        Status::InvalidArgument("open expects [tenant, initial_xml]"));
  }
  Result<Tenant*> tenant = GetTenant(request.payload[0], /*create=*/true);
  if (!tenant.ok()) return ErrorResponse(tenant.status());
  const std::string& initial = request.payload[1];
  std::lock_guard<std::mutex> lock((*tenant)->mu);
  if (!(*tenant)->store.has_value()) {
    std::string dir = options_.data_dir + "/" + request.payload[0];
    bool exists = PathExists(dir + "/wal.log");
    if (!exists) {
      if (initial.empty()) {
        return ErrorResponse(Status::NotFound(
            "tenant store does not exist and no initial document was "
            "given: " +
            dir));
      }
      Status init = store::VersionStore::Init(dir, initial, options_.store);
      if (!init.ok()) return ErrorResponse(init);
    } else if (!initial.empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "tenant store already exists; reopen it without an initial "
          "document: " +
          dir));
    }
    Result<store::VersionStore> opened =
        store::VersionStore::Open(dir, options_.store);
    if (!opened.ok()) return ErrorResponse(opened.status());
    (*tenant)->store.emplace(std::move(*opened));
    const uint64_t resident = resident_tenants_.fetch_add(1) + 1;
    (*tenant)->wal_bytes_last = (*tenant)->store->wal_bytes();
    const uint64_t total_bytes =
        total_wal_bytes_.fetch_add((*tenant)->wal_bytes_last) +
        (*tenant)->wal_bytes_last;
    if (options_.metrics != nullptr) {
      options_.metrics->SetGauge("server.tenants.resident",
                                 static_cast<int64_t>(resident));
      options_.metrics->SetGauge("server.wal.bytes",
                                 static_cast<int64_t>(total_bytes));
      if (options_.per_tenant_metrics) {
        options_.metrics->SetGauge(
            (*tenant)->m_wal_bytes,
            static_cast<int64_t>((*tenant)->wal_bytes_last));
      }
    }
    RecordFlight(obs::FlightEventKind::kTenantOpen, (*tenant)->name, 0, 0,
                 resident);
  } else if (!initial.empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "tenant is already open; reopen it without an initial document"));
  }
  return OkMessage((*tenant)->store->head());
}

Server::ResponseThunk Server::HandleCommitDeferred(const Message& request) {
  auto ready = [](Message m) {
    return ResponseThunk([m = std::move(m)] { return m; });
  };
  const uint64_t rid = next_request_id_.fetch_add(1);
  const auto recv_tp = Clock::now();
  if (request.payload.size() != 2) {
    return ready(ErrorResponse(
        Status::InvalidArgument("commit expects [tenant, pul_xml]")));
  }
  const std::string& tenant_name = request.payload[0];
  Result<Tenant*> tenant = GetTenant(tenant_name, /*create=*/false);
  if (!tenant.ok()) return ready(ErrorResponse(tenant.status()));
  {
    std::lock_guard<std::mutex> lock((*tenant)->mu);
    if (!(*tenant)->store.has_value()) {
      return ready(
          ErrorResponse(Status::NotFound("tenant is not open: " + tenant_name)));
    }
  }
  Result<pul::Pul> pul = pul::ParsePul(request.payload[1]);
  if (!pul.ok()) return ready(ErrorResponse(pul.status()));
  obs::TraceLane lane;
  if (options_.tracer != nullptr) {
    lane = options_.tracer->Lane(static_cast<uint32_t>(rid), 0, "serve");
    lane.Emit(obs::EventKind::kSpanBegin, "commit.admit", {}, {},
              "tenant=" + tenant_name);
  }
  const auto admit_tp = Clock::now();
  std::future<CommitResult> done;
  uint64_t depth = 0;
  int shed = 0;  // 0 = admitted, 1 = global bound, 2 = tenant quota
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= options_.max_pending) {
      // Explicit load shedding: the client sees kBusy and backs off;
      // an unbounded queue would instead grow latency without limit.
      shed = 1;
      depth = queue_.size();
    } else if (options_.max_pending_per_tenant > 0 &&
               (*tenant)->pending >= options_.max_pending_per_tenant) {
      // Per-tenant shedding: the hot tenant is over its share of the
      // admission queue; everyone else's commits still get through.
      shed = 2;
      depth = queue_.size();
    } else {
      ++(*tenant)->pending;
      CommitJob job;
      job.tenant = *tenant;
      job.request_id = rid;
      job.admit_tp = admit_tp;
      job.pul = std::move(*pul);
      done = job.done.get_future();
      queue_.push_back(std::move(job));
      depth = queue_.size();
      if (options_.metrics != nullptr) {
        options_.metrics->SetGauge("server.queue.depth",
                                   static_cast<int64_t>(depth));
      }
    }
  }
  if (shed != 0) {
    const std::string_view reason = shed == 1 ? "global" : "tenant-quota";
    if (options_.metrics != nullptr) {
      options_.metrics->AddCounter("server.busy.count");
      if (shed == 2) options_.metrics->AddCounter("server.busy.tenant_quota");
      if (options_.per_tenant_metrics) {
        options_.metrics->AddCounter((*tenant)->m_shed_count);
      }
    }
    RecordFlight(obs::FlightEventKind::kShed, tenant_name, rid, 0, depth,
                 reason);
    if (lane.enabled()) {
      lane.Emit(obs::EventKind::kNote, "commit.shed", {}, {},
                std::string(reason));
      lane.Emit(obs::EventKind::kSpanEnd, "commit.admit");
    }
    Message busy;
    busy.type = MsgType::kBusy;
    return ready(busy);
  }
  queue_cv_.notify_all();
  RecordFlight(obs::FlightEventKind::kAdmit, tenant_name, rid, 0, depth);
  if (lane.enabled()) lane.Emit(obs::EventKind::kSpanEnd, "commit.admit");
  // The job is admitted; the writer thread blocks here, so the read
  // loop is already free to admit the connection's next commit into the
  // same batch window.
  auto outcome =
      std::make_shared<std::future<CommitResult>>(std::move(done));
  Tenant* tenant_ptr = *tenant;
  return [this, outcome, recv_tp, admit_tp, rid, tenant_ptr, tenant_name] {
    obs::TraceLane respond;
    if (options_.tracer != nullptr) {
      respond = options_.tracer->Lane(static_cast<uint32_t>(rid), 3, "serve");
      respond.Emit(obs::EventKind::kSpanBegin, "commit.respond");
    }
    CommitResult result = outcome->get();
    const double total = SecondsBetween(recv_tp, Clock::now());
    if (options_.metrics != nullptr) {
      options_.metrics->RecordDuration("server.commit.seconds", total);
      if (options_.per_tenant_metrics) {
        options_.metrics->RecordDuration(tenant_ptr->m_commit_seconds, total);
        options_.metrics->AddCounter(result.status.ok()
                                         ? tenant_ptr->m_commit_count
                                         : tenant_ptr->m_commit_errors);
      }
    }
    if (respond.enabled()) {
      respond.Emit(obs::EventKind::kNote, "commit.done", {},
                   result.status.ok()
                       ? "v" + std::to_string(result.version)
                       : std::string(StatusCodeToString(result.status.code())));
      respond.Emit(obs::EventKind::kSpanEnd, "commit.respond");
    }
    MaybeLogSlowRequest("commit", tenant_name, rid, result,
                        SecondsBetween(recv_tp, admit_tp), total);
    if (!result.status.ok()) return ErrorResponse(result.status);
    return OkMessage(result.version);
  };
}

Message Server::HandleCheckout(const Message& request) {
  if (request.payload.size() != 1) {
    return ErrorResponse(Status::InvalidArgument(
        "checkout expects [tenant] with a = version (b = 1 for head)"));
  }
  Result<Tenant*> tenant = GetTenant(request.payload[0], /*create=*/false);
  if (!tenant.ok()) return ErrorResponse(tenant.status());
  ScopedTimer tenant_timer(
      options_.per_tenant_metrics ? options_.metrics : nullptr,
      (*tenant)->m_checkout_seconds);
  std::lock_guard<std::mutex> lock((*tenant)->mu);
  if (!(*tenant)->store.has_value()) {
    return ErrorResponse(
        Status::NotFound("tenant is not open: " + request.payload[0]));
  }
  uint64_t version =
      request.b == 1 ? (*tenant)->store->head() : request.a;
  Result<std::string> xml = (*tenant)->store->CheckoutXml(version);
  if (!xml.ok()) return ErrorResponse(xml.status());
  return OkMessage(version, 0, std::move(*xml));
}

ThreadPool* Server::ReasoningPool(int parallelism) {
  if (parallelism <= 1) return nullptr;
  // The calling session thread runs blocks too, so max_parallelism - 1
  // workers serve a request at the cap.
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(std::max(1, options_.max_parallelism - 1)));
  });
  return pool_.get();
}

int Server::ClampParallelism(uint64_t requested) const {
  if (requested == 0) return 1;
  uint64_t cap = options_.max_parallelism > 0
                     ? static_cast<uint64_t>(options_.max_parallelism)
                     : 1;
  return static_cast<int>(requested < cap ? requested : cap);
}

Message Server::HandleReduce(const Message& request) {
  if (request.payload.size() != 2) {
    return ErrorResponse(
        Status::InvalidArgument("reduce expects [pul_xml, mode]"));
  }
  Result<pul::Pul> pul = pul::ParsePul(request.payload[0]);
  if (!pul.ok()) return ErrorResponse(pul.status());
  core::ReduceOptions options;
  const std::string& mode = request.payload[1];
  if (mode == "plain") {
    options.mode = core::ReduceMode::kPlain;
  } else if (mode == "deterministic" || mode.empty()) {
    options.mode = core::ReduceMode::kDeterministic;
  } else if (mode == "canonical") {
    options.mode = core::ReduceMode::kCanonical;
  } else {
    return ErrorResponse(Status::InvalidArgument(
        "reduce mode must be plain|deterministic|canonical, got \"" + mode +
        "\""));
  }
  options.parallelism = ClampParallelism(request.a);
  options.pool = ReasoningPool(options.parallelism);
  options.metrics = options_.metrics;
  Result<pul::Pul> reduced = core::Reduce(*pul, options);
  if (!reduced.ok()) return ErrorResponse(reduced.status());
  Result<std::string> xml = pul::SerializePul(*reduced);
  if (!xml.ok()) return ErrorResponse(xml.status());
  return OkMessage(0, 0, std::move(*xml));
}

Message Server::HandleIntegrate(const Message& request) {
  if (request.payload.size() < 2) {
    return ErrorResponse(
        Status::InvalidArgument("integrate expects at least two PULs"));
  }
  std::vector<pul::Pul> puls;
  puls.reserve(request.payload.size());
  for (const std::string& text : request.payload) {
    Result<pul::Pul> pul = pul::ParsePul(text);
    if (!pul.ok()) return ErrorResponse(pul.status());
    puls.push_back(std::move(*pul));
  }
  std::vector<const pul::Pul*> ptrs;
  for (const pul::Pul& pul : puls) ptrs.push_back(&pul);
  core::IntegrateOptions options;
  options.parallelism = ClampParallelism(request.a);
  options.pool = ReasoningPool(options.parallelism);
  options.metrics = options_.metrics;
  Result<core::IntegrationResult> result = core::Integrate(ptrs, options);
  if (!result.ok()) return ErrorResponse(result.status());
  Result<std::string> xml = pul::SerializePul(result->merged);
  if (!xml.ok()) return ErrorResponse(xml.status());
  return OkMessage(result->conflicts.size(), 0, std::move(*xml));
}

Message Server::HandleAggregate(const Message& request) {
  if (request.payload.size() < 2) {
    return ErrorResponse(
        Status::InvalidArgument("aggregate expects at least two PULs"));
  }
  std::vector<pul::Pul> puls;
  puls.reserve(request.payload.size());
  for (const std::string& text : request.payload) {
    Result<pul::Pul> pul = pul::ParsePul(text);
    if (!pul.ok()) return ErrorResponse(pul.status());
    puls.push_back(std::move(*pul));
  }
  std::vector<const pul::Pul*> ptrs;
  for (const pul::Pul& pul : puls) ptrs.push_back(&pul);
  core::AggregateOptions options;
  options.metrics = options_.metrics;
  Result<pul::Pul> aggregate = core::Aggregate(ptrs, options);
  if (!aggregate.ok()) return ErrorResponse(aggregate.status());
  Result<std::string> xml = pul::SerializePul(*aggregate);
  if (!xml.ok()) return ErrorResponse(xml.status());
  return OkMessage(0, 0, std::move(*xml));
}

Message Server::HandleStat(const Message& request) {
  const uint64_t seq = stat_seq_.fetch_add(1) + 1;
  MetricsSnapshot snapshot;
  if (options_.metrics != nullptr) snapshot = options_.metrics->Snapshot();
  std::string json = BuildStatJson(snapshot, seq, uptime_ms());
  if (request.payload.empty()) {
    return OkMessage(0, kStatVersion, std::move(json));
  }
  if (request.payload.size() != 1) {
    return ErrorResponse(
        Status::InvalidArgument("stat expects [] or [tenant]"));
  }
  Result<Tenant*> tenant = GetTenant(request.payload[0], /*create=*/false);
  if (!tenant.ok()) return ErrorResponse(tenant.status());
  std::lock_guard<std::mutex> lock((*tenant)->mu);
  if (!(*tenant)->store.has_value()) {
    return ErrorResponse(
        Status::NotFound("tenant is not open: " + request.payload[0]));
  }
  return OkMessage((*tenant)->store->head(), kStatVersion, std::move(json));
}

void Server::BatcherLoop() {
  for (;;) {
    std::deque<CommitJob> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return batcher_stop_.load() || !queue_.empty();
      });
      if (queue_.empty()) {
        // batcher_stop_ is only set after every session thread is
        // joined, so an empty queue here means no commit can still be
        // in flight — safe to exit.
        if (batcher_stop_.load()) return;
        continue;
      }
      if (options_.commit_window_ms > 0 && !batcher_stop_.load()) {
        // Hold the batch open briefly so concurrent committers pile in;
        // they enqueue freely because wait_for releases the lock.
        queue_cv_.wait_for(lock, milliseconds(options_.commit_window_ms),
                           [this] { return batcher_stop_.load(); });
      }
      batch.swap(queue_);
      // The swapped jobs stop counting against their tenants' admission
      // quotas: they are the batcher's now, and the point of the quota
      // is bounding what still waits in the queue.
      for (const CommitJob& job : batch) {
        if (job.tenant->pending > 0) --job.tenant->pending;
      }
      if (options_.metrics != nullptr) {
        options_.metrics->SetGauge("server.queue.depth",
                                   static_cast<int64_t>(queue_.size()));
      }
    }
    RunBatch(std::move(batch));
  }
}

void Server::RunBatch(std::deque<CommitJob> batch) {
  if (batch.empty()) return;
  const uint64_t batch_id = next_batch_id_.fetch_add(1);
  if (options_.metrics != nullptr) {
    options_.metrics->AddCounter("server.batch.count");
    options_.metrics->AddCounter("server.batch.jobs", batch.size());
    options_.metrics->SetGauge("server.batch.window.occupancy",
                               static_cast<int64_t>(batch.size()));
  }
  RecordFlight(obs::FlightEventKind::kBatchSeal, {}, 0, batch_id,
               batch.size());
  if (options_.tracer != nullptr) {
    // One seal note per job on its batcher lane. The note carries no
    // batch id: request-to-batch assignment is timing-dependent under
    // pipelining, and the journal must stay deterministic for serial
    // single-connection workloads (where every batch has one job).
    for (const CommitJob& job : batch) {
      obs::TraceLane lane = options_.tracer->Lane(
          static_cast<uint32_t>(job.request_id), 1, "serve");
      lane.Emit(obs::EventKind::kNote, "batch.sealed");
    }
  }
  // Group by tenant, preserving each tenant's arrival order, so one
  // CommitBatch (= at most one fsync) covers all of a tenant's queued
  // commits.
  std::vector<Tenant*> order;
  std::map<Tenant*, std::vector<CommitJob*>> groups;
  for (CommitJob& job : batch) {
    auto [it, inserted] = groups.try_emplace(job.tenant);
    if (inserted) order.push_back(job.tenant);
    it->second.push_back(&job);
  }
  for (Tenant* tenant : order) CommitGroup(tenant, groups[tenant], batch_id);
}

void Server::CommitGroup(Tenant* tenant, const std::vector<CommitJob*>& jobs,
                         uint64_t batch_id) {
  const auto start = Clock::now();
  // One commit-stage lane per job: each (request id, lane 2) pair is
  // touched only by the batcher thread.
  std::vector<obs::TraceLane> lanes;
  if (options_.tracer != nullptr) {
    lanes.reserve(jobs.size());
    for (const CommitJob* job : jobs) {
      lanes.push_back(options_.tracer->Lane(
          static_cast<uint32_t>(job->request_id), 2, "serve"));
      lanes.back().Emit(obs::EventKind::kSpanBegin, "commit.store");
    }
  }
  auto finish_lanes = [&lanes](const std::vector<store::CommitOutcome>& out) {
    for (size_t i = 0; i < lanes.size(); ++i) {
      lanes[i].Emit(
          obs::EventKind::kSpanEnd, "commit.store", {},
          i < out.size() && out[i].status.ok()
              ? "v" + std::to_string(out[i].version)
              : std::string(StatusCodeToString(
                    i < out.size() ? out[i].status.code()
                                   : StatusCode::kInternal)));
    }
  };
  std::lock_guard<std::mutex> lock(tenant->mu);
  if (!tenant->store.has_value()) {
    std::vector<store::CommitOutcome> outcomes(
        jobs.size(),
        store::CommitOutcome{Status::NotFound("tenant is not open"), 0});
    for (size_t i = 0; i < jobs.size(); ++i) {
      CommitResult result;
      result.status = outcomes[i].status;
      result.batch_id = batch_id;
      result.batch_wait_seconds = SecondsBetween(jobs[i]->admit_tp, start);
      jobs[i]->done.set_value(std::move(result));
    }
    finish_lanes(outcomes);
    return;
  }
  std::vector<const pul::Pul*> puls;
  puls.reserve(jobs.size());
  for (CommitJob* job : jobs) puls.push_back(&job->pul);
  std::vector<store::CommitOutcome> outcomes;
  store::BatchCommitStats stats;
  Result<size_t> committed =
      tenant->store->CommitBatch(puls, &outcomes, &stats);
  const double store_seconds = SecondsBetween(start, Clock::now());
  if (!committed.ok() && outcomes.size() != jobs.size()) {
    outcomes.assign(jobs.size(),
                    store::CommitOutcome{committed.status(), 0});
  }
  // Telemetry lands before the promises are fulfilled: once a client
  // holds its ack, the flight window and gauges already reflect that
  // commit (and a quiesced client implies a quiesced recorder).
  if (committed.ok()) {
    RecordFlight(obs::FlightEventKind::kFsyncOk, tenant->name, 0, batch_id,
                 jobs.size());
    RecordFlight(obs::FlightEventKind::kApply, tenant->name, 0, batch_id,
                 *committed);
    // Refresh the WAL-size gauges (tenant->mu is still held, so
    // wal_bytes_last updates are ordered; checkpoints can shrink the
    // journal, hence the signed adjustment of the global total).
    const uint64_t now_bytes = tenant->store->wal_bytes();
    const uint64_t prev_bytes = tenant->wal_bytes_last;
    tenant->wal_bytes_last = now_bytes;
    uint64_t total_bytes;
    if (now_bytes >= prev_bytes) {
      total_bytes = total_wal_bytes_.fetch_add(now_bytes - prev_bytes) +
                    (now_bytes - prev_bytes);
    } else {
      total_bytes = total_wal_bytes_.fetch_sub(prev_bytes - now_bytes) -
                    (prev_bytes - now_bytes);
    }
    if (options_.metrics != nullptr) {
      options_.metrics->SetGauge("server.wal.bytes",
                                 static_cast<int64_t>(total_bytes));
      if (options_.per_tenant_metrics) {
        options_.metrics->SetGauge(tenant->m_wal_bytes,
                                   static_cast<int64_t>(now_bytes));
      }
    }
  } else {
    RecordFlight(obs::FlightEventKind::kFsyncFail, tenant->name, 0, batch_id,
                 jobs.size(), committed.status().message());
    if (committed.status().code() == StatusCode::kIoError) {
      // The store just poisoned its WAL: preserve the event window that
      // led here while it is still fresh.
      RecordFlight(obs::FlightEventKind::kWalPoison, tenant->name, 0,
                   batch_id, 0, committed.status().message());
      (void)DumpFlightRecorder();
    }
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    CommitResult result;
    result.status = outcomes[i].status;
    result.version = outcomes[i].version;
    result.batch_id = batch_id;
    result.batch_wait_seconds = SecondsBetween(jobs[i]->admit_tp, start);
    result.fsync_seconds = stats.fsync_seconds;
    result.apply_seconds = stats.apply_seconds;
    result.store_seconds = store_seconds;
    jobs[i]->done.set_value(std::move(result));
  }
  finish_lanes(outcomes);
}

}  // namespace xupdate::server
