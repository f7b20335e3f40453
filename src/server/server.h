#ifndef XUPDATE_SERVER_SERVER_H_
#define XUPDATE_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/socket.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "pul/pul.h"
#include "server/protocol.h"
#include "store/version.h"

namespace xupdate::server {

// The PUL reasoning daemon: a multi-tenant server that keeps parsed
// documents, their label state and open VersionStores resident across
// requests, so clients pay parse/index cost once instead of per CLI
// invocation. Requests arrive over a Unix-domain socket as framed
// messages (server/protocol.h).
//
// Threads:
//   accept   polls the listener, spawns one session thread per
//            connection;
//   session  a read loop plus a writer thread per connection. The read
//            loop admits commits to the batcher immediately (so a
//            pipelining client's commits land in the same batch window)
//            and defers everything else as a thunk; the writer drains
//            thunks strictly FIFO, blocking on each commit's outcome
//            before evaluating later requests. Responses therefore
//            arrive in request order and every read-only request
//            observes all commits that preceded it on its connection.
//            (Corollary: pipeline commits only after the tenant's kOpen
//            acknowledged — commit admission happens at read time.)
//            The read loop receives every frame into one reused buffer
//            and moves each decoded request into its thunk; the writer
//            sends each response from its parts (SendMessage), so the
//            payload strings are never joined into a frame.
//   pool     reduce and integrate at parallelism > 1 run on one
//            server-owned ThreadPool of max_parallelism - 1 workers,
//            created on the first such request; the writer thread that
//            evaluates the request runs work units too.
//   batcher  the group-commit engine. Session threads enqueue commit
//            jobs (bounded queue; a full queue is refused and the
//            client told kBusy — explicit load shedding, never an
//            unbounded backlog). The batcher drains the whole queue,
//            optionally after a short commit window that lets
//            concurrent committers pile in, groups the jobs by tenant
//            in arrival order, and feeds each group to
//            VersionStore::CommitBatch — which appends every frame and
//            then applies the fsync policy ONCE. Under fsync=always N
//            concurrent commits therefore cost one fdatasync instead of
//            N; `store.wal.fsync.count` against
//            `store.commit.count` makes the coalescing observable.
//
// Consistency: each tenant has one mutex serializing every touch of
// its store (the batcher's CommitBatch and the sessions' checkouts),
// so a checkout sees either all of a batch or none of it.
//
// Telemetry (see DESIGN.md "Serving-layer observability"): every
// admitted request gets a stable id; commits carry it through the
// batcher so the per-phase decomposition (admission wait, batch wait,
// fsync, apply, respond) lands in the slow-request log, in per-tenant
// "tenant/<t>/..." metrics, and — when a tracer is attached — as
// per-request spans keyed (phase = request id, lane = pipeline stage),
// which keeps the JSONL journal deterministic for serial
// single-connection workloads. A fixed-size flight recorder retains the
// recent event window regardless of tracing, dumped on SIGUSR1 (via
// DumpFlightRecorder), on WAL poisoning and at shutdown.

struct ServerOptions {
  std::string socket_path;
  // Tenant stores live at <data_dir>/<tenant>/.
  std::string data_dir;
  // Template for every tenant store (fsync policy, checkpoint cadence,
  // fault injection...). Its metrics pointer is overwritten with
  // `metrics` below so server and store counters land in one registry.
  store::StoreOptions store;
  // Commit admission bound: jobs queued but not yet batched. At the
  // bound, further commits get kBusy.
  size_t max_pending = 128;
  // Per-tenant admission quota: one tenant's jobs queued but not yet
  // batched. 0 disables the quota (only max_pending applies). With a
  // quota, a hot tenant that fills its share gets kBusy
  // (`server.busy.tenant_quota`) while other tenants keep committing —
  // one producer can no longer monopolize the admission queue.
  size_t max_pending_per_tenant = 0;
  // How long the batcher waits after the first queued commit before
  // draining, letting concurrent committers coalesce. 0 = drain
  // immediately (still coalesces whatever queued while the previous
  // batch was fsyncing).
  int commit_window_ms = 0;
  // Largest request/response body accepted on the wire.
  uint64_t max_message_bytes = kDefaultMaxMessageBytes;
  // Reasoning parallelism cap for reduce/integrate requests.
  int max_parallelism = 8;
  Metrics* metrics = nullptr;
  // Per-request span tracing into the (phase = request id, lane =
  // pipeline stage) discipline. Not owned; null = off (one branch per
  // emission site — the disabled-telemetry overhead gate pins this).
  obs::Tracer* tracer = nullptr;
  // Slow-request log: requests slower than this (milliseconds, end to
  // end) emit one JSONL line naming tenant, type, batch id and the
  // phase breakdown. < 0 disables. Independent of `tracer`.
  int slow_request_ms = -1;
  // Where slow-request lines go; empty = stderr.
  std::string slow_request_log_path;
  // Token-bucket cap on slow-request lines (burst = 2s worth); beyond
  // it lines are dropped and counted under `server.slowlog.dropped`.
  int slow_request_log_max_per_sec = 20;
  // Flight-recorder window (recent server events). 0 disables.
  size_t flight_recorder_capacity = 1024;
  // Where flight-recorder dumps land; empty = <data_dir>/flight.jsonl.
  std::string flight_dump_path;
  // Per-tenant "tenant/<t>/..." counters/timers. Off caps metric
  // cardinality for deployments with very many tenants.
  bool per_tenant_metrics = true;
};

class Server {
 public:
  // Binds the socket and starts the accept and batcher threads.
  static Result<std::unique_ptr<Server>> Start(const ServerOptions& options);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Blocks until a kShutdown request arrives (or RequestStop is
  // called), polling `external_stop` if given — the CLI points it at
  // its signal flag. Returns without stopping; call Stop() after.
  void Wait(const std::atomic<bool>* external_stop = nullptr);

  // Asks the server to stop; safe from any thread, returns immediately.
  void RequestStop();

  // True once a kShutdown request arrived or a stop began — the CLI's
  // housekeeping loop polls this instead of blocking in Wait() so it
  // can also service SIGUSR1 dumps and periodic metrics exposition.
  bool stop_requested() const {
    return stop_requested_.load() || stop_.load();
  }

  // Stops accepting, disconnects every session, drains the batcher and
  // joins all threads. Idempotent. Must not be called from a session
  // thread (it joins them); kShutdown requests call RequestStop and the
  // owner calls Stop after Wait returns.
  Status Stop();

  // Writes the flight-recorder window to the configured dump path
  // (atomic replace). No-op when the recorder is disabled. Safe from
  // any thread — the CLI calls it on SIGUSR1; the server calls it on
  // WAL poisoning and at shutdown.
  Status DumpFlightRecorder();

  // The recorder itself (null when disabled) — tests inspect it.
  const obs::FlightRecorder* flight_recorder() const {
    return flight_.get();
  }

  // Milliseconds since Start() — the stat payload's uptime ticks.
  uint64_t uptime_ms() const;

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  struct Tenant {
    std::mutex mu;
    std::string name;
    std::optional<store::VersionStore> store;  // open after kOpen
    // Journal bytes at the last gauge update; guarded by mu.
    uint64_t wal_bytes_last = 0;
    // Jobs admitted but not yet swapped into a batch; guarded by
    // queue_mu_ (NOT mu — it is part of the admission queue's state).
    size_t pending = 0;
    // Pre-built "tenant/<name>/..." metric names (const after GetTenant
    // creates the slot) so the per-commit hot path never concatenates.
    std::string m_commit_seconds;
    std::string m_commit_count;
    std::string m_commit_errors;
    std::string m_checkout_seconds;
    std::string m_shed_count;
    std::string m_requests;
    std::string m_wal_bytes;
  };

  // What the batcher hands back through a commit job's promise: the
  // outcome plus the phase decomposition the telemetry consumes.
  struct CommitResult {
    Status status;
    uint64_t version = 0;
    uint64_t batch_id = 0;
    double batch_wait_seconds = 0.0;  // admission -> group commit start
    double fsync_seconds = 0.0;       // the group's single WAL sync
    double apply_seconds = 0.0;       // install + checkpoint
    double store_seconds = 0.0;       // whole CommitBatch for the group
  };

  struct CommitJob {
    Tenant* tenant = nullptr;
    uint64_t request_id = 0;
    std::chrono::steady_clock::time_point admit_tp;
    pul::Pul pul;
    std::promise<CommitResult> done;
  };

  struct Session {
    UnixSocket sock;
    std::thread worker;
    std::atomic<bool> finished{false};
  };

  explicit Server(const ServerOptions& options);

  void AcceptLoop();
  void ReapFinishedSessions();
  void SessionLoop(Session* session);
  void BatcherLoop();
  void RunBatch(std::deque<CommitJob> batch);
  // Commits one tenant's jobs of the current batch (one CommitBatch,
  // at most one fsync). Caller holds no locks; takes the tenant's mutex.
  void CommitGroup(Tenant* tenant, const std::vector<CommitJob*>& jobs,
                   uint64_t batch_id);

  // A response not yet produced: evaluated on the session's writer
  // thread, in request order. Commit thunks block on the batcher's
  // outcome; everything else evaluates lazily.
  using ResponseThunk = std::function<Message()>;

  // Request dispatch. Handle() runs on the read loop: commits are
  // admitted to the batcher right away and return a thunk waiting on
  // the outcome; other requests return a thunk that evaluates
  // HandleSync later.
  ResponseThunk Handle(Message request);
  Message HandleSync(const Message& request);
  ResponseThunk HandleCommitDeferred(const Message& request);
  Message HandleOpen(const Message& request);
  Message HandleCheckout(const Message& request);
  Message HandleReduce(const Message& request);
  Message HandleIntegrate(const Message& request);
  Message HandleAggregate(const Message& request);
  Message HandleStat(const Message& request);

  // Looks up (creating the slot if `create`) the tenant entry.
  Result<Tenant*> GetTenant(const std::string& name, bool create);

  int ClampParallelism(uint64_t requested) const;
  // The pool reduce and integrate run on at `parallelism` > 1, created
  // on the first such request; null at parallelism 1.
  ThreadPool* ReasoningPool(int parallelism);

  // Null-safe flight-recorder append.
  void RecordFlight(obs::FlightEventKind kind, std::string_view tenant,
                    uint64_t request = 0, uint64_t batch = 0,
                    uint64_t value = 0, std::string_view detail = {});

  // Emits one slow-request JSONL line if the request crossed the
  // threshold and the token bucket admits it.
  void MaybeLogSlowRequest(std::string_view type, const std::string& tenant,
                           uint64_t request_id, const CommitResult& result,
                           double admission_seconds, double total_seconds);

  ServerOptions options_;
  UnixListener listener_;

  std::atomic<bool> stop_{false};            // accept/session threads
  std::atomic<bool> stop_requested_{false};  // kShutdown arrived
  // Set strictly after the session threads are joined, so the batcher
  // never exits while a commit could still be enqueued.
  std::atomic<bool> batcher_stop_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::mutex stop_call_mu_;  // serializes Stop()
  bool stopped_ = false;     // Stop() ran to completion

  std::thread accept_thread_;
  std::thread batcher_thread_;

  std::mutex sessions_mu_;
  std::list<Session> sessions_;

  std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  // Open stores (gauge `server.tenants.resident`).
  std::atomic<uint64_t> resident_tenants_{0};
  // Journal bytes across every open store (gauge `server.wal.bytes`).
  std::atomic<uint64_t> total_wal_bytes_{0};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<CommitJob> queue_;

  std::chrono::steady_clock::time_point started_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> next_batch_id_{1};
  std::atomic<uint64_t> stat_seq_{0};

  std::unique_ptr<obs::FlightRecorder> flight_;

  // Shared by every session's parallel reduce and integrate requests
  // (ReasoningPool); reset by Stop() once the sessions are joined.
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;

  // Slow-request log sink + token bucket; all guarded by slow_mu_.
  std::mutex slow_mu_;
  std::ofstream slow_log_stream_;
  bool slow_log_to_file_ = false;
  double slow_tokens_ = 0.0;
  std::chrono::steady_clock::time_point slow_refill_;
};

}  // namespace xupdate::server

#endif  // XUPDATE_SERVER_SERVER_H_
