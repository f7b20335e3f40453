#ifndef XUPDATE_PERFBENCH_DAEMON_H_
#define XUPDATE_PERFBENCH_DAEMON_H_

// A real `xupdate serve` process for the daemon workloads: started from
// the benchmark's working directory with relative socket and data
// paths (so a long checkout path never overflows sun_path), stopped and
// reaped on every exit path.

#include <sys/types.h>

#include <string>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "server/client.h"

namespace xupdate::perfbench {

class Daemon {
 public:
  // Starts `xupdate serve` with the store defaults (fsync=always,
  // commit window 0) under the name `tag` (socket <tag>.sock, data dir
  // <tag>-data, log <tag>.log). `slow_log` turns on the slow-request
  // log at threshold 0, unthrottled, into <tag>-slow.jsonl. Returns once
  // the socket accepts connections.
  Daemon(const RunOptions& options, const std::string& tag, bool slow_log);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  server::Client Connect() const;

  // The daemon's metrics registry (kStat), flattened.
  MetricsSnapshot Stat() const;

  // Asks the daemon to shut down and reaps it; kills it if it does not
  // exit in time. Idempotent.
  void Stop();

  pid_t pid() const { return pid_; }
  const std::string& data_dir() const { return data_dir_; }
  const std::string& slow_log_path() const { return slow_log_; }

 private:
  std::string socket_;
  std::string data_dir_;
  std::string slow_log_;
  pid_t pid_ = -1;
};

// One parsed slow-request log line (server/server.cc MaybeLogSlowRequest).
struct SlowLine {
  std::string type;
  std::string tenant;
  uint64_t batch = 0;
  double admission_ms = 0.0;
  double batch_wait_ms = 0.0;
  double fsync_ms = 0.0;
  double apply_ms = 0.0;
  double store_ms = 0.0;
};

std::vector<SlowLine> ReadSlowLog(const std::string& path);

// One EncodeMessage + DecodeMessage round of `message`, timed.
struct CodecCost {
  double encode_ms = 0.0;
  double decode_ms = 0.0;
};
CodecCost TimeCodec(const server::Message& message, bool request);

}  // namespace xupdate::perfbench

#endif  // XUPDATE_PERFBENCH_DAEMON_H_
