#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <thread>

#include "server/protocol.h"
#include "server/stat.h"

extern char** environ;

namespace xupdate::perfbench {

namespace {

constexpr auto kStartTimeout = std::chrono::seconds(15);
constexpr auto kStopTimeout = std::chrono::seconds(10);

}  // namespace

Daemon::Daemon(const RunOptions& options, const std::string& tag,
               bool slow_log)
    : socket_(tag + ".sock"), data_dir_(tag + "-data") {
  std::vector<std::string> args = {options.xupdate,
                                   "serve",
                                   "--socket",
                                   socket_,
                                   "--data-dir",
                                   data_dir_,
                                   "--fsync",
                                   "always",
                                   "--commit-window-ms",
                                   "0",
                                   "--max-parallelism",
                                   "2"};
  if (slow_log) {
    slow_log_ = tag + "-slow.jsonl";
    for (const char* arg : {"--slow-request-ms", "0", "--slow-request-log-rate",
                            "0", "--slow-request-log"}) {
      args.push_back(arg);
    }
    args.push_back(slow_log_);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const std::string log = tag + ".log";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  posix_spawn_file_actions_addclose(&actions, STDIN_FILENO);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw BenchError("setup", "cannot start " + options.xupdate + " serve: " +
                                  std::to_string(rc));
  }
  pid_ = pid;
  const auto deadline = Clock::now() + kStartTimeout;
  for (;;) {
    if (server::Client::Connect(socket_).ok()) return;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw BenchError("setup", "daemon exited during start; see " + log);
    }
    if (Clock::now() > deadline) {
      Stop();
      throw BenchError("setup", "daemon socket never came up; see " + log);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Daemon::~Daemon() { Stop(); }

server::Client Daemon::Connect() const {
  return Must(server::Client::Connect(socket_), "run", "connect to daemon");
}

MetricsSnapshot Daemon::Stat() const {
  server::Client client = Connect();
  std::string json = Must(client.Stat(), "run", "stat");
  server::StatSnapshot stat =
      Must(server::ParseStatJson(json), "run", "parse stat");
  return server::FlattenStatSnapshot(stat);
}

void Daemon::Stop() {
  if (pid_ < 0) return;
  Result<server::Client> client = server::Client::Connect(socket_);
  if (client.ok()) (void)client->Shutdown();
  const auto deadline = Clock::now() + kStopTimeout;
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

namespace {

double NumberField(const std::string& line, const std::string& key) {
  size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + key.size() + 3, nullptr);
}

std::string StringField(const std::string& line, const std::string& key) {
  size_t at = line.find("\"" + key + "\":\"");
  if (at == std::string::npos) return "";
  size_t begin = at + key.size() + 4;
  size_t end = line.find('"', begin);
  return line.substr(begin, end - begin);
}

}  // namespace

std::vector<SlowLine> ReadSlowLog(const std::string& path) {
  std::vector<SlowLine> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    SlowLine s;
    s.type = StringField(line, "type");
    s.tenant = StringField(line, "tenant");
    s.batch = static_cast<uint64_t>(NumberField(line, "batch"));
    s.admission_ms = NumberField(line, "admission_ms");
    s.batch_wait_ms = NumberField(line, "batch_wait_ms");
    s.fsync_ms = NumberField(line, "fsync_ms");
    s.apply_ms = NumberField(line, "apply_ms");
    s.store_ms = NumberField(line, "store_ms");
    lines.push_back(std::move(s));
  }
  return lines;
}

CodecCost TimeCodec(const server::Message& message, bool request) {
  CodecCost cost;
  std::string body;
  cost.encode_ms = TimeMs([&] { body = server::EncodeMessage(message); });
  cost.decode_ms = TimeMs([&] {
    Must(server::DecodeMessage(body, request), "verify", "decode message");
  });
  return cost;
}

}  // namespace xupdate::perfbench
