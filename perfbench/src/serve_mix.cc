// serve_mix: an open loop of Poisson arrivals against the real daemon.
//
// Eight tenants (zipf 0.99) take the workload.h default mix — commit
// 0.6 / checkout 0.2 / reduce 0.15 / stat 0.05 — of 8-op PULs on ~16 KB
// XMark documents, over two connections, each with one sender and one
// receiver thread. Tenants are split across the connections so each
// tenant's requests stay FIFO and every version number is known in
// advance. Requests are sent at their precomputed arrival times and
// timed from when they were due.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>

#include "bench.h"
#include "common/crc32c.h"
#include "core/reduce.h"
#include "daemon.h"
#include "pul/apply.h"
#include "pul/pul_io.h"
#include "server/protocol.h"
#include "server/stat.h"
#include "store/version.h"
#include "workload/workload.h"
#include "xml/parser.h"

namespace xupdate::perfbench {

namespace {

namespace fs = std::filesystem;

// Offered load in requests/second: about half the daemon's closed-loop
// capacity (`xupdate loadgen`, 4 pipelined connections, 6000 items)
// measured once on the code this benchmark was written against; see
// perfbench/WORKLOADS.md.
constexpr double kOfferedRate = 550.0;
constexpr double kSmokeRate = 100.0;
constexpr size_t kTenants = 8;
constexpr size_t kConnections = 2;

struct Outcome {
  bool received = false;
  server::MsgType type = server::MsgType::kError;
  uint64_t a = 0;
  uint32_t crc = 0;
  size_t bytes = 0;
  double latency_ms = 0.0;
};

const char* ClassName(workload::ItemType type) {
  switch (type) {
    case workload::ItemType::kCommit:
      return "commit";
    case workload::ItemType::kCheckout:
      return "checkout";
    case workload::ItemType::kReduce:
      return "reduce";
    case workload::ItemType::kStat:
      return "stat";
  }
  return "unknown";
}

server::Message Request(const workload::Workload& w,
                        const workload::WorkloadItem& item) {
  server::Message request;
  switch (item.type) {
    case workload::ItemType::kCommit:
      request.type = server::MsgType::kCommit;
      request.payload = {w.tenants[item.tenant], item.pul_xml};
      break;
    case workload::ItemType::kCheckout:
      request.type = server::MsgType::kCheckout;
      request.a = item.version;
      request.payload = {w.tenants[item.tenant]};
      break;
    case workload::ItemType::kReduce:
      request.type = server::MsgType::kReduce;
      request.payload = {item.pul_xml, "deterministic"};
      break;
    case workload::ItemType::kStat:
      request.type = server::MsgType::kStat;
      break;
  }
  return request;
}

// One connection's share of the stream and its in-flight queue.
struct Connection {
  server::Client client;
  std::vector<size_t> items;  // indexes into Workload::items
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, Clock::time_point>> in_flight;
  bool send_done = false;
  std::string error;
  std::vector<double> late_ms;
};

struct Pass {
  double setup_seconds = 0.0;
  SpeedReference speed;
  std::vector<Outcome> outcomes;
  std::vector<double> late_ms;
  ProcStats before;
  ProcStats after;
  MetricsSnapshot stat_before;
  MetricsSnapshot stat_after;
  uint64_t wal_bytes = 0;   // journal growth during the window
  uint64_t snap_bytes = 0;  // checkpoint growth during the window
  uint64_t disk_bytes = 0;  // all data-dir growth during the window
  std::vector<uint32_t> head_crc;
  std::vector<SlowLine> slow;
  std::string data_dir;
};

uint64_t JournalBytes(const std::string& dir) {
  return DirBytes(dir, "wal") + DirBytes(dir, "branch");
}

// Starts a daemon and opens every tenant over its connection; the timed
// part is the set-up cost a daemon user pays before the first request.
std::unique_ptr<Daemon> SetUp(const RunOptions& options,
                              const std::string& tag, bool traced,
                              const workload::Workload& w,
                              std::vector<std::unique_ptr<Connection>>* conns,
                              double* seconds) {
  std::error_code ec;
  fs::remove_all(tag + "-data", ec);
  Clock::time_point t0 = Clock::now();
  auto daemon = std::make_unique<Daemon>(options, tag, traced);
  conns->clear();
  for (size_t c = 0; c < kConnections; ++c) {
    conns->push_back(std::make_unique<Connection>());
    conns->back()->client = daemon->Connect();
  }
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    uint64_t head = Must((*conns)[t % kConnections]->client.Open(
                             w.tenants[t], w.initial_xml[t]),
                         "setup", "open tenant " + w.tenants[t]);
    if (head != 0) throw BenchError("setup", "tenant store was not fresh");
  }
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return daemon;
}

void RunConnection(const workload::Workload& w, Connection* conn,
                   Clock::time_point start, std::vector<Outcome>* outcomes) {
  std::thread sender([&w, conn, start] {
    for (size_t index : conn->items) {
      const workload::WorkloadItem& item = w.items[index];
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(item.arrival_seconds));
      std::this_thread::sleep_until(due);
      server::Message request = Request(w, item);
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->in_flight.emplace_back(index, due);
        conn->late_ms.push_back(MsBetween(due, Clock::now()));
      }
      conn->cv.notify_all();
      Status sent = conn->client.Send(request);
      if (!sent.ok()) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->error.empty()) conn->error = sent.ToString();
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->send_done = true;
    }
    conn->cv.notify_all();
  });
  for (;;) {
    size_t index = 0;
    Clock::time_point due;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->cv.wait(lock, [conn] {
        return !conn->in_flight.empty() || conn->send_done;
      });
      if (conn->in_flight.empty()) break;
      std::tie(index, due) = conn->in_flight.front();
      conn->in_flight.pop_front();
    }
    Result<server::Message> response = conn->client.Receive();
    const Clock::time_point now = Clock::now();
    if (!response.ok()) {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->error.empty()) conn->error = response.status().ToString();
      break;
    }
    Outcome& out = (*outcomes)[index];
    out.received = true;
    out.type = response->type;
    out.a = response->a;
    if (!response->payload.empty()) {
      out.crc = Crc32c(response->payload[0]);
      out.bytes = response->payload[0].size();
    }
    out.latency_ms = MsBetween(due, now);
  }
  (void)conn->client.ShutdownSocket();
  sender.join();
}

Pass RunPass(const RunOptions& options, const workload::Workload& w,
             bool traced, int setups) {
  Pass pass;
  std::vector<double> setup_seconds;
  std::vector<std::unique_ptr<Connection>> conns;
  std::unique_ptr<Daemon> daemon;
  const std::string tag = traced ? "traced" : "serve";
  pass.speed.Sample(3);
  for (int i = 0; i < setups; ++i) {
    if (daemon) daemon->Stop();
    double seconds = 0.0;
    daemon = SetUp(options, tag, traced, w, &conns, &seconds);
    setup_seconds.push_back(seconds);
  }
  pass.setup_seconds = Median(setup_seconds);
  pass.data_dir = daemon->data_dir();
  for (size_t i = 0; i < w.items.size(); ++i) {
    conns[w.items[i].tenant % kConnections]->items.push_back(i);
  }
  pass.outcomes.resize(w.items.size());
  if (traced) pass.stat_before = daemon->Stat();
  const uint64_t wal0 = JournalBytes(pass.data_dir);
  const uint64_t snap0 = DirBytes(pass.data_dir, "snap");
  const uint64_t disk0 = DirBytes(pass.data_dir);
  pass.before = ReadProcStats(daemon->pid());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> workers;
  for (auto& conn : conns) {
    workers.emplace_back([&w, c = conn.get(), start, &pass] {
      RunConnection(w, c, start, &pass.outcomes);
    });
  }
  for (std::thread& t : workers) t.join();
  pass.after = ReadProcStats(daemon->pid());
  for (auto& conn : conns) {
    if (!conn->error.empty()) {
      throw BenchError("run", "connection failed: " + conn->error);
    }
    pass.late_ms.insert(pass.late_ms.end(), conn->late_ms.begin(),
                        conn->late_ms.end());
  }
  if (traced) pass.stat_after = daemon->Stat();
  pass.wal_bytes = JournalBytes(pass.data_dir) - wal0;
  pass.snap_bytes = DirBytes(pass.data_dir, "snap") - snap0;
  pass.disk_bytes = DirBytes(pass.data_dir) - disk0;
  // Head checkouts for the correctness check, outside the window.
  server::Client client = daemon->Connect();
  for (const std::string& tenant : w.tenants) {
    std::string head = Must(client.Checkout(tenant, 0, /*head=*/true), "run",
                            "head checkout of " + tenant);
    pass.head_crc.push_back(Crc32c(head));
  }
  (void)client.Close();
  daemon->Stop();
  pass.speed.Sample(3);
  if (traced) pass.slow = ReadSlowLog(daemon->slow_log_path());
  return pass;
}

// Bench-side timings of the layers the daemon does not report, taken
// while replaying the stream locally for the correctness check.
struct LocalTimes {
  double commit_parse_ms = 0.0;
  double reduce_parse_ms = 0.0;
  uint64_t parsed_ops = 0;
  double apply_ms = 0.0;
  uint64_t applies = 0;
  double reduce_ms = 0.0;
  double reduce_serialize_ms = 0.0;
  uint64_t reduce_calls = 0;
  uint64_t reduce_shards = 0;
  uint64_t reduce_rule_apps = 0;
  uint64_t reduce_input_ops = 0;
  double checkout_serialize_ms = 0.0;  // summed over checkout requests
  double checkout_parse_ms = 0.0;      // summed over checkout requests
  uint64_t checkout_bytes = 0;         // summed over checkout requests
  uint64_t checkouts = 0;
  double codec_ms = 0.0;
  double encode_us_sum = 0.0;
  double decode_us_sum = 0.0;
  uint64_t messages = 0;
};

// Encodes and decodes one message, adding its cost to `times`.
void TimeMessage(const server::Message& message, bool request,
                 LocalTimes* times) {
  const CodecCost cost = TimeCodec(message, request);
  times->codec_ms += cost.encode_ms + cost.decode_ms;
  times->encode_us_sum += 1000.0 * cost.encode_ms;
  times->decode_us_sum += 1000.0 * cost.decode_ms;
  ++times->messages;
}

// The correctness check: every commit's version, every checkout's
// bytes, every reduce response's bytes and every tenant's head against
// a local one-shot replay (the pipeline `xupdate loadgen --verify`
// uses). Tenants with a shed or failed commit are checked only up to
// it — after it their version numbering legitimately diverges.
void Verify(const workload::Workload& w, const Pass& pass, bool traced,
            RunResult* result, LocalTimes* times) {
  const size_t tenants = w.tenants.size();
  std::vector<uint64_t> first_failed(tenants, UINT64_MAX);
  std::vector<std::vector<uint64_t>> wanted(tenants);
  for (size_t i = 0; i < w.items.size(); ++i) {
    const workload::WorkloadItem& item = w.items[i];
    const Outcome& out = pass.outcomes[i];
    if (item.type == workload::ItemType::kCommit &&
        out.type != server::MsgType::kOk) {
      first_failed[item.tenant] = std::min(first_failed[item.tenant], i);
    }
    if (item.type == workload::ItemType::kCheckout) {
      wanted[item.tenant].push_back(item.version);
    }
  }
  // Per tenant: version -> crc of the annotated bytes (only versions a
  // checkout asked for, plus the head), with the local parse/serialize
  // cost of each such version.
  struct VersionInfo {
    uint32_t crc = 0;
    size_t bytes = 0;
    double serialize_ms = 0.0;
    double parse_ms = 0.0;
    std::string text;  // kept only when traced (codec timing)
  };
  std::vector<std::map<uint64_t, VersionInfo>> chain(tenants);
  std::vector<xml::Document> docs;
  std::vector<uint64_t> version(tenants, 0);
  auto record = [&](size_t t, bool force) {
    const uint64_t v = version[t];
    if (!force && !std::binary_search(wanted[t].begin(), wanted[t].end(), v)) {
      return;
    }
    VersionInfo info;
    std::string text;
    info.serialize_ms = TimeMs([&] {
      text = Must(store::VersionStore::SerializeAnnotated(docs[t]), "verify",
                  "serialize replayed document");
    });
    if (traced) {
      info.parse_ms = TimeMs([&] {
        Must(xml::ParseDocument(text), "verify", "parse checkout bytes");
      });
    }
    info.crc = Crc32c(text);
    info.bytes = text.size();
    if (traced) info.text = std::move(text);
    chain[t][v] = std::move(info);
  };
  for (size_t t = 0; t < tenants; ++t) {
    std::sort(wanted[t].begin(), wanted[t].end());
    docs.push_back(Must(xml::ParseDocument(w.initial_xml[t]), "verify",
                        "parse initial document"));
    record(t, false);
  }
  // Replay the commits in stream order; each tenant's chain is FIFO.
  for (size_t i = 0; i < w.items.size(); ++i) {
    const workload::WorkloadItem& item = w.items[i];
    if (item.type != workload::ItemType::kCommit) continue;
    if (i >= first_failed[item.tenant]) continue;
    pul::Pul pul;
    times->commit_parse_ms += TimeMs([&] {
      pul = Must(pul::ParsePul(item.pul_xml), "verify", "parse commit PUL");
    });
    times->parsed_ops += pul.size();
    times->apply_ms += TimeMs([&] {
      MustOk(pul::ApplyPul(&docs[item.tenant], pul), "verify",
             "replay commit");
    });
    ++times->applies;
    ++version[item.tenant];
    record(item.tenant, false);
  }
  for (size_t t = 0; t < tenants; ++t) {
    if (first_failed[t] != UINT64_MAX) continue;
    record(t, true);
    result->Check(pass.head_crc[t] == chain[t][version[t]].crc,
                  "head of tenant " + w.tenants[t]);
  }
  for (size_t i = 0; i < w.items.size(); ++i) {
    const workload::WorkloadItem& item = w.items[i];
    const Outcome& out = pass.outcomes[i];
    const std::string where = std::string(ClassName(item.type)) + " item #" +
                              std::to_string(item.id);
    const bool after_failure = i > first_failed[item.tenant];
    server::Message response;
    response.type = server::MsgType::kOk;
    switch (item.type) {
      case workload::ItemType::kCommit:
        response.a = item.expected_version;
        if (out.type == server::MsgType::kOk && !after_failure) {
          result->Check(out.a == item.expected_version, where + " version");
        }
        break;
      case workload::ItemType::kCheckout: {
        if (out.type == server::MsgType::kOk && !after_failure) {
          auto expected = chain[item.tenant].find(item.version);
          result->Check(expected != chain[item.tenant].end() &&
                            out.crc == expected->second.crc &&
                            out.bytes == expected->second.bytes,
                        where + " bytes of version " +
                            std::to_string(item.version));
        }
        response.a = item.version;
        auto found = chain[item.tenant].find(item.version);
        if (found == chain[item.tenant].end()) break;  // past a failure
        const VersionInfo& info = found->second;
        times->checkout_serialize_ms += info.serialize_ms;
        times->checkout_parse_ms += info.parse_ms;
        times->checkout_bytes += info.bytes;
        ++times->checkouts;
        if (traced) response.payload = {info.text};
        break;
      }
      case workload::ItemType::kReduce: {
        pul::Pul pul;
        times->reduce_parse_ms += TimeMs([&] {
          pul = Must(pul::ParsePul(item.pul_xml), "verify", "parse reduce PUL");
        });
        times->parsed_ops += pul.size();
        core::ReduceOptions reduce_options;
        reduce_options.mode = core::ReduceMode::kDeterministic;
        core::ReduceStats stats;
        pul::Pul reduced;
        times->reduce_ms += TimeMs([&] {
          reduced = Must(core::Reduce(pul, reduce_options, &stats), "verify",
                         "local reduce");
        });
        std::string text;
        times->reduce_serialize_ms += TimeMs([&] {
          text = Must(pul::SerializePul(reduced), "verify", "serialize PUL");
        });
        ++times->reduce_calls;
        times->reduce_shards += stats.shards;
        times->reduce_rule_apps += stats.rule_applications;
        times->reduce_input_ops += stats.input_ops;
        if (out.type == server::MsgType::kOk) {
          result->Check(out.crc == Crc32c(text) && out.bytes == text.size(),
                        where + " reduced bytes");
        }
        response.payload = {std::move(text)};
        break;
      }
      case workload::ItemType::kStat:
        response.b = server::kStatVersion;
        response.payload = {"{}"};
        break;
    }
    if (out.type != server::MsgType::kOk &&
        out.type != server::MsgType::kBusy &&
        out.type != server::MsgType::kError) {
      result->Check(false, where + " got an unexpected response type");
    }
    if (traced) {
      TimeMessage(Request(w, item), /*request=*/true, times);
      TimeMessage(response, /*request=*/false, times);
    }
  }
}

// Mean snapshot-read time per checkout request, reading the checkpoint
// each checkout replays from through the store's public snapshot API.
double SnapshotReadMs(const workload::Workload& w, const Pass& pass) {
  std::vector<std::optional<store::VersionStore>> stores(w.tenants.size());
  double total = 0.0;
  uint64_t reads = 0;
  for (size_t i = 0; i < w.items.size(); ++i) {
    const workload::WorkloadItem& item = w.items[i];
    if (item.type != workload::ItemType::kCheckout) continue;
    auto& slot = stores[item.tenant];
    if (!slot) {
      slot.emplace(Must(store::VersionStore::Open(
                            pass.data_dir + "/" + w.tenants[item.tenant]),
                        "verify", "reopen tenant store"));
    }
    uint64_t base = 0;
    if (!slot->snapshots().NearestAtOrBelow(item.version, &base)) continue;
    total += TimeMs([&] {
      Must(slot->snapshots().Read(base), "verify", "read checkpoint");
    });
    ++reads;
  }
  return reads == 0 ? 0.0 : total / static_cast<double>(reads);
}

// Counts, failures and latency samples of one pass.
Samples Collect(const workload::Workload& w, const Pass& pass,
                uint64_t* failed) {
  Samples samples;
  *failed = 0;
  for (size_t i = 0; i < w.items.size(); ++i) {
    const Outcome& out = pass.outcomes[i];
    const bool ok = out.received && out.type == server::MsgType::kOk;
    if (!ok) ++*failed;
    samples.Add(ClassName(w.items[i].type),
                ok ? out.latency_ms : std::numeric_limits<double>::infinity());
  }
  return samples;
}

LayerTable BuildTable(const workload::Workload& w, const Pass& pass,
                      const Samples& samples, const LocalTimes& times,
                      double snapshot_read_ms, uint64_t user_bytes) {
  const double n = static_cast<double>(w.items.size());
  LayerTable table;
  table.total_ms = samples.total_finite_ms() / n;
  auto& v = table.values;
  // Commit path, from the daemon's slow-request log (threshold 0).
  double admission = 0.0, batch_wait = 0.0, fsync = 0.0, apply = 0.0;
  double validate_append = 0.0;
  std::map<std::pair<uint64_t, std::string>, double> group_va;
  for (const SlowLine& line : pass.slow) {
    if (line.type != "commit") continue;
    admission += line.admission_ms;
    batch_wait += line.batch_wait_ms;
    fsync += line.fsync_ms;
    apply += line.apply_ms;
    const double va =
        std::max(0.0, line.store_ms - line.fsync_ms - line.apply_ms);
    validate_append += va;
    group_va[{line.batch, line.tenant}] = va;
  }
  // Split validate+append with the daemon's own WAL append timer: the
  // share of the groups' non-fsync, non-apply store time spent appending.
  double groups_va = 0.0;
  for (const auto& [key, va] : group_va) groups_va += va;
  const double append_s = SecondsDelta(pass.stat_before, pass.stat_after,
                                      "store.wal.append.seconds");
  const double append_share =
      groups_va > 0 ? std::min(1.0, 1000.0 * append_s / groups_va) : 0.0;
  v["server.admit_wait_ms"] = admission / n;
  v["server.batch_wait_ms"] = batch_wait / n;
  v["store.validate_ms"] = validate_append * (1.0 - append_share) / n;
  v["store.append_ms"] = validate_append * append_share / n;
  v["store.fsync_ms"] = fsync / n;
  v["store.apply_ms"] = apply / n;
  // Checkout path: the daemon's Checkout() time, plus the serialization
  // of the same versions timed locally.
  v["store.checkout_ms"] = 1000.0 *
                           SecondsDelta(pass.stat_before, pass.stat_after,
                                        "store.checkout.seconds") /
                           n;
  v["xml.serialize_ms"] = times.checkout_serialize_ms / n;
  // Stateless reduce path and the wire codec, timed locally on the same
  // payloads.
  v["pul.parse_ms"] = times.reduce_parse_ms / n;
  v["core.reduce_ms"] = times.reduce_ms / n;
  v["pul.serialize_ms"] = times.reduce_serialize_ms / n;
  v["server.codec_ms"] = times.codec_ms / n;
  // Auxiliary rows.
  v["server.encode_us"] = Ratio(times.encode_us_sum, times.messages);
  v["server.decode_us"] = Ratio(times.decode_us_sum, times.messages);
  const auto& b = pass.stat_before;
  const auto& a = pass.stat_after;
  auto count = [&](const char* name) {
    return static_cast<double>(CounterDelta(b, a, name));
  };
  const double fsyncs = count("store.wal.fsync.count");
  v["server.commits_per_batch"] = Ratio(count("store.commit_batch.committed"),
                                        count("store.commit_batch.count"));
  v["server.commits_per_fsync"] = Ratio(count("store.commit.count"), fsyncs);
  v["server.busy_count"] = count("server.busy.count");
  v["store.fsync_count"] = fsyncs;
  v["store.snapshot_write_ms"] =
      Ratio(1000.0 * SecondsDelta(b, a, "store.snapshot.write.seconds"),
            count("store.snapshot.write.count"));
  v["store.snapshot_read_ms"] = snapshot_read_ms;
  v["store.replayed_frames_per_checkout"] = Ratio(
      count("store.checkout.replayed_frames"), count("store.checkout.count"));
  v["store.wal_bytes_per_user_byte"] = Ratio(pass.wal_bytes, user_bytes);
  v["store.snapshot_bytes_per_user_byte"] = Ratio(pass.snap_bytes, user_bytes);
  v["xml.parse_ms"] = Ratio(times.checkout_parse_ms, times.checkouts);
  v["xml.parse_mb_per_s"] = Ratio(times.checkout_bytes / double{1 << 20},
                                  times.checkout_parse_ms / 1000.0);
  v["pul.parse_ops_per_s"] =
      Ratio(times.parsed_ops,
            (times.commit_parse_ms + times.reduce_parse_ms) / 1000.0);
  v["pul.apply_ms"] = Ratio(times.apply_ms, times.applies);
  v["core.reduce_shards"] = Ratio(times.reduce_shards, times.reduce_calls);
  v["core.reduce_rule_apps_per_op"] =
      Ratio(times.reduce_rule_apps, times.reduce_input_ops);
  v["gen_late_p99_ms"] = Quantile(pass.late_ms, 0.99);
  return table;
}

uint64_t CommittedUserBytes(const workload::Workload& w, const Pass& pass) {
  uint64_t bytes = 0;
  for (size_t i = 0; i < w.items.size(); ++i) {
    if (w.items[i].type == workload::ItemType::kCommit &&
        pass.outcomes[i].type == server::MsgType::kOk) {
      bytes += w.items[i].pul_xml.size();
    }
  }
  return bytes;
}

}  // namespace

RunResult RunServeMix(const RunOptions& options) {
  const double rate = options.smoke ? kSmokeRate : kOfferedRate;
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  workload::WorkloadOptions wopts;
  wopts.num_tenants = kTenants;
  wopts.num_items =
      std::max<size_t>(1, static_cast<size_t>(std::llround(rate * window)));
  wopts.ops_per_pul = 8;
  wopts.doc_bytes = 1 << 14;
  wopts.zipf_theta = 0.99;
  wopts.arrival_rate = rate;
  wopts.seed = options.seed;
  Result<workload::Workload> generated = workload::GenerateWorkload(wopts);
  if (!generated.ok()) {
    throw BenchError("setup",
                     "workload::GenerateWorkload failed for seed " +
                         std::to_string(options.seed) + " (" +
                         std::to_string(wopts.num_items) +
                         " items): " + generated.status().ToString());
  }
  const workload::Workload& w = *generated;

  RunResult result;
  result.attempted = w.items.size();
  result.Line("serve_mix: " + std::to_string(w.items.size()) +
              " requests, open loop at " + std::to_string(rate) +
              " req/s over " + std::to_string(kConnections) +
              " connections, " + std::to_string(kTenants) +
              " tenants, fsync=always, commit window 0");
  Pass plain = RunPass(options, w, /*traced=*/false,
                       options.trace ? 1 : kSetupRepeats);
  uint64_t failed = 0;
  Samples samples = Collect(w, plain, &failed);
  LocalTimes plain_times;
  Verify(w, plain, /*traced=*/false, &result, &plain_times);
  const uint64_t user_bytes = CommittedUserBytes(w, plain);
  const double n = static_cast<double>(w.items.size());
  result.failed = failed;
  ReportClasses(samples, &result);
  result.Line("  failed_share " + std::to_string(failed / n) +
              "  gen_late_p99_ms " +
              std::to_string(Quantile(plain.late_ms, 0.99)));
  result.Line("  daemon peak_rss_mb " +
              std::to_string(plain.after.peak_rss_mb));
  result.Line("  disk_bytes_per_user_byte " +
              std::to_string(Ratio(plain.disk_bytes, user_bytes)));
  if (!options.trace) {
    const double cpu_s = plain.after.cpu_seconds - plain.before.cpu_seconds;
    EmitEndToEnd(plain.speed, plain.setup_seconds, samples,
                 1000.0 * cpu_s / n, &result);
    return result;
  }
  // Traced pass: same stream, fresh daemon with the slow-request log on.
  Pass traced = RunPass(options, w, /*traced=*/true, 1);
  uint64_t traced_failed = 0;
  Samples traced_samples = Collect(w, traced, &traced_failed);
  result.failed += traced_failed;
  result.attempted += w.items.size();
  LocalTimes times;
  Verify(w, traced, /*traced=*/true, &result, &times);
  const double snapshot_read_ms = SnapshotReadMs(w, traced);
  LayerTable table =
      BuildTable(w, traced, traced_samples, times, snapshot_read_ms,
                 CommittedUserBytes(w, traced));
  EmitLayerTable(table,
                 AtSpeedOf(samples.total_finite_ms() / n, plain.speed,
                           traced.speed),
                 /*serve_rows=*/true, &result);
  return result;
}

}  // namespace xupdate::perfbench
