// reason_bulk: a closed loop of large stateless reasoning requests on
// one daemon connection. Each cycle sends
//
//   Reduce    a 10k-op PUL, ~1 rule application per 10 ops (fig6b),
//             at parallelism 1
//   Integrate 10 x 1k-op PULs with injected conflicts (fig6e)
//   Reduce    the same PUL at parallelism 2
//   Aggregate a 10-PUL x 500-op sequence (fig6c)
//
// and never touches a tenant store. (At the paper's 25k-op reduce and
// 10 x 4k-op integrate the daemon peaks above 1 GB and runs of one seed
// spread by 15-20%; these sizes keep the spread under a third of the
// bound. See perfbench/WORKLOADS.md.)

#include <algorithm>
#include <memory>

#include "bench.h"
#include "common/crc32c.h"
#include "core/aggregate.h"
#include "core/integrate.h"
#include "core/reduce.h"
#include "daemon.h"
#include "label/labeling.h"
#include "pul/pul_io.h"
#include "server/protocol.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::perfbench {

namespace {

struct Sizes {
  size_t doc_bytes;
  size_t reduce_ops;
  size_t integrate_puls;
  size_t integrate_ops;
  size_t aggregate_puls;
  size_t aggregate_ops;
};

constexpr Sizes kFullSizes = {2 << 20, 10000, 10, 1000, 10, 500};
constexpr Sizes kSmokeSizes = {256 << 10, 500, 10, 100, 10, 50};

// The request classes in cycle order.
enum Class { kReduce = 0, kIntegrate = 1, kReducePar2 = 2, kAggregate = 3 };
constexpr int kClasses = 4;
const char* const kClassNames[kClasses] = {"reduce", "integrate",
                                           "reduce_par2", "aggregate"};

struct Inputs {
  std::vector<server::Message> requests;  // one per class
  std::vector<uint64_t> input_ops;        // PUL ops per request, per class
};

std::vector<std::string> SerializeAll(const std::vector<pul::Pul>& puls) {
  std::vector<std::string> out;
  for (const pul::Pul& pul : puls) {
    out.push_back(Must(pul::SerializePul(pul), "setup", "serialize PUL"));
  }
  return out;
}

uint64_t CountOps(const std::vector<pul::Pul>& puls) {
  uint64_t ops = 0;
  for (const pul::Pul& pul : puls) ops += pul.size();
  return ops;
}

Inputs Generate(const RunOptions& options) {
  const Sizes& sizes = options.smoke ? kSmokeSizes : kFullSizes;
  xmark::Config config;
  config.seed = options.seed;
  config.target_bytes = sizes.doc_bytes;
  xml::Document doc =
      Must(xmark::GenerateDocument(config), "setup", "xmark::GenerateDocument");
  label::Labeling labeling = label::Labeling::Build(doc);
  const uint64_t seed = options.seed * 4;
  Inputs in;
  in.requests.resize(kClasses);
  in.input_ops.resize(kClasses);

  workload::PulGenerator reduce_gen(doc, labeling, seed + 1);
  workload::PulGenerator::PulOptions reduce_opts;
  reduce_opts.num_ops = sizes.reduce_ops;
  reduce_opts.reducible_fraction = 0.2;
  pul::Pul reduce_pul = Must(reduce_gen.Generate(reduce_opts), "setup",
                             "PulGenerator::Generate (reduce input)");
  const std::string reduce_xml =
      Must(pul::SerializePul(reduce_pul), "setup", "serialize PUL");
  for (Class c : {kReduce, kReducePar2}) {
    server::Message& m = in.requests[c];
    m.type = server::MsgType::kReduce;
    m.a = c == kReduce ? 1 : 2;
    m.payload = {reduce_xml, "deterministic"};
    in.input_ops[c] = reduce_pul.size();
  }

  workload::PulGenerator conflict_gen(doc, labeling, seed + 2);
  workload::PulGenerator::ConflictOptions conflict_opts;
  conflict_opts.num_puls = sizes.integrate_puls;
  conflict_opts.ops_per_pul = sizes.integrate_ops;
  conflict_opts.conflicting_fraction = 0.5;
  conflict_opts.ops_per_conflict = 5;
  conflict_opts.chained_fraction = 0.2;
  std::vector<pul::Pul> conflicting =
      Must(conflict_gen.GenerateConflicting(conflict_opts), "setup",
           "PulGenerator::GenerateConflicting (integrate input)");
  in.requests[kIntegrate].type = server::MsgType::kIntegrate;
  in.requests[kIntegrate].a = 1;
  in.requests[kIntegrate].payload = SerializeAll(conflicting);
  in.input_ops[kIntegrate] = CountOps(conflicting);

  workload::PulGenerator sequence_gen(doc, labeling, seed + 3);
  workload::PulGenerator::SequenceOptions sequence_opts;
  sequence_opts.num_puls = sizes.aggregate_puls;
  sequence_opts.ops_per_pul = sizes.aggregate_ops;
  sequence_opts.new_node_fraction = 0.5;
  std::vector<pul::Pul> sequence =
      Must(sequence_gen.GenerateSequence(sequence_opts), "setup",
           "PulGenerator::GenerateSequence (aggregate input)");
  in.requests[kAggregate].type = server::MsgType::kAggregate;
  in.requests[kAggregate].payload = SerializeAll(sequence);
  in.input_ops[kAggregate] = CountOps(sequence);
  return in;
}

struct Response {
  int cls = 0;
  server::MsgType type = server::MsgType::kError;
  uint64_t a = 0;
  uint32_t crc = 0;
  size_t bytes = 0;
  double latency_ms = 0.0;
};

struct Pass {
  double setup_seconds = 0.0;
  double window_seconds = 0.0;
  SpeedReference speed;
  std::vector<Response> responses;
  ProcStats before;
  ProcStats after;
};

Pass RunPass(const RunOptions& options, const Inputs& in, double seconds,
             bool traced, int setups) {
  Pass pass;
  std::vector<double> setup_seconds;
  std::unique_ptr<Daemon> daemon;
  server::Client client;
  const std::string tag = traced ? "traced" : "reason";
  pass.speed.Sample(3);
  for (int i = 0; i < setups; ++i) {
    if (daemon) daemon->Stop();
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(options, tag, traced);
    client = daemon->Connect();
    MustOk(client.Ping(), "setup", "ping daemon");
    setup_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  pass.setup_seconds = Median(setup_seconds);
  pass.before = ReadProcStats(daemon->pid());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (size_t i = 0; Clock::now() < end; ++i) {
    const int cls = static_cast<int>(i % kClasses);
    const Clock::time_point sent = Clock::now();
    MustOk(client.Send(in.requests[cls]), "run", "send request");
    server::Message reply = Must(client.Receive(), "run", "receive response");
    Response r;
    r.latency_ms = MsBetween(sent, Clock::now());
    r.cls = cls;
    r.type = reply.type;
    r.a = reply.a;
    if (!reply.payload.empty()) {
      r.crc = Crc32c(reply.payload[0]);
      r.bytes = reply.payload[0].size();
    }
    pass.responses.push_back(r);
    // Between requests the daemon is idle: sample the host speed every
    // few cycles so drift inside the window is seen too.
    if (i % (4 * kClasses) == 4 * kClasses - 1) pass.speed.Sample();
  }
  pass.window_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  pass.after = ReadProcStats(daemon->pid());
  (void)client.Close();
  daemon->Stop();
  pass.speed.Sample(3);
  return pass;
}

// Local one-shot results of each class, with per-layer timings.
struct Local {
  uint32_t crc[kClasses] = {};
  size_t bytes[kClasses] = {};
  uint64_t conflicts = 0;
  double parse_ms[kClasses] = {};
  double core_ms[kClasses] = {};
  double serialize_ms[kClasses] = {};
  double codec_ms[kClasses] = {};
  double encode_us = 0.0;  // mean per message
  double decode_us = 0.0;
  double partition_ms = 0.0;
  uint64_t shards = 0;
  double rule_apps_per_op = 0.0;
};

// One local run of a request's pipeline: parse, engine, serialize,
// wire codec — the work the daemon does for it, timed per layer.
struct OneShot {
  double parse_ms = 0.0;
  double core_ms = 0.0;
  double serialize_ms = 0.0;
  double codec_ms = 0.0;
  double encode_ms = 0.0;  // request + response
  double decode_ms = 0.0;
  std::string output;
  uint64_t conflicts = 0;
  double partition_ms = 0.0;
  core::ReduceStats stats;
};

OneShot RunOneShot(const server::Message& request, int cls) {
  OneShot shot;
  const size_t count =
      request.type == server::MsgType::kReduce ? 1 : request.payload.size();
  std::vector<pul::Pul> puls;
  shot.parse_ms = TimeMs([&] {
    for (size_t i = 0; i < count; ++i) {
      puls.push_back(Must(pul::ParsePul(request.payload[i]), "verify",
                          "parse request PUL"));
    }
  });
  std::vector<const pul::Pul*> ptrs;
  for (const pul::Pul& pul : puls) ptrs.push_back(&pul);
  pul::Pul result;
  server::Message response;
  response.type = server::MsgType::kOk;
  if (cls == kReduce || cls == kReducePar2) {
    core::ReduceOptions opts;
    opts.mode = core::ReduceMode::kDeterministic;
    opts.parallelism = static_cast<int>(request.a);
    Metrics metrics;
    opts.metrics = &metrics;
    shot.core_ms = TimeMs([&] {
      result = Must(core::Reduce(puls[0], opts, &shot.stats), "verify",
                    "local reduce");
    });
    shot.partition_ms =
        1000.0 * metrics.total_seconds("reduce.partition_seconds");
  } else if (cls == kIntegrate) {
    core::IntegrateOptions opts;
    opts.parallelism = static_cast<int>(request.a);
    core::IntegrationResult merged;
    shot.core_ms = TimeMs([&] {
      merged = Must(core::Integrate(ptrs, opts), "verify", "local integrate");
    });
    shot.conflicts = merged.conflicts.size();
    response.a = shot.conflicts;
    result = std::move(merged.merged);
  } else {
    shot.core_ms = TimeMs([&] {
      result = Must(core::Aggregate(ptrs, core::AggregateOptions{}), "verify",
                    "local aggregate");
    });
  }
  shot.serialize_ms = TimeMs([&] {
    shot.output = Must(pul::SerializePul(result), "verify", "serialize result");
  });
  response.payload = {shot.output};
  const CodecCost req = TimeCodec(request, /*request=*/true);
  const CodecCost resp = TimeCodec(response, /*request=*/false);
  shot.encode_ms = req.encode_ms + resp.encode_ms;
  shot.decode_ms = req.decode_ms + resp.decode_ms;
  shot.codec_ms = shot.encode_ms + shot.decode_ms;
  return shot;
}

// Local one-shot results of each class, with per-layer timings: the
// median over `repeats` runs (the daemon's figures are warm, so are
// these). Every repeat must produce the same bytes.
Local ComputeLocal(const Inputs& in, int repeats) {
  Local local;
  for (int c = 0; c < kClasses; ++c) {
    std::vector<double> parse, core, serialize, codec, encode, decode;
    OneShot shot;
    for (int r = 0; r < repeats; ++r) {
      shot = RunOneShot(in.requests[c], c);
      const uint32_t crc = Crc32c(shot.output);
      if (r > 0 && crc != local.crc[c]) {
        throw BenchError("verify", std::string("local ") + kClassNames[c] +
                                       " is not deterministic");
      }
      local.crc[c] = crc;
      parse.push_back(shot.parse_ms);
      core.push_back(shot.core_ms);
      serialize.push_back(shot.serialize_ms);
      codec.push_back(shot.codec_ms);
      encode.push_back(shot.encode_ms);
      decode.push_back(shot.decode_ms);
    }
    local.bytes[c] = shot.output.size();
    local.parse_ms[c] = Median(parse);
    local.core_ms[c] = Median(core);
    local.serialize_ms[c] = Median(serialize);
    local.codec_ms[c] = Median(codec);
    local.encode_us += 1000.0 * Median(encode) / (2 * kClasses);
    local.decode_us += 1000.0 * Median(decode) / (2 * kClasses);
    if (c == kReduce) {
      local.rule_apps_per_op =
          static_cast<double>(shot.stats.rule_applications) /
          std::max<double>(1.0, static_cast<double>(shot.stats.input_ops));
    } else if (c == kReducePar2) {
      local.shards = shot.stats.shards;
      local.partition_ms = shot.partition_ms;
    } else if (c == kIntegrate) {
      local.conflicts = shot.conflicts;
    }
  }
  return local;
}

// Every response against the local one-shot result of its request; the
// parallelism-2 reduce must match the parallelism-1 bytes exactly.
void Verify(const Pass& pass, const Local& local, RunResult* result) {
  for (size_t i = 0; i < pass.responses.size(); ++i) {
    const Response& r = pass.responses[i];
    const int expected_cls = r.cls == kReducePar2 ? kReduce : r.cls;
    bool ok = r.type == server::MsgType::kOk &&
              r.crc == local.crc[expected_cls] &&
              r.bytes == local.bytes[expected_cls];
    if (r.cls == kIntegrate) ok = ok && r.a == local.conflicts;
    result->Check(ok, std::string(kClassNames[r.cls]) + " response #" +
                          std::to_string(i));
  }
}

Samples Collect(const Pass& pass, uint64_t* failed) {
  Samples samples;
  *failed = 0;
  for (const Response& r : pass.responses) {
    const bool ok = r.type == server::MsgType::kOk;
    if (!ok) ++*failed;
    samples.Add(kClassNames[r.cls],
                ok ? r.latency_ms : std::numeric_limits<double>::infinity());
  }
  return samples;
}

}  // namespace

RunResult RunReasonBulk(const RunOptions& options) {
  const Inputs in = Generate(options);
  RunResult result;
  result.Line(
      "reason_bulk: closed loop on 1 connection; reduce " +
      std::to_string(in.input_ops[kReduce]) + " ops (p1, p2), integrate " +
      std::to_string(in.requests[kIntegrate].payload.size()) + " PULs / " +
      std::to_string(in.input_ops[kIntegrate]) + " ops, aggregate " +
      std::to_string(in.requests[kAggregate].payload.size()) + " PULs / " +
      std::to_string(in.input_ops[kAggregate]) + " ops");
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  Pass plain = RunPass(options, in, window, /*traced=*/false,
                       options.trace ? 1 : kSetupRepeats);
  const Local local = ComputeLocal(in, options.trace ? 5 : 1);
  Verify(plain, local, &result);
  uint64_t failed = 0;
  Samples samples = Collect(plain, &failed);
  const double n = static_cast<double>(plain.responses.size());
  result.attempted = plain.responses.size();
  result.failed = failed;
  uint64_t ops = 0;
  for (const Response& r : plain.responses) {
    if (r.type == server::MsgType::kOk) ops += in.input_ops[r.cls];
  }
  ReportClasses(samples, &result);
  result.Line("  daemon peak_rss_mb " +
              std::to_string(plain.after.peak_rss_mb));
  result.Line("  reason_ops_per_s " +
              std::to_string(static_cast<double>(ops) / plain.window_seconds) +
              "  failed_share " + std::to_string(failed / n));
  if (!options.trace) {
    const double cpu_s = plain.after.cpu_seconds - plain.before.cpu_seconds;
    EmitEndToEnd(plain.speed, plain.setup_seconds, samples,
                 1000.0 * cpu_s / n, &result);
    return result;
  }
  Pass traced = RunPass(options, in, window, /*traced=*/true, 1);
  Verify(traced, local, &result);
  uint64_t traced_failed = 0;
  Samples traced_samples = Collect(traced, &traced_failed);
  result.attempted += traced.responses.size();
  result.failed += traced_failed;
  // Layer rows: the local one-shot cost of each request class, weighted
  // by how often the traced pass sent it.
  const double tn = static_cast<double>(traced.responses.size());
  double count[kClasses] = {};
  for (const Response& r : traced.responses) count[r.cls] += 1.0;
  LayerTable table;
  table.total_ms = traced_samples.total_finite_ms() / tn;
  auto& v = table.values;
  double parse = 0.0, serialize = 0.0, codec = 0.0, parse_total = 0.0;
  uint64_t parse_ops = 0;
  for (int c = 0; c < kClasses; ++c) {
    parse += count[c] * local.parse_ms[c];
    serialize += count[c] * local.serialize_ms[c];
    codec += count[c] * local.codec_ms[c];
    parse_total += local.parse_ms[c];
    parse_ops += in.input_ops[c];
  }
  v["server.codec_ms"] = codec / tn;
  v["pul.parse_ms"] = parse / tn;
  v["pul.serialize_ms"] = serialize / tn;
  v["core.reduce_ms"] = count[kReduce] * local.core_ms[kReduce] / tn;
  v["core.reduce_par2_ms"] =
      count[kReducePar2] * local.core_ms[kReducePar2] / tn;
  v["core.integrate_ms"] = count[kIntegrate] * local.core_ms[kIntegrate] / tn;
  v["core.aggregate_ms"] = count[kAggregate] * local.core_ms[kAggregate] / tn;
  v["server.encode_us"] = local.encode_us;
  v["server.decode_us"] = local.decode_us;
  v["pul.parse_ops_per_s"] = Ratio(parse_ops, parse_total / 1000.0);
  v["core.reduce_partition_ms"] = local.partition_ms;
  v["core.reduce_shards"] = static_cast<double>(local.shards);
  v["core.reduce_rule_apps_per_op"] = local.rule_apps_per_op;
  v["core.integrate_conflicts"] = static_cast<double>(local.conflicts);
  EmitLayerTable(table,
                 AtSpeedOf(samples.total_finite_ms() / n, plain.speed,
                           traced.speed),
                 /*serve_rows=*/false, &result);
  return result;
}

}  // namespace xupdate::perfbench
