#include "tools/cli.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "analysis/independence.h"
#include "branch/merge.h"
#include "branch/rebase.h"
#include "branch/sim.h"
#include "analysis/lint.h"
#include "analysis/predict.h"
#include "analysis/report.h"
#include "analysis/schema_lint.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/string_util.h"
#include "core/aggregate.h"
#include "core/diff.h"
#include "core/integrate.h"
#include "core/invert.h"
#include "core/reconcile.h"
#include "core/reduce.h"
#include "exec/in_memory.h"
#include "label/sidecar.h"
#include "obs/explain.h"
#include "obs/exposition.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "pul/obtainable.h"
#include "exec/streaming.h"
#include "server/client.h"
#include "server/server.h"
#include "server/stat.h"
#include "store/version.h"
#include "workload/workload.h"
#include "label/labeling.h"
#include "pul/describe.h"
#include "pul/pul_io.h"
#include "schema/summary.h"
#include "xmark/generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/eval.h"
#include "xquery/parser.h"

namespace xupdate::tools {

namespace {

// Parsed command line: flags (--name value or --name=value) and
// positional operands.
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  bool Has(const std::string& name) const { return flags.count(name) != 0; }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

Result<Args> ParseArgs(const std::vector<std::string>& argv, size_t begin) {
  Args args;
  for (size_t i = begin; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        args.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      } else if (i + 1 >= argv.size()) {
        return Status::InvalidArgument("flag " + arg + " needs a value");
      } else {
        args.flags[arg.substr(2)] = argv[++i];
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IoError("cannot read " + path);
  }
  return buffer.str();
}

Status WriteFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << content;
  if (!out.good()) return Status::IoError("cannot write " + path);
  return Status::OK();
}

Status RequireFlags(const Args& args,
                    std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (!args.Has(name)) {
      return Status::InvalidArgument(std::string("missing --") + name);
    }
  }
  return Status::OK();
}

// Validated numeric flag parsing, shared by every command: rejects
// non-numeric text, signs, embedded junk and 64-bit overflow with an
// error that names the flag, echoes the offending value and states the
// accepted range. `fallback` is returned when the flag is absent.
Result<int64_t> ParseFlagInt(const Args& args, const std::string& name,
                             int64_t fallback, int64_t min_value,
                             int64_t max_value) {
  if (!args.Has(name)) return fallback;
  std::string text = args.Get(name);
  int64_t value = ParseNonNegativeInt(text);
  if (value < 0) {
    bool digits_only =
        !text.empty() &&
        std::all_of(text.begin(), text.end(), [](unsigned char c) {
          return std::isdigit(c) != 0;
        });
    if (digits_only) {
      return Status::InvalidArgument("--" + name + "=" + text +
                                     " overflows a 64-bit integer");
    }
    return Status::InvalidArgument(
        "--" + name + "=" + text +
        " is not a non-negative integer (digits only; no sign, no spaces)");
  }
  if (value < min_value || value > max_value) {
    return Status::InvalidArgument(
        "--" + name + "=" + text + " is out of range [" +
        std::to_string(min_value) + ", " + std::to_string(max_value) + "]");
  }
  return value;
}

Result<double> ParseFlagDouble(const Args& args, const std::string& name,
                               double fallback, double min_value,
                               double max_value) {
  if (!args.Has(name)) return fallback;
  std::string text = args.Get(name);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      errno == ERANGE || !std::isfinite(value)) {
    return Status::InvalidArgument("--" + name + "=" + text +
                                   " is not a finite number");
  }
  if (value < min_value || value > max_value) {
    std::ostringstream range;
    range << "--" << name << "=" << text << " is out of range ["
          << min_value << ", " << max_value << "]";
    return Status::InvalidArgument(range.str());
  }
  return value;
}

Result<xml::Document> LoadDocument(const Args& args) {
  XUPDATE_ASSIGN_OR_RETURN(std::string text, ReadFile(args.Get("doc")));
  return xml::ParseDocument(text);
}

Result<std::vector<pul::Pul>> LoadPuls(const std::vector<std::string>& paths) {
  std::vector<pul::Pul> puls;
  for (const std::string& path : paths) {
    XUPDATE_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(text));
    puls.push_back(std::move(pul));
  }
  return puls;
}

Status WritePul(const pul::Pul& pul, const std::string& path,
                std::ostream& out) {
  XUPDATE_ASSIGN_OR_RETURN(std::string text, pul::SerializePul(pul));
  XUPDATE_RETURN_IF_ERROR(WriteFile(path, text));
  out << "wrote " << path << " (" << pul.size() << " operations, "
      << text.size() << " bytes)\n";
  return Status::OK();
}

Status CmdGenerate(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"bytes", "out"}));
  xmark::Config config;
  XUPDATE_ASSIGN_OR_RETURN(int64_t bytes,
                           ParseFlagInt(args, "bytes", 0, 1, INT64_MAX));
  config.target_bytes = static_cast<size_t>(bytes);
  XUPDATE_ASSIGN_OR_RETURN(int64_t seed,
                           ParseFlagInt(args, "seed", 42, 0, INT64_MAX));
  config.seed = static_cast<uint64_t>(seed);
  XUPDATE_ASSIGN_OR_RETURN(std::string text,
                           xmark::GenerateDocumentText(config));
  XUPDATE_RETURN_IF_ERROR(WriteFile(args.Get("out"), text));
  out << "wrote " << args.Get("out") << " (" << text.size() << " bytes)\n";
  return Status::OK();
}

Status CmdProduce(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"doc", "update", "out"}));
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc, LoadDocument(args));
  label::Labeling labeling = label::Labeling::Build(doc);
  xquery::ProducerContext ctx;
  ctx.doc = &doc;
  ctx.labeling = &labeling;
  if (args.Has("id-base")) {
    XUPDATE_ASSIGN_OR_RETURN(int64_t base,
                             ParseFlagInt(args, "id-base", 0, 1, INT64_MAX));
    ctx.id_base = static_cast<xml::NodeId>(base);
  }
  std::string policies = args.Get("policies");
  ctx.policies.preserve_insertion_order =
      policies.find("order") != std::string::npos;
  ctx.policies.preserve_inserted_data =
      policies.find("inserted") != std::string::npos;
  ctx.policies.preserve_removed_data =
      policies.find("removed") != std::string::npos;
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul,
                           xquery::ProducePul(args.Get("update"), ctx));
  return WritePul(pul, args.Get("out"), out);
}

Status CmdApply(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"doc", "pul", "out"}));
  XUPDATE_ASSIGN_OR_RETURN(std::string doc_text, ReadFile(args.Get("doc")));
  XUPDATE_ASSIGN_OR_RETURN(std::string pul_text, ReadFile(args.Get("pul")));
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(pul_text));
  std::string engine = args.Get("engine", "streaming");
  std::string updated;
  if (engine == "streaming") {
    exec::StreamingEvaluator evaluator;
    XUPDATE_ASSIGN_OR_RETURN(updated, evaluator.Evaluate(doc_text, pul));
  } else if (engine == "inmemory") {
    exec::InMemoryEvaluator evaluator;
    XUPDATE_ASSIGN_OR_RETURN(updated, evaluator.Evaluate(doc_text, pul));
  } else {
    return Status::InvalidArgument("--engine must be streaming|inmemory");
  }
  XUPDATE_RETURN_IF_ERROR(WriteFile(args.Get("out"), updated));
  out << "applied " << pul.size() << " operations with the " << engine
      << " engine; wrote " << args.Get("out") << " (" << updated.size()
      << " bytes)\n";
  return Status::OK();
}

// Shared reasoning-engine flags: --parallelism N selects the worker
// count of the shard-by-subtree engines (1 = the calling thread alone;
// integrate then takes its sequential path), --metrics PATH
// dumps the engine's counters/timers as JSON ("-" for the output
// stream).
Result<int> ParseParallelismFlag(const Args& args) {
  XUPDATE_ASSIGN_OR_RETURN(int64_t n,
                           ParseFlagInt(args, "parallelism", 1, 1, 256));
  return static_cast<int>(n);
}

Status MaybeDumpMetrics(const Args& args, const Metrics& metrics,
                        std::ostream& out) {
  if (!args.Has("metrics")) return Status::OK();
  std::string json = metrics.ToJson() + "\n";
  std::string path = args.Get("metrics");
  if (path == "-") {
    out << json;
    return Status::OK();
  }
  XUPDATE_RETURN_IF_ERROR(WriteFile(path, json));
  out << "wrote metrics " << path << "\n";
  return Status::OK();
}

// Shared tracing flags: --trace PATH writes the deterministic JSONL
// decision journal ("-" for the output stream) consumed by `xupdate
// explain`, --chrome-trace PATH the Perfetto/chrome://tracing timeline.
bool WantTrace(const Args& args) {
  return args.Has("trace") || args.Has("chrome-trace");
}

Status MaybeWriteTraces(const Args& args, const obs::Tracer& tracer,
                        std::ostream& out) {
  if (args.Has("trace")) {
    std::string journal = obs::ToJournalJsonl(tracer);
    std::string path = args.Get("trace");
    if (path == "-") {
      out << journal;
    } else {
      XUPDATE_RETURN_IF_ERROR(WriteFile(path, journal));
      out << "wrote trace " << path << " (" << tracer.size()
          << " events)\n";
    }
  }
  if (args.Has("chrome-trace")) {
    std::string path = args.Get("chrome-trace");
    XUPDATE_RETURN_IF_ERROR(WriteFile(path, obs::ToChromeTrace(tracer)));
    out << "wrote chrome trace " << path << "\n";
  }
  return Status::OK();
}

Status CmdReduce(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"pul", "out"}));
  XUPDATE_ASSIGN_OR_RETURN(std::string text, ReadFile(args.Get("pul")));
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(text));
  std::string mode_name = args.Get("mode", "deterministic");
  core::ReduceOptions options;
  if (mode_name == "plain") {
    options.mode = core::ReduceMode::kPlain;
  } else if (mode_name == "deterministic") {
    options.mode = core::ReduceMode::kDeterministic;
  } else if (mode_name == "canonical") {
    options.mode = core::ReduceMode::kCanonical;
  } else {
    return Status::InvalidArgument(
        "--mode must be plain|deterministic|canonical");
  }
  XUPDATE_ASSIGN_OR_RETURN(options.parallelism, ParseParallelismFlag(args));
  Metrics metrics;
  options.metrics = &metrics;
  obs::Tracer tracer;
  if (WantTrace(args)) options.tracer = &tracer;
  core::ReduceStats stats;
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul reduced,
                           core::Reduce(pul, options, &stats));
  out << "reduced " << stats.input_ops << " -> " << stats.output_ops
      << " operations (" << stats.rule_applications
      << " rule applications, " << stats.shards << " shards, "
      << stats.units << " units)\n";
  XUPDATE_RETURN_IF_ERROR(MaybeDumpMetrics(args, metrics, out));
  XUPDATE_RETURN_IF_ERROR(MaybeWriteTraces(args, tracer, out));
  return WritePul(reduced, args.Get("out"), out);
}

Status CmdAggregate(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"out"}));
  if (args.positional.size() < 2) {
    return Status::InvalidArgument("aggregate needs at least two PULs");
  }
  XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> puls,
                           LoadPuls(args.positional));
  std::vector<const pul::Pul*> ptrs;
  for (const pul::Pul& pul : puls) ptrs.push_back(&pul);
  core::AggregateOptions options;
  Metrics metrics;
  options.metrics = &metrics;
  obs::Tracer tracer;
  if (WantTrace(args)) options.tracer = &tracer;
  core::AggregateStats stats;
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul aggregate,
                           core::Aggregate(ptrs, options, &stats));
  out << "aggregated " << stats.input_ops << " operations from "
      << puls.size() << " PULs into " << stats.output_ops << " ("
      << stats.folded_ops << " folded into parameter trees)\n";
  XUPDATE_RETURN_IF_ERROR(MaybeDumpMetrics(args, metrics, out));
  XUPDATE_RETURN_IF_ERROR(MaybeWriteTraces(args, tracer, out));
  return WritePul(aggregate, args.Get("out"), out);
}

Status CmdIntegrate(const Args& args, std::ostream& out) {
  if (args.positional.size() < 2) {
    return Status::InvalidArgument("integrate needs at least two PULs");
  }
  XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> puls,
                           LoadPuls(args.positional));
  std::vector<const pul::Pul*> ptrs;
  for (const pul::Pul& pul : puls) ptrs.push_back(&pul);
  core::IntegrateOptions options;
  XUPDATE_ASSIGN_OR_RETURN(options.parallelism, ParseParallelismFlag(args));
  Metrics metrics;
  options.metrics = &metrics;
  obs::Tracer tracer;
  if (WantTrace(args)) options.tracer = &tracer;
  XUPDATE_ASSIGN_OR_RETURN(core::IntegrationResult result,
                           core::Integrate(ptrs, options));
  out << "integration: " << result.merged.size()
      << " non-conflicting operations, " << result.conflicts.size()
      << " conflicts\n";
  std::map<std::string, int> histogram;
  for (const core::Conflict& conflict : result.conflicts) {
    ++histogram[std::string(core::ConflictTypeName(conflict.type))];
  }
  for (const auto& [name, count] : histogram) {
    out << "  " << name << ": " << count << "\n";
  }
  XUPDATE_RETURN_IF_ERROR(MaybeDumpMetrics(args, metrics, out));
  XUPDATE_RETURN_IF_ERROR(MaybeWriteTraces(args, tracer, out));
  if (args.Has("out")) {
    return WritePul(result.merged, args.Get("out"), out);
  }
  return Status::OK();
}

Status CmdReconcile(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"out"}));
  if (args.positional.size() < 2) {
    return Status::InvalidArgument("reconcile needs at least two PULs");
  }
  XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> puls,
                           LoadPuls(args.positional));
  std::vector<const pul::Pul*> ptrs;
  for (const pul::Pul& pul : puls) ptrs.push_back(&pul);
  core::ReconcileOptions options;
  XUPDATE_ASSIGN_OR_RETURN(options.parallelism, ParseParallelismFlag(args));
  Metrics metrics;
  options.metrics = &metrics;
  obs::Tracer tracer;
  if (WantTrace(args)) options.tracer = &tracer;
  core::ReconcileStats stats;
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul merged,
                           core::Reconcile(ptrs, options, &stats));
  out << "reconciled " << stats.conflicts_total << " conflicts ("
      << stats.conflicts_auto_solved << " auto-solved, "
      << stats.operations_excluded << " operations excluded, "
      << stats.operations_generated << " generated)\n";
  XUPDATE_RETURN_IF_ERROR(MaybeDumpMetrics(args, metrics, out));
  XUPDATE_RETURN_IF_ERROR(MaybeWriteTraces(args, tracer, out));
  return WritePul(merged, args.Get("out"), out);
}

Status CmdInvert(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"doc", "pul", "out"}));
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc, LoadDocument(args));
  XUPDATE_ASSIGN_OR_RETURN(std::string text, ReadFile(args.Get("pul")));
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(text));
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul inverse, core::Invert(doc, pul));
  return WritePul(inverse, args.Get("out"), out);
}

Status CmdQuery(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"doc", "path"}));
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc, LoadDocument(args));
  XUPDATE_ASSIGN_OR_RETURN(xquery::PathExpr path,
                           xquery::ParsePath(args.Get("path")));
  XUPDATE_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                           xquery::EvaluatePath(doc, path));
  out << nodes.size() << " nodes\n";
  for (xml::NodeId id : nodes) {
    switch (doc.type(id)) {
      case xml::NodeType::kElement: {
        XUPDATE_ASSIGN_OR_RETURN(std::string text,
                                 xml::SerializeSubtree(doc, id, {}));
        if (text.size() > 120) text = text.substr(0, 117) + "...";
        out << "  #" << id << " " << text << "\n";
        break;
      }
      case xml::NodeType::kAttribute:
        out << "  #" << id << " @" << doc.name(id) << "=\"" << doc.value(id)
            << "\"\n";
        break;
      case xml::NodeType::kText:
        out << "  #" << id << " \"" << doc.value(id) << "\"\n";
        break;
    }
  }
  return Status::OK();
}

Status CmdSidecarSave(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(
      RequireFlags(args, {"doc", "out-doc", "out-sidecar"}));
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc, LoadDocument(args));
  label::Labeling labeling = label::Labeling::Build(doc);
  XUPDATE_ASSIGN_OR_RETURN(std::string plain, xml::SerializeDocument(doc));
  XUPDATE_ASSIGN_OR_RETURN(std::string sidecar,
                           label::SaveSidecar(doc, labeling));
  XUPDATE_RETURN_IF_ERROR(WriteFile(args.Get("out-doc"), plain));
  XUPDATE_RETURN_IF_ERROR(WriteFile(args.Get("out-sidecar"), sidecar));
  out << "wrote " << args.Get("out-doc") << " (" << plain.size()
      << " bytes, pristine) and " << args.Get("out-sidecar") << " ("
      << sidecar.size() << " bytes)\n";
  return Status::OK();
}

Status CmdSidecarLoad(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"doc", "sidecar", "out"}));
  XUPDATE_ASSIGN_OR_RETURN(std::string plain, ReadFile(args.Get("doc")));
  XUPDATE_ASSIGN_OR_RETURN(std::string sidecar,
                           ReadFile(args.Get("sidecar")));
  XUPDATE_ASSIGN_OR_RETURN(label::SidecarDocument loaded,
                           label::LoadWithSidecar(plain, sidecar));
  xml::SerializeOptions options;
  options.with_ids = true;
  XUPDATE_ASSIGN_OR_RETURN(std::string annotated,
                           xml::SerializeDocument(loaded.doc, options));
  XUPDATE_RETURN_IF_ERROR(WriteFile(args.Get("out"), annotated));
  out << "wrote " << args.Get("out") << " (" << annotated.size()
      << " bytes, annotated)\n";
  return Status::OK();
}

Status CmdDiff(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"from", "to", "out"}));
  XUPDATE_ASSIGN_OR_RETURN(std::string from_text,
                           ReadFile(args.Get("from")));
  XUPDATE_ASSIGN_OR_RETURN(std::string to_text, ReadFile(args.Get("to")));
  XUPDATE_ASSIGN_OR_RETURN(xml::Document from,
                           xml::ParseDocument(from_text));
  XUPDATE_ASSIGN_OR_RETURN(xml::Document to, xml::ParseDocument(to_text));
  label::Labeling labeling = label::Labeling::Build(from);
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul delta,
                           core::ComputeDelta(from, labeling, to));
  return WritePul(delta, args.Get("out"), out);
}

Status CmdEquivalent(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"doc"}));
  if (args.positional.size() != 2) {
    return Status::InvalidArgument("equivalent takes exactly two PULs");
  }
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc, LoadDocument(args));
  XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> puls,
                           LoadPuls(args.positional));
  // Obtainable-set enumeration is exponential in the non-determinism of
  // the PULs; this command targets reasoning on small PULs.
  XUPDATE_ASSIGN_OR_RETURN(bool equivalent,
                           pul::AreEquivalent(doc, puls[0], puls[1]));
  if (equivalent) {
    out << "equivalent\n";
    return Status::OK();
  }
  XUPDATE_ASSIGN_OR_RETURN(bool sub12,
                           pul::IsSubstitutable(doc, puls[0], puls[1]));
  XUPDATE_ASSIGN_OR_RETURN(bool sub21,
                           pul::IsSubstitutable(doc, puls[1], puls[0]));
  if (sub12) {
    out << "first substitutable to second\n";
  } else if (sub21) {
    out << "second substitutable to first\n";
  } else {
    out << "not equivalent\n";
  }
  return Status::OK();
}

Status CmdShow(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"pul"}));
  XUPDATE_ASSIGN_OR_RETURN(std::string text, ReadFile(args.Get("pul")));
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(text));
  out << pul.size() << " operations\n" << pul::DescribePul(pul);
  return Status::OK();
}

Status CmdStats(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"doc"}));
  XUPDATE_ASSIGN_OR_RETURN(xml::Document doc, LoadDocument(args));
  size_t elements = 0;
  size_t attributes = 0;
  size_t texts = 0;
  size_t text_bytes = 0;
  int max_depth = 0;
  for (xml::NodeId id : doc.AllNodesInOrder()) {
    switch (doc.type(id)) {
      case xml::NodeType::kElement:
        ++elements;
        break;
      case xml::NodeType::kAttribute:
        ++attributes;
        break;
      case xml::NodeType::kText:
        ++texts;
        text_bytes += doc.value(id).size();
        break;
    }
    max_depth = std::max(max_depth, doc.Level(id));
  }
  out << "elements:   " << elements << "\n"
      << "attributes: " << attributes << "\n"
      << "texts:      " << texts << " (" << text_bytes << " bytes)\n"
      << "max depth:  " << max_depth << "\n"
      << "max id:     " << doc.max_assigned_id() << "\n";
  return Status::OK();
}

// Loads a --schema flag value: "builtin:xmark" or a path to a DTD file
// in the subset schema::Schema::ParseDtd documents.
Result<schema::Schema> LoadSchema(const std::string& spec) {
  if (spec == "builtin:xmark") return schema::Schema::BuiltinXmark();
  XUPDATE_ASSIGN_OR_RETURN(std::string text, ReadFile(spec));
  return schema::Schema::ParseDtd(text);
}

// `xupdate analyze PUL... [--schema dtd|builtin:xmark] [--out
// report.json]`: the static analyzer as a batch tool. Emits one JSON
// object — per-PUL lint diagnostics and reduction-effect prediction,
// plus the pairwise independence verdict for every pair when two or
// more PULs are given. With --schema, the schema lint (XU008-XU010)
// joins the per-PUL diagnostics, each pair gains a "tier0" marker (true
// when the type-level summaries alone prove it independent; the verdict
// itself always comes from the exact label-based analyzer) and a
// trailing "schema" object reports the type level's precision — the
// fraction of pairs it proves. The report
// is byte-deterministic, so it can be golden-tested and diffed.
Status CmdAnalyze(const Args& args, std::ostream& out) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("analyze needs at least one PUL");
  }
  XUPDATE_ASSIGN_OR_RETURN(std::vector<pul::Pul> puls,
                           LoadPuls(args.positional));
  std::optional<schema::Schema> schema;
  std::vector<schema::TypeSummary> summaries;
  if (args.Has("schema")) {
    XUPDATE_ASSIGN_OR_RETURN(schema::Schema loaded,
                             LoadSchema(args.Get("schema")));
    schema.emplace(std::move(loaded));
    summaries.reserve(puls.size());
    for (const pul::Pul& pul : puls) {
      summaries.push_back(schema::InferTouchedTypes(*schema, pul));
    }
  }
  obs::Tracer tracer;
  obs::TraceLane lane;
  if (WantTrace(args)) {
    lane = tracer.Lane(tracer.NextPhase(), 0, "analyze");
  }
  auto ref = [](size_t pul, int op) {
    return "P" + std::to_string(pul) + "#" + std::to_string(op);
  };
  std::ostringstream json;
  json << "{\"puls\":[";
  for (size_t i = 0; i < puls.size(); ++i) {
    if (i > 0) json << ",";
    analysis::DiagnosticReport lint = analysis::LintPul(puls[i]);
    if (schema.has_value()) {
      analysis::DiagnosticReport schema_lint =
          analysis::LintPulWithSchema(*schema, puls[i]);
      lint.insert(lint.end(), schema_lint.begin(), schema_lint.end());
      std::sort(lint.begin(), lint.end(),
                [](const analysis::Diagnostic& a,
                   const analysis::Diagnostic& b) {
                  if (a.op_index != b.op_index) {
                    return a.op_index < b.op_index;
                  }
                  return a.code < b.code;
                });
    }
    analysis::ReductionPrediction prediction =
        analysis::PredictReduction(puls[i]);
    if (lane.enabled()) {
      for (const analysis::Diagnostic& d : lint) {
        std::vector<std::string> ops = {ref(i, d.op_index)};
        if (d.related_op >= 0) ops.push_back(ref(i, d.related_op));
        lane.Emit(obs::EventKind::kNote, "lint", std::move(ops), d.code,
                  d.message);
      }
      lane.Emit(obs::EventKind::kNote, "prediction", {}, {},
                "P" + std::to_string(i) + ": " +
                    std::to_string(prediction.input_ops) + " ops, <= " +
                    std::to_string(prediction.surviving_upper_bound) +
                    " survive");
    }
    json << "{\"path\":\"" << analysis::JsonEscape(args.positional[i])
         << "\",\"ops\":" << puls[i].size()
         << ",\"lint\":" << analysis::DiagnosticsToJson(lint)
         << ",\"prediction\":" << analysis::PredictionToJson(prediction)
         << "}";
  }
  json << "],\"independence\":[";
  bool first = true;
  size_t pairs = 0;
  size_t tier0_hits = 0;
  for (size_t i = 0; i < puls.size(); ++i) {
    for (size_t j = i + 1; j < puls.size(); ++j) {
      if (!first) json << ",";
      first = false;
      ++pairs;
      analysis::IndependenceReport verdict =
          analysis::AnalyzeIndependence(puls[i], puls[j]);
      const bool tier0 =
          schema.has_value() &&
          schema::DecideIndependence(summaries[i], summaries[j]) ==
              schema::SchemaVerdict::kProvenIndependent;
      if (tier0) ++tier0_hits;
      if (lane.enabled()) {
        std::vector<std::string> ops;
        if (verdict.op_a >= 0) ops.push_back(ref(i, verdict.op_a));
        if (verdict.op_b >= 0) ops.push_back(ref(j, verdict.op_b));
        lane.Emit(
            obs::EventKind::kNote, "independence", std::move(ops),
            std::string(analysis::IndependenceVerdictName(verdict.verdict)),
            verdict.reason);
      }
      json << "{\"a\":" << i << ",\"b\":" << j
           << ",\"report\":" << analysis::IndependenceToJson(verdict);
      if (schema.has_value()) {
        json << ",\"tier0\":" << (tier0 ? "true" : "false");
      }
      json << "}";
    }
  }
  json << "]";
  if (schema.has_value()) {
    // Fixed 3-decimal precision keeps the line byte-deterministic; a
    // pairless report (one PUL) is vacuously fully resolved.
    double precision =
        pairs == 0 ? 1.0
                   : static_cast<double>(tier0_hits) /
                         static_cast<double>(pairs);
    char fixed[16];
    std::snprintf(fixed, sizeof(fixed), "%.3f", precision);
    json << ",\"schema\":{\"types\":" << schema->num_types()
         << ",\"pairs\":" << pairs << ",\"tier0\":" << tier0_hits
         << ",\"precision\":\"" << fixed << "\"}";
  }
  json << "}";
  std::string text = json.str() + "\n";
  if (args.Has("out") && args.Get("out") != "-") {
    XUPDATE_RETURN_IF_ERROR(WriteFile(args.Get("out"), text));
    out << "wrote " << args.Get("out") << "\n";
  } else {
    out << text;
  }
  return MaybeWriteTraces(args, tracer, out);
}

// `xupdate explain journal.jsonl [--op ID]`: folds a --trace journal
// back into per-operation provenance chains (obs/explain.h). With --op
// it prints the story of one operation; without, every known operation.
Status CmdExplain(const Args& args, std::ostream& out) {
  if (args.positional.size() != 1) {
    return Status::InvalidArgument("explain takes exactly one journal");
  }
  XUPDATE_ASSIGN_OR_RETURN(std::string text, ReadFile(args.positional[0]));
  XUPDATE_ASSIGN_OR_RETURN(std::vector<obs::TraceEvent> events,
                           obs::ParseJournal(text));
  XUPDATE_ASSIGN_OR_RETURN(obs::ExplainReport report,
                           obs::BuildExplainReport(events));
  out << obs::RenderChains(report, args.Get("op"));
  return Status::OK();
}

// `xupdate store <init|commit|checkout|log|rollback|verify|
// branch|merge|rebase>`: the durable versioned update store
// (store/version.h) plus the branch/merge subsystem (src/branch/) as a
// tool. commit/checkout/log address a branch with --branch NAME
// ("main" is the mainline).
// Shared flags: --dir DIR (the store directory), --fsync
// always|batch|never, --snapshot-every N, --snapshot-bytes N,
// --parallelism N, --metrics PATH, --trace PATH. The environment
// variable XUPDATE_STORE_FAIL_AFTER_BYTES, when set to a non-negative
// integer, injects a journal write failure after that many appended
// bytes (crash-testing shim; see WalOptions::fail_after_bytes).
Result<store::StoreOptions> ParseStoreOptions(const Args& args,
                                              Metrics* metrics,
                                              obs::Tracer* tracer) {
  store::StoreOptions options;
  options.metrics = metrics;
  if (WantTrace(args)) options.tracer = tracer;
  if (args.Has("fsync") &&
      !store::FsyncPolicyFromName(args.Get("fsync"), &options.fsync)) {
    return Status::InvalidArgument("--fsync must be always|batch|never");
  }
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t snapshot_every,
      ParseFlagInt(args, "snapshot-every",
                   static_cast<int64_t>(options.snapshot_every), 0,
                   INT64_MAX));
  options.snapshot_every = static_cast<uint64_t>(snapshot_every);
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t snapshot_bytes,
      ParseFlagInt(args, "snapshot-bytes",
                   static_cast<int64_t>(options.snapshot_bytes), 0,
                   INT64_MAX));
  options.snapshot_bytes = static_cast<uint64_t>(snapshot_bytes);
  XUPDATE_ASSIGN_OR_RETURN(options.parallelism, ParseParallelismFlag(args));
  if (const char* budget = std::getenv("XUPDATE_STORE_FAIL_AFTER_BYTES");
      budget != nullptr && *budget != '\0') {
    int64_t n = ParseNonNegativeInt(budget);
    if (n < 0) {
      return Status::InvalidArgument(
          "bad XUPDATE_STORE_FAIL_AFTER_BYTES value");
    }
    options.fail_after_bytes = n;
  }
  return options;
}

Result<uint64_t> ParseVersionFlag(const Args& args, const char* name) {
  XUPDATE_ASSIGN_OR_RETURN(int64_t v,
                           ParseFlagInt(args, name, 0, 0, INT64_MAX));
  return static_cast<uint64_t>(v);
}

Result<pul::Policies> ParsePoliciesFlag(const Args& args) {
  pul::Policies policies;
  if (!args.Has("policies")) return policies;
  std::vector<std::string> names;
  std::istringstream list(args.Get("policies"));
  for (std::string piece; std::getline(list, piece, ',');) {
    names.push_back(std::string(Trim(piece)));
  }
  for (const std::string& name : names) {
    if (name == "preserve-insertion-order") {
      policies.preserve_insertion_order = true;
    } else if (name == "preserve-inserted-data") {
      policies.preserve_inserted_data = true;
    } else if (name == "preserve-removed-data") {
      policies.preserve_removed_data = true;
    } else if (!name.empty()) {
      return Status::InvalidArgument(
          "--policies accepts a comma list of preserve-insertion-order|"
          "preserve-inserted-data|preserve-removed-data, got \"" + name +
          "\"");
    }
  }
  return policies;
}

// Branch heads in name order, appended to every `store log` output so
// the one command shows the whole journal family.
void PrintBranchHeads(const store::VersionStore& vs, std::ostream& out) {
  std::vector<std::string> names = vs.BranchNames();
  if (names.empty()) return;
  out << "branches:\n";
  for (const std::string& name : names) {
    auto info = vs.GetBranch(name);
    if (!info.ok()) continue;
    out << "  " << name << ": head " << info->head << " (fork "
        << info->fork << " of " << info->parent << ")\n";
  }
}

void PrintLogEntry(const store::LogEntry& entry, bool with_ops,
                   std::ostream& out) {
  switch (entry.type) {
    case store::FrameType::kPul:
      out << "  pul       v" << entry.version;
      break;
    case store::FrameType::kSnapshot:
      out << "  snapshot  v" << entry.version;
      break;
    case store::FrameType::kMerge:
      out << "  merge     v" << entry.aux << " -> v" << entry.version;
      break;
    case store::FrameType::kBranchMeta:
      out << "  meta     ";
      break;
  }
  if (with_ops && entry.type != store::FrameType::kSnapshot &&
      entry.type != store::FrameType::kBranchMeta) {
    out << "  " << entry.ops << " ops";
  }
  out << "  (" << entry.payload_bytes << " bytes at offset "
      << entry.offset << ")\n";
}

Status CmdStore(const Args& args, std::ostream& out) {
  if (args.positional.empty()) {
    return Status::InvalidArgument(
        "store needs a subcommand: "
        "init|commit|checkout|log|rollback|verify|branch|merge|rebase");
  }
  const std::string& sub = args.positional[0];
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"dir"}));
  std::string dir = args.Get("dir");
  Metrics metrics;
  obs::Tracer tracer;
  XUPDATE_ASSIGN_OR_RETURN(store::StoreOptions options,
                           ParseStoreOptions(args, &metrics, &tracer));

  Status result = Status::OK();
  if (sub == "init") {
    XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"doc"}));
    XUPDATE_ASSIGN_OR_RETURN(std::string text, ReadFile(args.Get("doc")));
    XUPDATE_RETURN_IF_ERROR(store::VersionStore::Init(dir, text, options));
    out << "initialized store " << dir << " at version 0\n";
  } else {
    store::OpenReport report;
    XUPDATE_ASSIGN_OR_RETURN(
        store::VersionStore vs,
        store::VersionStore::Open(dir, options, &report));
    if (report.wal.truncated_bytes > 0) {
      out << "recovered journal: dropped " << report.wal.truncated_bytes
          << " torn bytes, head is version " << vs.head() << "\n";
    }
    std::string branch = args.Get("branch", "main");
    if (sub == "commit") {
      XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"pul"}));
      XUPDATE_ASSIGN_OR_RETURN(std::string text, ReadFile(args.Get("pul")));
      XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(text));
      XUPDATE_ASSIGN_OR_RETURN(uint64_t version,
                               vs.CommitOnBranch(branch, pul));
      out << "committed version " << version << " (" << pul.size()
          << " operations)";
      if (branch != "main") out << " on branch " << branch;
      out << "\n";
    } else if (sub == "checkout") {
      XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"version", "out"}));
      XUPDATE_ASSIGN_OR_RETURN(uint64_t version,
                               ParseVersionFlag(args, "version"));
      XUPDATE_ASSIGN_OR_RETURN(std::string xml,
                               vs.CheckoutXmlBranch(branch, version));
      XUPDATE_RETURN_IF_ERROR(WriteFile(args.Get("out"), xml));
      out << "checked out version " << version << " to " << args.Get("out")
          << " (" << xml.size() << " bytes)\n";
    } else if (sub == "log") {
      if (args.Has("branch") && branch != "main") {
        XUPDATE_ASSIGN_OR_RETURN(store::BranchInfo info,
                                 vs.GetBranch(branch));
        out << "branch " << branch << ": head " << info.head << " (fork "
            << info.fork << " of " << info.parent << ")\n";
        XUPDATE_ASSIGN_OR_RETURN(
            std::vector<store::LogEntry> entries,
            vs.LogBranch(branch, /*with_op_counts=*/true));
        for (const store::LogEntry& entry : entries) {
          PrintLogEntry(entry, /*with_ops=*/true, out);
        }
      } else {
        out << "head: " << vs.head() << "\n";
        out << "snapshots:";
        for (uint64_t v : vs.snapshots().versions()) out << " " << v;
        out << "\n";
        bool with_ops = args.Has("branch");
        XUPDATE_ASSIGN_OR_RETURN(std::vector<store::LogEntry> entries,
                                 vs.LogBranch("main", with_ops));
        for (const store::LogEntry& entry : entries) {
          PrintLogEntry(entry, with_ops, out);
        }
      }
      PrintBranchHeads(vs, out);
    } else if (sub == "branch") {
      if (!args.Has("name")) {
        // No --name: list.
        std::vector<std::string> names = vs.BranchNames();
        out << "branches: " << names.size() << "\n";
        PrintBranchHeads(vs, out);
      } else {
        XUPDATE_ASSIGN_OR_RETURN(pul::Policies policies,
                                 ParsePoliciesFlag(args));
        std::string parent = args.Get("parent", "main");
        XUPDATE_ASSIGN_OR_RETURN(store::BranchInfo parent_info,
                                 vs.GetBranch(parent));
        uint64_t at = parent_info.head;
        if (args.Has("at")) {
          XUPDATE_ASSIGN_OR_RETURN(at, ParseVersionFlag(args, "at"));
        }
        XUPDATE_RETURN_IF_ERROR(
            vs.CreateBranch(args.Get("name"), parent, at, policies));
        out << "created branch " << args.Get("name") << " forking "
            << parent << " at version " << at << "\n";
      }
    } else if (sub == "merge") {
      XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"a", "b"}));
      branch::MergeOptions merge_options;
      merge_options.parallelism = options.parallelism;
      merge_options.metrics = &metrics;
      if (WantTrace(args)) merge_options.tracer = &tracer;
      branch::MergeStats stats;
      XUPDATE_ASSIGN_OR_RETURN(
          store::MergeCommitResult merged,
          branch::Merge(&vs, args.Get("a"), args.Get("b"), merge_options,
                        &stats));
      if (stats.no_op) {
        out << "merge is a no-op (neither side diverged)\n";
      } else if (stats.fast_forward) {
        out << "fast-forwarded";
      } else {
        out << "merged " << stats.suffix_a << "+" << stats.suffix_b
            << " divergent commits, " << stats.merged_ops
            << " reconciled ops, " << stats.reconcile.conflicts_total
            << " conflicts (" << stats.reconcile.operations_excluded
            << " ops excluded)";
      }
      if (!stats.no_op) {
        out << ": " << args.Get("a") << " -> v" << merged.head_a << ", "
            << args.Get("b") << " -> v" << merged.head_b << "\n";
      }
    } else if (sub == "rebase") {
      XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"name", "onto"}));
      branch::RebaseOptions rebase_options;
      XUPDATE_ASSIGN_OR_RETURN(rebase_options.onto,
                               ParseVersionFlag(args, "onto"));
      rebase_options.skip_conflicting = args.Has("skip-conflicts");
      rebase_options.parallelism = options.parallelism;
      rebase_options.metrics = &metrics;
      if (WantTrace(args)) rebase_options.tracer = &tracer;
      XUPDATE_ASSIGN_OR_RETURN(
          branch::RebaseReport report2,
          branch::Rebase(&vs, args.Get("name"), rebase_options));
      for (const branch::RebaseConflict& conflict : report2.conflicts) {
        out << "conflict at old v" << conflict.version << ":";
        for (core::ConflictType type : conflict.types) {
          out << " " << core::ConflictTypeName(type);
        }
        out << " (" << conflict.detail << ")\n";
      }
      if (report2.applied) {
        out << "rebased " << report2.branch << " onto v"
            << report2.new_fork << ": " << report2.replayed
            << " commits replayed, " << report2.dropped << " dropped\n";
      } else {
        out << "rebase aborted: " << report2.conflicts.size()
            << " conflicting commits (use --skip-conflicts to drop "
               "them)\n";
      }
    } else if (sub == "rollback") {
      XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"to"}));
      XUPDATE_ASSIGN_OR_RETURN(uint64_t to, ParseVersionFlag(args, "to"));
      XUPDATE_ASSIGN_OR_RETURN(uint64_t head, vs.Rollback(to));
      out << "rolled back to version " << to << " as new version " << head
          << "\n";
    } else if (sub == "verify") {
      XUPDATE_ASSIGN_OR_RETURN(store::VerifyReport report2, vs.Verify());
      out << "verify ok: " << report2.frames << " frames, "
          << report2.snapshots << " snapshots, head " << report2.head
          << ", " << report2.replayed_versions << " versions replayed, "
          << report2.snapshots_checked << " snapshots byte-checked, "
          << report2.merges_checked << " merges checked\n";
      for (const store::BranchVerifyResult& branch_result :
           report2.branches) {
        out << "  branch " << branch_result.name << ": "
            << branch_result.frames << " frames, head "
            << branch_result.head << ", " << branch_result.replayed_versions
            << " versions replayed, " << branch_result.merges_checked
            << " merges checked\n";
      }
    } else {
      result = Status::InvalidArgument("unknown store subcommand \"" + sub +
                                       "\"");
    }
    if (result.ok()) XUPDATE_RETURN_IF_ERROR(vs.Close());
  }
  XUPDATE_RETURN_IF_ERROR(MaybeDumpMetrics(args, metrics, out));
  XUPDATE_RETURN_IF_ERROR(MaybeWriteTraces(args, tracer, out));
  return result;
}

// ---------------------------------------------------------------------------
// serve / loadgen: the PUL reasoning daemon and its driver.

std::atomic<bool> g_serve_signal{false};
std::atomic<bool> g_serve_usr1{false};

void HandleServeSignal(int) { g_serve_signal.store(true); }
void HandleServeUsr1(int) { g_serve_usr1.store(true); }

Status CmdServe(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"socket", "data-dir"}));
  Metrics metrics;
  obs::Tracer tracer;
  server::ServerOptions options;
  options.socket_path = args.Get("socket");
  options.data_dir = args.Get("data-dir");
  XUPDATE_ASSIGN_OR_RETURN(options.store,
                           ParseStoreOptions(args, &metrics, &tracer));
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t max_pending,
      ParseFlagInt(args, "max-pending", 128, 1, 1 << 20));
  options.max_pending = static_cast<size_t>(max_pending);
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t per_tenant,
      ParseFlagInt(args, "max-pending-per-tenant", 0, 0, 1 << 20));
  options.max_pending_per_tenant = static_cast<size_t>(per_tenant);
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t window, ParseFlagInt(args, "commit-window-ms", 0, 0, 10000));
  options.commit_window_ms = static_cast<int>(window);
  XUPDATE_ASSIGN_OR_RETURN(int64_t max_parallelism,
                           ParseFlagInt(args, "max-parallelism", 8, 1, 256));
  options.max_parallelism = static_cast<int>(max_parallelism);
  options.metrics = &metrics;
  // --trace/--chrome-trace attach per-request span tracing; the
  // journal/timeline files are written when the server exits.
  if (WantTrace(args)) options.tracer = &tracer;
  if (args.Has("slow-request-ms")) {
    XUPDATE_ASSIGN_OR_RETURN(
        int64_t slow_ms,
        ParseFlagInt(args, "slow-request-ms", 0, 0, 3600000));
    options.slow_request_ms = static_cast<int>(slow_ms);
    options.slow_request_log_path = args.Get("slow-request-log");
  }
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t slow_rate,
      ParseFlagInt(args, "slow-request-log-rate", 20, 0, 100000));
  options.slow_request_log_max_per_sec = static_cast<int>(slow_rate);
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t flight_capacity,
      ParseFlagInt(args, "flight-capacity", 1024, 0, 1 << 20));
  options.flight_recorder_capacity = static_cast<size_t>(flight_capacity);
  options.flight_dump_path = args.Get("flight-dump");
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t per_tenant_metrics,
      ParseFlagInt(args, "per-tenant-metrics", 1, 0, 1));
  options.per_tenant_metrics = per_tenant_metrics != 0;
  // --metrics-out writes the Prometheus text exposition atomically every
  // --metrics-interval-ms, so any file-based scraper tails a consistent
  // snapshot without speaking the wire protocol.
  std::string metrics_out = args.Get("metrics-out");
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t metrics_interval,
      ParseFlagInt(args, "metrics-interval-ms", 1000, 10, 3600000));
  XUPDATE_ASSIGN_OR_RETURN(std::unique_ptr<server::Server> server,
                           server::Server::Start(options));
  out << "serving on " << options.socket_path << " (data in "
      << options.data_dir << ", commit window " << options.commit_window_ms
      << " ms, max pending " << options.max_pending;
  if (options.max_pending_per_tenant > 0) {
    out << ", per-tenant quota " << options.max_pending_per_tenant;
  }
  if (options.tracer != nullptr) out << ", tracing on";
  if (options.slow_request_ms >= 0) {
    out << ", slow-request log at " << options.slow_request_ms << " ms";
  }
  if (!metrics_out.empty()) out << ", metrics to " << metrics_out;
  out << ")\n";
  out.flush();
  g_serve_signal.store(false);
  g_serve_usr1.store(false);
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGUSR1, HandleServeUsr1);
  // Housekeeping loop instead of a blocking Wait: services SIGUSR1
  // flight-recorder dumps and the periodic metrics exposition while
  // watching for shutdown (signal or kShutdown request).
  auto next_metrics_write = std::chrono::steady_clock::now();
  while (!g_serve_signal.load() && !server->stop_requested()) {
    if (g_serve_usr1.exchange(false)) {
      Status dumped = server->DumpFlightRecorder();
      out << (dumped.ok() ? "flight recorder dumped\n"
                          : "flight recorder dump failed: " +
                                dumped.ToString() + "\n");
      out.flush();
    }
    if (!metrics_out.empty() &&
        std::chrono::steady_clock::now() >= next_metrics_write) {
      Status written = WriteFileAtomic(
          metrics_out, obs::RenderPrometheus(metrics.Snapshot()));
      if (!written.ok()) {
        out << "metrics exposition failed (disabled): " << written.ToString()
            << "\n";
        out.flush();
        metrics_out.clear();
      }
      next_metrics_write = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(metrics_interval);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  Status stopped = server->Stop();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGUSR1, SIG_DFL);
  if (!metrics_out.empty()) {
    // Final exposition so scrapers see the shutdown-complete totals.
    XUPDATE_RETURN_IF_ERROR(WriteFileAtomic(
        metrics_out, obs::RenderPrometheus(metrics.Snapshot())));
  }
  out << "server stopped\n";
  XUPDATE_RETURN_IF_ERROR(MaybeDumpMetrics(args, metrics, out));
  XUPDATE_RETURN_IF_ERROR(MaybeWriteTraces(args, tracer, out));
  return stopped;
}

// ---------------------------------------------------------------------------
// stat / top: poll a running server's versioned kStat payload.

Result<server::StatSnapshot> FetchStat(server::Client* client) {
  XUPDATE_ASSIGN_OR_RETURN(std::string payload, client->Stat());
  return server::ParseStatJson(payload);
}

Status CmdStat(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"socket"}));
  XUPDATE_ASSIGN_OR_RETURN(server::Client client,
                           server::Client::Connect(args.Get("socket")));
  const std::string format = args.Get("format", "json");
  if (format == "json") {
    XUPDATE_ASSIGN_OR_RETURN(std::string payload, client.Stat());
    out << payload << "\n";
    return Status::OK();
  }
  if (format == "prom") {
    XUPDATE_ASSIGN_OR_RETURN(server::StatSnapshot stat, FetchStat(&client));
    out << obs::RenderPrometheus(server::FlattenStatSnapshot(stat));
    return Status::OK();
  }
  return Status::InvalidArgument("--format must be json|prom, got \"" +
                                 format + "\"");
}

uint64_t DeltaCounter(const MetricsDelta& delta, std::string_view name) {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

int64_t DeltaGauge(const MetricsDelta& delta, std::string_view name) {
  auto it = delta.gauges.find(name);
  return it == delta.gauges.end() ? 0 : it->second;
}

// One refresh of the live monitor: global throughput/health line plus a
// per-tenant table, all computed from the delta between two stat polls.
void RenderTopFrame(std::ostream& out, bool raw,
                    const server::StatSnapshot& stat,
                    const MetricsDelta& delta, double dt) {
  if (!raw) out << "\x1b[2J\x1b[H";  // clear + home (ANSI)
  char line[256];
  const uint64_t commits = DeltaCounter(delta, "store.commit.count");
  const uint64_t fsyncs = DeltaCounter(delta, "store.wal.fsync.count");
  const uint64_t requests = DeltaCounter(delta, "server.requests");
  const uint64_t shed = DeltaCounter(delta, "server.busy.count");
  std::snprintf(line, sizeof(line),
                "xupdate top  seq=%llu  uptime=%.1fs  interval=%.2fs\n",
                static_cast<unsigned long long>(stat.seq),
                static_cast<double>(stat.uptime_ticks) / 1000.0, dt);
  out << line;
  std::snprintf(line, sizeof(line),
                "req/s %.1f  commit/s %.1f  shed/s %.1f  queue %lld  "
                "tenants %lld  wal %lld B\n",
                static_cast<double>(requests) / dt,
                static_cast<double>(commits) / dt,
                static_cast<double>(shed) / dt,
                static_cast<long long>(
                    DeltaGauge(delta, "server.queue.depth")),
                static_cast<long long>(
                    DeltaGauge(delta, "server.tenants.resident")),
                static_cast<long long>(DeltaGauge(delta, "server.wal.bytes")));
  out << line;
  // Coalescing ratio: commits per WAL fsync in the interval — the
  // group-commit batcher's whole point made visible.
  if (fsyncs > 0) {
    std::snprintf(line, sizeof(line), "fsync/s %.1f  coalescing %.2fx",
                  static_cast<double>(fsyncs) / dt,
                  static_cast<double>(commits) / static_cast<double>(fsyncs));
    out << line;
  } else {
    out << "fsync/s 0.0  coalescing -";
  }
  out << "\n";
  if (stat.tenants.empty()) {
    out << "(no per-tenant metrics)\n";
    out.flush();
    return;
  }
  std::snprintf(line, sizeof(line), "%-18s %9s %9s %9s %9s %9s %7s %11s\n",
                "tenant", "req/s", "commit/s", "p50ms", "p95ms", "p99ms",
                "shed", "wal-bytes");
  out << line;
  for (const auto& [name, section] : stat.tenants) {
    const std::string prefix = "tenant/" + name + "/";
    const uint64_t treq = DeltaCounter(delta, prefix + "requests");
    const uint64_t tcommit = DeltaCounter(delta, prefix + "commit.count");
    const uint64_t tshed = DeltaCounter(delta, prefix + "shed.count");
    MetricsDelta::TimerDelta timer;
    auto it = delta.timers.find(prefix + "commit.seconds");
    if (it != delta.timers.end()) timer = it->second;
    std::snprintf(line, sizeof(line),
                  "%-18s %9.1f %9.1f %9.3f %9.3f %9.3f %7llu %11lld\n",
                  name.c_str(), static_cast<double>(treq) / dt,
                  static_cast<double>(tcommit) / dt, timer.p50 * 1000.0,
                  timer.p95 * 1000.0, timer.p99 * 1000.0,
                  static_cast<unsigned long long>(tshed),
                  static_cast<long long>(
                      DeltaGauge(delta, prefix + "wal.bytes")));
    out << line;
  }
  out.flush();
}

Status CmdTop(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"socket"}));
  XUPDATE_ASSIGN_OR_RETURN(int64_t interval_ms,
                           ParseFlagInt(args, "interval-ms", 1000, 50, 60000));
  // 0 = run until the connection drops (live monitoring); a bounded
  // iteration count makes the command scriptable in CI and smoke tests.
  XUPDATE_ASSIGN_OR_RETURN(int64_t iterations,
                           ParseFlagInt(args, "iterations", 0, 0, 1000000));
  // --raw 1 appends frames without ANSI clear/home, for logs and CI.
  XUPDATE_ASSIGN_OR_RETURN(int64_t raw_flag, ParseFlagInt(args, "raw", 0, 0, 1));
  const bool raw = raw_flag != 0;
  XUPDATE_ASSIGN_OR_RETURN(server::Client client,
                           server::Client::Connect(args.Get("socket")));
  XUPDATE_ASSIGN_OR_RETURN(server::StatSnapshot prev, FetchStat(&client));
  MetricsSnapshot prev_flat = server::FlattenStatSnapshot(prev);
  for (int64_t i = 0; iterations == 0 || i < iterations; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    XUPDATE_ASSIGN_OR_RETURN(server::StatSnapshot cur, FetchStat(&client));
    MetricsSnapshot cur_flat = server::FlattenStatSnapshot(cur);
    MetricsDelta delta = DeltaSnapshots(prev_flat, cur_flat);
    // Rates use the server's own uptime ticks, not the local sleep, so
    // scheduling jitter on the poller cannot skew them.
    double dt = static_cast<double>(cur.uptime_ticks - prev.uptime_ticks) /
                1000.0;
    if (dt <= 0) dt = static_cast<double>(interval_ms) / 1000.0;
    RenderTopFrame(out, raw, cur, delta, dt);
    prev = std::move(cur);
    prev_flat = std::move(cur_flat);
  }
  return Status::OK();
}

// One loadgen connection: the tenants it owns, the items it streams (in
// global stream order) and the verification state shared with main.
struct LoadgenConnection {
  server::Client client;
  std::vector<const workload::WorkloadItem*> items;
  std::vector<size_t> tenants;

  std::thread worker;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<const workload::WorkloadItem*,
                       std::chrono::steady_clock::time_point>>
      in_flight;
  bool send_done = false;
  Status failure;  // first sender/receiver error, named
  uint64_t busy = 0;
};

struct LoadgenPlan {
  workload::Workload workload;
  bool verify = false;
  double rate = 0.0;
  // Max requests in flight per connection: deep enough to let the
  // server's batcher coalesce, bounded so the loadgen doesn't trip its
  // own admission control.
  size_t window = 16;
  // Per tenant: annotated serialization after v commits (index v), the
  // one-shot reference the server's bytes must match. Empty when not
  // verifying.
  std::vector<std::vector<std::string>> expected;
  Metrics* metrics = nullptr;
};

const char* LoadgenItemName(workload::ItemType type) {
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

// Local one-shot reference for a reduce item: the same deterministic
// engine configuration the server uses.
Result<std::string> LocalReduce(const std::string& pul_xml) {
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(pul_xml));
  core::ReduceOptions options;
  options.mode = core::ReduceMode::kDeterministic;
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul reduced, core::Reduce(pul, options));
  return pul::SerializePul(reduced);
}

Status VerifyLoadgenResponse(const LoadgenPlan& plan,
                             const workload::WorkloadItem& item,
                             const server::Message& response) {
  std::string where = std::string(LoadgenItemName(item.type)) + " on tenant " +
                      plan.workload.tenants[item.tenant] + " (item #" +
                      std::to_string(item.id) + ")";
  if (response.type == server::MsgType::kBusy) {
    // Outside --verify the caller counts busy responses as shed load;
    // under --verify every item must land.
    if (item.type != workload::ItemType::kCommit || !plan.verify) {
      return Status::OK();
    }
    return Status::Internal("commit shed with kBusy under --verify: " +
                            where);
  }
  if (response.type == server::MsgType::kError) {
    // Without --verify an error response is counted, not fatal: a shed
    // commit legitimately makes a later checkout of that version fail.
    if (!plan.verify) {
      if (plan.metrics != nullptr) {
        plan.metrics->AddCounter("loadgen.error.count");
      }
      return Status::OK();
    }
    return Status::Internal(where + " failed: " +
                            server::StatusFromError(response).ToString());
  }
  if (!plan.verify) return Status::OK();
  switch (item.type) {
    case workload::ItemType::kCommit:
      if (response.a != item.expected_version) {
        return Status::Internal(
            where + " produced version " + std::to_string(response.a) +
            ", expected " + std::to_string(item.expected_version));
      }
      return Status::OK();
    case workload::ItemType::kCheckout: {
      const std::vector<std::string>& chain = plan.expected[item.tenant];
      if (item.version >= chain.size()) {
        return Status::Internal(where + ": no reference for version " +
                                std::to_string(item.version));
      }
      if (response.payload.size() != 1 ||
          response.payload[0] != chain[item.version]) {
        return Status::Internal(
            where + " of version " + std::to_string(item.version) +
            " differs from the locally replayed document");
      }
      return Status::OK();
    }
    case workload::ItemType::kReduce: {
      XUPDATE_ASSIGN_OR_RETURN(std::string expected,
                               LocalReduce(item.pul_xml));
      if (response.payload.size() != 1 || response.payload[0] != expected) {
        return Status::Internal(where +
                                " differs from the local reduction");
      }
      return Status::OK();
    }
    case workload::ItemType::kStat:
      return Status::OK();
  }
  return Status::OK();
}

server::Message LoadgenRequest(const workload::Workload& workload,
                               const workload::WorkloadItem& item) {
  server::Message request;
  switch (item.type) {
    case workload::ItemType::kCommit:
      request.type = server::MsgType::kCommit;
      request.payload = {workload.tenants[item.tenant], item.pul_xml};
      break;
    case workload::ItemType::kCheckout:
      request.type = server::MsgType::kCheckout;
      request.a = item.version;
      request.payload = {workload.tenants[item.tenant]};
      break;
    case workload::ItemType::kReduce:
      request.type = server::MsgType::kReduce;
      request.payload = {item.pul_xml, "deterministic"};
      break;
    case workload::ItemType::kStat:
      request.type = server::MsgType::kStat;
      request.payload = {};
      break;
  }
  return request;
}

// Streams one connection's items (sender thread pipelines, this thread
// receives in order) and records per-type latency histograms.
void RunLoadgenConnection(const LoadgenPlan& plan,
                          LoadgenConnection* conn,
                          std::chrono::steady_clock::time_point start) {
  std::thread sender([&plan, conn, start] {
    for (const workload::WorkloadItem* item : conn->items) {
      if (plan.rate > 0) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            item->arrival_seconds)));
      }
      server::Message request = LoadgenRequest(plan.workload, *item);
      {
        std::unique_lock<std::mutex> lock(conn->mu);
        conn->cv.wait(lock, [&plan, conn] {
          return conn->in_flight.size() < plan.window ||
                 !conn->failure.ok();
        });
        if (!conn->failure.ok()) break;
        conn->in_flight.emplace_back(item,
                                     std::chrono::steady_clock::now());
      }
      conn->cv.notify_all();
      Status sent = conn->client.Send(request);
      if (!sent.ok()) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->failure.ok()) conn->failure = sent;
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
    const workload::WorkloadItem* item = nullptr;
    std::chrono::steady_clock::time_point sent_at;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->cv.wait(lock, [conn] {
        return !conn->in_flight.empty() || conn->send_done ||
               !conn->failure.ok();
      });
      if (conn->in_flight.empty()) break;
      item = conn->in_flight.front().first;
      sent_at = conn->in_flight.front().second;
      conn->in_flight.pop_front();
    }
    conn->cv.notify_all();  // window slot freed for the sender
    Result<server::Message> response = conn->client.Receive();
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - sent_at)
                         .count();
    if (!response.ok()) {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->failure.ok()) {
        conn->failure = Status::IoError(
            std::string("lost connection awaiting ") +
            LoadgenItemName(item->type) + " response (item #" +
            std::to_string(item->id) + "): " + response.status().message());
      }
      break;
    }
    if (plan.metrics != nullptr) {
      plan.metrics->RecordDuration(std::string("loadgen.") +
                                       LoadgenItemName(item->type) +
                                       ".seconds",
                                   seconds);
      plan.metrics->AddCounter(std::string("loadgen.") +
                               LoadgenItemName(item->type) + ".count");
    }
    if (response->type == server::MsgType::kBusy) {
      std::lock_guard<std::mutex> lock(conn->mu);
      ++conn->busy;
    }
    Status verified = VerifyLoadgenResponse(plan, *item, *response);
    if (!verified.ok()) {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->failure.ok()) conn->failure = verified;
      break;
    }
  }
  sender.join();
}

Status CmdLoadgen(const Args& args, std::ostream& out) {
  XUPDATE_RETURN_IF_ERROR(RequireFlags(args, {"socket"}));
  const std::string socket_path = args.Get("socket");
  workload::WorkloadOptions wopts;
  XUPDATE_ASSIGN_OR_RETURN(int64_t tenants,
                           ParseFlagInt(args, "tenants", 2, 1, 64));
  wopts.num_tenants = static_cast<size_t>(tenants);
  XUPDATE_ASSIGN_OR_RETURN(int64_t items,
                           ParseFlagInt(args, "items", 64, 1, 1000000));
  wopts.num_items = static_cast<size_t>(items);
  XUPDATE_ASSIGN_OR_RETURN(int64_t ops,
                           ParseFlagInt(args, "ops-per-pul", 8, 1, 10000));
  wopts.ops_per_pul = static_cast<size_t>(ops);
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t doc_bytes,
      ParseFlagInt(args, "doc-bytes", 1 << 14, 256, 1 << 26));
  wopts.doc_bytes = static_cast<size_t>(doc_bytes);
  XUPDATE_ASSIGN_OR_RETURN(wopts.zipf_theta,
                           ParseFlagDouble(args, "zipf-theta", 0.99, 0, 16));
  XUPDATE_ASSIGN_OR_RETURN(wopts.arrival_rate,
                           ParseFlagDouble(args, "rate", 0, 0, 1e9));
  XUPDATE_ASSIGN_OR_RETURN(
      wopts.commit_weight,
      ParseFlagDouble(args, "commit-weight", wopts.commit_weight, 0, 1e6));
  XUPDATE_ASSIGN_OR_RETURN(wopts.checkout_weight,
                           ParseFlagDouble(args, "checkout-weight",
                                           wopts.checkout_weight, 0, 1e6));
  XUPDATE_ASSIGN_OR_RETURN(
      wopts.reduce_weight,
      ParseFlagDouble(args, "reduce-weight", wopts.reduce_weight, 0, 1e6));
  XUPDATE_ASSIGN_OR_RETURN(
      wopts.stat_weight,
      ParseFlagDouble(args, "stat-weight", wopts.stat_weight, 0, 1e6));
  XUPDATE_ASSIGN_OR_RETURN(int64_t seed,
                           ParseFlagInt(args, "seed", 42, 0, INT64_MAX));
  wopts.seed = static_cast<uint64_t>(seed);
  XUPDATE_ASSIGN_OR_RETURN(int64_t connections,
                           ParseFlagInt(args, "connections", 1, 1, 64));
  XUPDATE_ASSIGN_OR_RETURN(int64_t window,
                           ParseFlagInt(args, "window", 16, 1, 4096));
  XUPDATE_ASSIGN_OR_RETURN(int64_t verify,
                           ParseFlagInt(args, "verify", 0, 0, 1));
  XUPDATE_ASSIGN_OR_RETURN(int64_t shutdown,
                           ParseFlagInt(args, "shutdown", 0, 0, 1));
  if (connections > tenants) connections = tenants;

  XUPDATE_ASSIGN_OR_RETURN(workload::Workload workload,
                           workload::GenerateWorkload(wopts));
  Metrics metrics;
  LoadgenPlan plan;
  plan.verify = verify != 0;
  plan.rate = wopts.arrival_rate;
  plan.window = static_cast<size_t>(window);
  plan.metrics = &metrics;

  // Local one-shot reference: replay each tenant's commit chain and keep
  // the store-canonical bytes of every version. This is the exact
  // pipeline `xupdate store commit/checkout` runs, so matching bytes
  // here is byte-identity with the one-shot CLI.
  if (plan.verify) {
    plan.expected.resize(workload.tenants.size());
    std::vector<xml::Document> docs;
    docs.reserve(workload.tenants.size());
    for (size_t t = 0; t < workload.tenants.size(); ++t) {
      XUPDATE_ASSIGN_OR_RETURN(xml::Document doc,
                               xml::ParseDocument(workload.initial_xml[t]));
      XUPDATE_ASSIGN_OR_RETURN(
          std::string bytes, store::VersionStore::SerializeAnnotated(doc));
      plan.expected[t].push_back(std::move(bytes));
      docs.push_back(std::move(doc));
    }
    for (const workload::WorkloadItem& item : workload.items) {
      if (item.type != workload::ItemType::kCommit) continue;
      XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(item.pul_xml));
      XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&docs[item.tenant], pul));
      XUPDATE_ASSIGN_OR_RETURN(std::string bytes,
                               store::VersionStore::SerializeAnnotated(
                                   docs[item.tenant]));
      plan.expected[item.tenant].push_back(std::move(bytes));
    }
  }
  plan.workload = std::move(workload);

  // Tenants are partitioned round-robin across connections, so each
  // tenant's requests stay FIFO on one connection (deterministic
  // versions) while commits from different connections coalesce in the
  // server's group-commit batch.
  std::vector<std::unique_ptr<LoadgenConnection>> conns;
  for (int64_t c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<LoadgenConnection>());
    XUPDATE_ASSIGN_OR_RETURN(conns.back()->client,
                             server::Client::Connect(socket_path));
    for (size_t t = c; t < plan.workload.tenants.size();
         t += static_cast<size_t>(connections)) {
      conns.back()->tenants.push_back(t);
    }
  }
  for (const workload::WorkloadItem& item : plan.workload.items) {
    conns[item.tenant % conns.size()]->items.push_back(&item);
  }
  // Open every tenant before the clock starts (create, or reopen a
  // store left by an earlier run — but a non-empty store breaks the
  // deterministic version numbering --verify checks).
  for (std::unique_ptr<LoadgenConnection>& conn : conns) {
    for (size_t t : conn->tenants) {
      Result<uint64_t> head =
          conn->client.Open(plan.workload.tenants[t],
                            plan.workload.initial_xml[t]);
      if (!head.ok() &&
          head.status().code() == StatusCode::kInvalidArgument) {
        head = conn->client.Open(plan.workload.tenants[t], "");
      }
      if (!head.ok()) return head.status();
      if (plan.verify && *head != 0) {
        return Status::InvalidArgument(
            "tenant " + plan.workload.tenants[t] + " already has " +
            std::to_string(*head) +
            " versions; --verify 1 needs a fresh data dir");
      }
    }
  }

  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  for (std::unique_ptr<LoadgenConnection>& conn : conns) {
    LoadgenConnection* raw = conn.get();
    raw->worker = std::thread(
        [&plan, raw, start] { RunLoadgenConnection(plan, raw, start); });
  }
  Status failure;
  uint64_t busy = 0;
  for (std::unique_ptr<LoadgenConnection>& conn : conns) {
    conn->worker.join();
    busy += conn->busy;
    if (failure.ok() && !conn->failure.ok()) failure = conn->failure;
  }
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  XUPDATE_RETURN_IF_ERROR(failure);

  // Final head check: every tenant's head document must equal the local
  // replay byte for byte. --dump-head also writes each head to
  // <dir>/<tenant>.head.xml so CI can diff it against what the one-shot
  // `xupdate store checkout` prints for the same data dir.
  const bool dump_head = args.Has("dump-head");
  if (plan.verify || dump_head) {
    for (std::unique_ptr<LoadgenConnection>& conn : conns) {
      for (size_t t : conn->tenants) {
        XUPDATE_ASSIGN_OR_RETURN(
            std::string head_xml,
            conn->client.Checkout(plan.workload.tenants[t], 0,
                                  /*head=*/true));
        if (plan.verify && head_xml != plan.expected[t].back()) {
          return Status::Internal("head checkout of tenant " +
                                  plan.workload.tenants[t] +
                                  " differs from the local replay");
        }
        if (dump_head) {
          XUPDATE_RETURN_IF_ERROR(EnsureDirectory(args.Get("dump-head")));
          XUPDATE_RETURN_IF_ERROR(WriteFileAtomic(
              args.Get("dump-head") + "/" + plan.workload.tenants[t] +
                  ".head.xml",
              head_xml));
        }
      }
    }
    if (plan.verify) {
      out << "verify ok: every response matched the local one-shot "
             "replay\n";
    }
  }

  out << "loadgen: " << plan.workload.items.size() << " items over "
      << conns.size() << " connection(s) in " << wall << " s";
  if (busy > 0) out << " (" << busy << " commits shed with kBusy)";
  out << "\n";
  for (const char* kind : {"commit", "checkout", "reduce", "stat"}) {
    Metrics::TimerSnapshot snap =
        metrics.timer(std::string("loadgen.") + kind + ".seconds");
    if (snap.count == 0) continue;
    std::ostringstream line;
    line << "  " << kind << ": n=" << snap.count << " p50=" << snap.p50
         << "s p95=" << snap.p95 << "s p99=" << snap.p99
         << "s max=" << snap.max << "s";
    out << line.str() << "\n";
  }
  XUPDATE_RETURN_IF_ERROR(MaybeDumpMetrics(args, metrics, out));
  if (args.Has("server-metrics")) {
    XUPDATE_ASSIGN_OR_RETURN(std::string json, conns.front()->client.Stat());
    XUPDATE_RETURN_IF_ERROR(
        WriteFileAtomic(args.Get("server-metrics"), json));
    out << "server metrics written to " << args.Get("server-metrics")
        << "\n";
  }
  if (shutdown != 0) {
    XUPDATE_RETURN_IF_ERROR(conns.front()->client.Shutdown());
    out << "server shutdown requested\n";
  }
  return Status::OK();
}

// `xupdate sim`: the P2P convergence simulator (branch/sim.h). Flags:
// --writers N, --schedules N, --events N, --ops-per-edit N,
// --sync-prob P, --seed S, --xmark-bytes N, --scratch DIR,
// --verify-stores.
Status CmdSim(const Args& args, std::ostream& out) {
  branch::SimOptions options;
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t writers,
      ParseFlagInt(args, "writers", options.writers, 1, 64));
  options.writers = static_cast<int>(writers);
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t schedules,
      ParseFlagInt(args, "schedules",
                   static_cast<int64_t>(options.schedules), 1, INT64_MAX));
  options.schedules = static_cast<size_t>(schedules);
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t events, ParseFlagInt(args, "events",
                                   static_cast<int64_t>(options.events), 0,
                                   INT64_MAX));
  options.events = static_cast<size_t>(events);
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t ops, ParseFlagInt(args, "ops-per-edit",
                                static_cast<int64_t>(options.ops_per_edit),
                                1, INT64_MAX));
  options.ops_per_edit = static_cast<size_t>(ops);
  XUPDATE_ASSIGN_OR_RETURN(
      options.sync_probability,
      ParseFlagDouble(args, "sync-prob", options.sync_probability, 0.0,
                      1.0));
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t seed,
      ParseFlagInt(args, "seed", static_cast<int64_t>(options.seed), 0,
                   INT64_MAX));
  options.seed = static_cast<uint64_t>(seed);
  XUPDATE_ASSIGN_OR_RETURN(
      int64_t xmark_bytes,
      ParseFlagInt(args, "xmark-bytes",
                   static_cast<int64_t>(options.xmark_bytes), 256,
                   INT64_MAX));
  options.xmark_bytes = static_cast<size_t>(xmark_bytes);
  options.verify_stores = args.Has("verify-stores");
  if (args.Has("scratch")) options.scratch_dir = args.Get("scratch");
  Metrics metrics;
  options.metrics = &metrics;
  XUPDATE_ASSIGN_OR_RETURN(branch::SimReport report,
                           branch::RunSim(options));
  out << "sim: " << report.converged << "/" << report.schedules
      << " schedules converged (writers=" << options.writers
      << " events=" << options.events << " seed=" << options.seed
      << ")\n";
  out << "  edits: " << report.edits << ", merges: " << report.merges
      << " (" << report.fast_forwards << " fast-forward, "
      << report.full_merges << " full), conflicts seen: "
      << report.conflicts_auto_solved << "\n";
  out << "  digest: " << report.digest << "\n";
  for (const branch::ScheduleResult& failure : report.failures) {
    out << "  FAILED seed " << failure.seed << ": " << failure.error
        << "\n";
  }
  XUPDATE_RETURN_IF_ERROR(MaybeDumpMetrics(args, metrics, out));
  if (report.converged != report.schedules) {
    return Status::Internal(
        std::to_string(report.schedules - report.converged) +
        " schedules failed to converge");
  }
  return Status::OK();
}

constexpr char kUsage[] =
    "usage: xupdate <command> [flags] [operands]\n"
    "commands: generate produce apply reduce aggregate integrate\n"
    "          reconcile invert diff query show stats equivalent\n"
    "          sidecar-save sidecar-load analyze explain store\n"
    "          serve loadgen stat top sim\n"
    "see tools/cli.h for per-command flags\n";

}  // namespace

Status RunCli(const std::vector<std::string>& argv, std::ostream& out) {
  if (argv.empty()) {
    out << kUsage;
    return Status::InvalidArgument("missing command");
  }
  XUPDATE_ASSIGN_OR_RETURN(Args args, ParseArgs(argv, 1));
  const std::string& command = argv[0];
  if (command == "generate") return CmdGenerate(args, out);
  if (command == "produce") return CmdProduce(args, out);
  if (command == "apply") return CmdApply(args, out);
  if (command == "reduce") return CmdReduce(args, out);
  if (command == "aggregate") return CmdAggregate(args, out);
  if (command == "integrate") return CmdIntegrate(args, out);
  if (command == "reconcile") return CmdReconcile(args, out);
  if (command == "invert") return CmdInvert(args, out);
  if (command == "query") return CmdQuery(args, out);
  if (command == "diff") return CmdDiff(args, out);
  if (command == "sidecar-save") return CmdSidecarSave(args, out);
  if (command == "sidecar-load") return CmdSidecarLoad(args, out);
  if (command == "equivalent") return CmdEquivalent(args, out);
  if (command == "show") return CmdShow(args, out);
  if (command == "stats") return CmdStats(args, out);
  if (command == "analyze") return CmdAnalyze(args, out);
  if (command == "explain") return CmdExplain(args, out);
  if (command == "store") return CmdStore(args, out);
  if (command == "serve") return CmdServe(args, out);
  if (command == "loadgen") return CmdLoadgen(args, out);
  if (command == "stat") return CmdStat(args, out);
  if (command == "top") return CmdTop(args, out);
  if (command == "sim") return CmdSim(args, out);
  out << kUsage;
  return Status::InvalidArgument("unknown command \"" + command + "\"");
}

}  // namespace xupdate::tools
