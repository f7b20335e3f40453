#include "bench.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>
#include <unordered_map>

namespace xupdate::perfbench {

double Samples::total_finite_ms() const {
  double total = 0.0;
  for (const auto& [cls, values] : by_class_) {
    for (double v : values) {
      if (std::isfinite(v)) total += v;
    }
  }
  return total;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || !std::isfinite(values[hi])) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::pair<double, double> TailQuantile(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  for (double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (n * (1.0 - q) >= 10.0) return {q, Quantile(values, q)};
  }
  return {0.0, 0.0};
}

double ClassMedianGeoMean(const Samples& samples) {
  std::vector<double> medians;
  for (const auto& [cls, values] : samples.by_class()) {
    medians.push_back(Median(values));
  }
  return GeometricMean(medians);
}

namespace {

// One run of the reference task; returns a value derived from its work.
uint64_t ReferenceTask() {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  std::vector<uint64_t> values(1 << 18);
  for (uint64_t& v : values) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  std::sort(values.begin(), values.end());
  std::unordered_map<uint64_t, std::string> map;
  for (size_t i = 0; i < values.size(); i += 4) {
    map.emplace(values[i], std::to_string(values[i]));
  }
  uint64_t found = 0;
  for (size_t i = 0; i < values.size(); i += 3) {
    auto it = map.find(values[i]);
    if (it != map.end()) found += it->second.size();
  }
  // Fresh pages, as the engines' large per-request allocations take.
  std::vector<uint8_t> pages(32 << 20, static_cast<uint8_t>(found));
  return found + pages[found % pages.size()];
}

}  // namespace

void SpeedReference::Sample(int times) {
  for (int t = 0; t < times; ++t) {
    const Clock::time_point t0 = Clock::now();
    checksum_ += ReferenceTask();
    samples_.push_back(MsBetween(t0, Clock::now()));
  }
}

double SpeedReference::Factor() const {
  const double median = Median(samples_);
  return median > 0 ? kNominalReferenceMs / median : 1.0;
}

const std::vector<std::string>& TableRows() {
  static const std::vector<std::string> rows = {
      "server.admit_wait_ms", "server.batch_wait_ms", "server.codec_ms",
      "store.validate_ms",    "store.append_ms",      "store.fsync_ms",
      "store.apply_ms",       "store.checkout_ms",    "store.merge_commit_ms",
      "xml.serialize_ms",     "pul.parse_ms",         "pul.serialize_ms",
      "core.reduce_ms",       "core.reduce_par2_ms",  "core.integrate_ms",
      "core.aggregate_ms",    "core.fold_ms",         "core.reconcile_ms",
      "branch.other_ms"};
  return rows;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"total_ms", "ms"},
      {"other_ms", "ms"},
      {"trace_overhead", "ratio"},
      {"server.codec_ms", "ms"},
      {"server.decode_us", "us"},
      {"server.encode_us", "us"},
      {"store.validate_ms", "ms"},
      {"store.append_ms", "ms"},
      {"store.fsync_ms", "ms"},
      {"store.checkout_ms", "ms"},
      {"store.merge_commit_ms", "ms"},
      {"store.snapshot_write_ms", "ms"},
      {"store.snapshot_read_ms", "ms"},
      {"store.replayed_frames_per_checkout", "count"},
      {"store.wal_bytes_per_user_byte", "ratio"},
      {"store.snapshot_bytes_per_user_byte", "ratio"},
      {"store.fsync_count", "count"},
      {"xml.serialize_ms", "ms"},
      {"xml.parse_ms", "ms"},
      {"xml.parse_mb_per_s", "MB/s"},
      {"pul.parse_ms", "ms"},
      {"pul.serialize_ms", "ms"},
      {"pul.parse_ops_per_s", "1/s"},
      {"core.reduce_ms", "ms"},
      {"core.reduce_par2_ms", "ms"},
      {"core.reduce_partition_ms", "ms"},
      {"core.reduce_shards", "count"},
      {"core.reduce_rule_apps_per_op", "ratio"},
      {"core.integrate_ms", "ms"},
      {"core.integrate_conflicts", "count"},
      {"core.aggregate_ms", "ms"},
      {"core.fold_ms", "ms"},
      {"core.reconcile_ms", "ms"},
      {"branch.other_ms", "ms"},
      {"branch.merge_ms", "ms"},
      {"branch.ff_merge_ms", "ms"},
      {"branch.fold_fallback_count", "count"},
  };
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& ServeLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"server.admit_wait_ms", "ms"},     {"server.batch_wait_ms", "ms"},
      {"server.commits_per_batch", "count"},
      {"server.commits_per_fsync", "count"},
      {"server.busy_count", "count"},      {"store.apply_ms", "ms"},
      {"pul.apply_ms", "ms"},              {"gen_late_p99_ms", "ms"},
  };
  return metrics;
}

namespace {

std::string Fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace

void EmitLayerTable(const LayerTable& traced, double untraced_total_ms,
                    bool serve_rows, RunResult* result) {
  double rows_sum = 0.0;
  for (const std::string& row : TableRows()) {
    auto it = traced.values.find(row);
    if (it != traced.values.end()) rows_sum += it->second;
  }
  std::map<std::string, double> values = traced.values;
  values["total_ms"] = traced.total_ms;
  values["other_ms"] = traced.total_ms - rows_sum;
  values["trace_overhead"] =
      untraced_total_ms > 0 ? traced.total_ms / untraced_total_ms : 0.0;
  result->Line("layer table (traced pass, ms per request; rows + other_ms "
               "= total_ms):");
  for (const std::string& row : TableRows()) {
    auto it = values.find(row);
    if (it == values.end() || it->second == 0.0) continue;
    result->Line("  " + row + " " + Fixed(it->second, 4) + " (" +
                 Fixed(100.0 * it->second / traced.total_ms, 1) + "%)");
  }
  result->Line("  other_ms " + Fixed(values["other_ms"], 4) + " (" +
               Fixed(100.0 * values["other_ms"] / traced.total_ms, 1) + "%)");
  result->Line("  total_ms " + Fixed(traced.total_ms, 4) +
               "  trace_overhead " + Fixed(values["trace_overhead"], 4) +
               " (untraced total_ms " + Fixed(untraced_total_ms, 4) + ")");
  auto emit = [&values, result](const auto& list) {
    for (const auto& [name, unit] : list) {
      auto it = values.find(name);
      result->metrics[name] =
          Metric{it == values.end() ? 0.0 : it->second, unit};
    }
  };
  emit(LayerMetrics());
  if (serve_rows) emit(ServeLayerMetrics());
}

void EmitEndToEnd(const SpeedReference& speed, double setup_s,
                  const Samples& samples, double cpu_ms_per_req,
                  RunResult* result) {
  const double f = speed.Factor();
  const double p50 = ClassMedianGeoMean(samples);
  result->metrics["setup_s"] = {setup_s * f, "s"};
  result->metrics["p50_ms"] = {p50 * f, "ms"};
  result->metrics["cpu_ms_per_req"] = {cpu_ms_per_req * f, "ms"};
  result->Line("  speed reference " + Fixed(speed.median_ms(), 3) +
               " ms (nominal " + Fixed(kNominalReferenceMs, 1) +
               "), scale " + Fixed(f, 4) + "; unscaled setup_s " +
               Fixed(setup_s, 4) + " p50_ms " + Fixed(p50, 4) +
               " cpu_ms_per_req " + Fixed(cpu_ms_per_req, 4));
}

void ReportClasses(const Samples& samples, RunResult* result) {
  for (const auto& [cls, values] : samples.by_class()) {
    std::string line = "  " + cls + "_p50_ms " + Fixed(Median(values), 4) +
                       " (n=" + std::to_string(values.size()) + ")";
    auto [q, tail] = TailQuantile(values);
    if (q > 0.5) {
      line += "  " + cls + "_p" + std::to_string(static_cast<int>(q * 100)) +
              "_ms " + Fixed(tail, 4);
    }
    result->Line(line);
  }
}

ProcStats ReadProcStats(pid_t pid) {
  const std::string base =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  ProcStats stats;
  std::ifstream stat_file(base + "/stat");
  std::string stat((std::istreambuf_iterator<char>(stat_file)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line, i.e. 12 and 13 after ")".
  size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14 || i == 15) ticks += std::strtod(field.c_str(), nullptr);
    }
    stats.cpu_seconds = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  std::ifstream status(base + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      stats.peak_rss_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return stats;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t DirBytes(const std::string& dir, const std::string& prefix) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (!prefix.empty() &&
        entry.path().filename().string().rfind(prefix, 0) != 0) {
      continue;
    }
    total += entry.file_size(ec);
  }
  return total;
}

uint64_t CounterDelta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const std::string& name) {
  auto get = [&name](const MetricsSnapshot& s) -> uint64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

double SecondsDelta(const MetricsSnapshot& before,
                    const MetricsSnapshot& after, const std::string& name) {
  auto get = [&name](const MetricsSnapshot& s) -> double {
    auto it = s.timers.find(name);
    return it == s.timers.end() ? 0.0 : it->second.seconds;
  };
  return get(after) - get(before);
}

namespace {

// Prints a JSON number with every digit the double carries.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage(const char* message) {
  std::cerr << "xbench: " << message
            << "\nusage: xbench --workload serve_mix|reason_bulk|"
               "branch_merge --seed N --seconds S --trace 0|1 "
               "--xupdate PATH [--smoke 1]\n";
  return 2;
}

}  // namespace

}  // namespace xupdate::perfbench

int main(int argc, char** argv) {
  using namespace xupdate::perfbench;
  RunOptions options;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return Usage("flags come in --name value pairs");
    }
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("flags come in --name value pairs");
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "xupdate"}) {
    if (args.count(required) == 0) return Usage("missing a required flag");
  }
  options.workload = args["workload"];
  options.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  options.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  options.trace = args["trace"] == "1";
  options.smoke = args.count("smoke") != 0 && args["smoke"] == "1";
  options.xupdate = args["xupdate"];
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  RunResult result;
  try {
    if (options.workload == "serve_mix") {
      result = RunServeMix(options);
    } else if (options.workload == "reason_bulk") {
      result = RunReasonBulk(options);
    } else if (options.workload == "branch_merge") {
      result = RunBranchMerge(options);
    } else {
      return Usage("unknown workload");
    }
  } catch (const BenchError& e) {
    std::cerr << "xbench: " << e.kind() << " error in " << options.workload
              << " (seed " << options.seed << "): " << e.what() << "\n";
    return e.kind() == "setup" ? 3 : 1;
  }

  const bool correct = result.checks > 0 && result.mismatch_count == 0;
  for (const std::string& line : result.report) std::cout << line << "\n";
  std::cout << "correctness: " << result.checks << " checks, "
            << result.mismatch_count << " mismatches\n";
  for (const std::string& m : result.mismatches) {
    std::cout << "  mismatch: " << m << "\n";
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
