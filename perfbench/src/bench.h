#ifndef XUPDATE_PERFBENCH_BENCH_H_
#define XUPDATE_PERFBENCH_BENCH_H_

// Shared plumbing of the end-to-end benchmark harness: run options, the
// result every workload fills, raw-sample statistics, process and
// directory probes, and the layer-table bookkeeping.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"

namespace xupdate::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// num / den, or 0 when there is nothing to divide by.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Wall time of one call, in milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return MsBetween(t0, Clock::now());
}

// A failure that ends the run without a result. `kind` names the stage
// ("setup", "run", ...), so a generator defect reads as a setup error
// rather than as a crash.
class BenchError : public std::runtime_error {
 public:
  BenchError(std::string kind, const std::string& message)
      : std::runtime_error(message), kind_(std::move(kind)) {}
  const std::string& kind() const { return kind_; }

 private:
  std::string kind_;
};

// Unwraps a Result or throws a BenchError naming `what`.
template <typename T>
T Must(Result<T> result, const std::string& kind, const std::string& what) {
  if (!result.ok()) {
    throw BenchError(kind, what + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

inline void MustOk(const Status& status, const std::string& kind,
                   const std::string& what) {
  if (!status.ok()) throw BenchError(kind, what + ": " + status.ToString());
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs for the benchmark's own self-test.
  bool smoke = false;
  // The `xupdate` binary the daemon workloads start.
  std::string xupdate;
};

// Latency samples (ms) per request class. A failed or refused request
// is recorded as +infinity, so it misses every latency limit.
class Samples {
 public:
  void Add(const std::string& cls, double ms) { by_class_[cls].push_back(ms); }
  const std::map<std::string, std::vector<double>>& by_class() const {
    return by_class_;
  }
  double total_finite_ms() const;

 private:
  std::map<std::string, std::vector<double>> by_class_;
};

// Linear-interpolated quantile of raw samples (q in [0, 1]).
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double GeometricMean(const std::vector<double>& values);

// The highest of p99/p95/p90/p75/p50 with at least ten samples beyond
// it; returns {q, value}, or {0, 0} when not even the median qualifies.
std::pair<double, double> TailQuantile(const std::vector<double>& values);

// The geometric mean over request classes of each class's median —
// the workload's `p50_ms`.
double ClassMedianGeoMean(const Samples& samples);

// One printed metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

// The additive rows of a traced layer table, in print order. Each is
// milliseconds per request of the traced pass; `other_ms` is the total
// minus their sum.
const std::vector<std::string>& TableRows();

// Every per-layer metric name with its unit: the contents of
// BENCHMARK.json's per_layer list, printed by every traced run.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

// The commit-path rows only serve_mix has (admission, group commit,
// install, replay apply, generator lateness), printed by serve_mix only.
const std::vector<std::pair<std::string, std::string>>& ServeLayerMetrics();

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Correctness comparisons made after the timed window, and the ones
  // that did not match (any mismatch fails the run).
  uint64_t checks = 0;
  uint64_t mismatch_count = 0;
  std::vector<std::string> mismatches;  // the first few, for the report
  // Human-readable report lines, printed before the JSON result.
  std::vector<std::string> report;
  std::map<std::string, Metric> metrics;

  void Check(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++mismatch_count;
    if (mismatches.size() < 10) mismatches.push_back(what);
  }
  void Line(const std::string& line) { report.push_back(line); }
};

// One traced pass's layer table: row values (ms per request) plus the
// auxiliary per-layer metrics, keyed by the names of LayerMetrics().
struct LayerTable {
  double total_ms = 0.0;  // mean end-to-end ms per request
  std::map<std::string, double> values;
};

// Writes a finished table into `result` (every per-layer metric, zero
// where the workload does not enter that layer; the serve_mix rows too
// when `serve_rows`) and the printed table.
void EmitLayerTable(const LayerTable& traced, double untraced_total_ms,
                    bool serve_rows, RunResult* result);

// Appends the per-class latency report lines (sample count, p50, the
// highest tail percentile with ten samples beyond it).
void ReportClasses(const Samples& samples, RunResult* result);

// --- Process and disk probes ---

struct ProcStats {
  double cpu_seconds = 0.0;  // utime + stime
  double peak_rss_mb = 0.0;  // VmHWM
};
// pid 0 = this process.
ProcStats ReadProcStats(pid_t pid);
// CPU time of the calling thread.
double ThreadCpuSeconds();

// Total bytes of regular files under `dir` whose name passes `filter`
// (empty = every file).
uint64_t DirBytes(const std::string& dir, const std::string& prefix = "");

// Counter / timer-sum deltas between two registry snapshots.
uint64_t CounterDelta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const std::string& name);
double SecondsDelta(const MetricsSnapshot& before,
                    const MetricsSnapshot& after, const std::string& name);

// The host's speed, sampled through a run. Timings on a shared VM drift
// by tens of percent over minutes, in the same proportion across request
// classes and in CPU time as well as wall time. Each sample times a fixed
// task (sort, a hash map of strings, touching fresh pages) that shares no
// code with xupdate, so it cannot absorb a change to the code under test;
// the end-to-end metrics are scaled by kNominalReferenceMs over the run's
// median sample, i.e. reported at a fixed nominal host speed.
class SpeedReference {
 public:
  void Sample(int times = 1);
  // Multiply a run's times by this to express them at nominal speed.
  double Factor() const;
  double median_ms() const { return Median(samples_); }

 private:
  std::vector<double> samples_;
  uint64_t checksum_ = 0;  // keeps the task's lookups observable
};

// The reference sample's typical time on the 4-vCPU VM this benchmark
// was written on.
inline constexpr double kNominalReferenceMs = 60.0;

// `ms` measured at `from`'s host speed, expressed at `to`'s: how a traced
// run compares its untraced pass with its traced one on a drifting host.
inline double AtSpeedOf(double ms, const SpeedReference& from,
                        const SpeedReference& to) {
  return ms * from.Factor() / to.Factor();
}

// Writes the end-to-end metrics of an untraced run, scaled to nominal
// host speed, and a report line with the raw values.
void EmitEndToEnd(const SpeedReference& speed, double setup_s,
                  const Samples& samples, double cpu_ms_per_req,
                  RunResult* result);

// Number of set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 7;

// --- Workloads ---

RunResult RunServeMix(const RunOptions& options);
RunResult RunReasonBulk(const RunOptions& options);
RunResult RunBranchMerge(const RunOptions& options);

}  // namespace xupdate::perfbench

#endif  // XUPDATE_PERFBENCH_BENCH_H_
