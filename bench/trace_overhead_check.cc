// Disabled-tracer overhead gate. The observability hooks added to the
// reduction engine (lane null-checks in the rule loops, the tracer
// branch in the driver) must cost nothing when no tracer is attached.
// Reduce has one entry point, so the gate's reference leg is an A/A
// noise control: the default-options call (Reduce(pul)) timed against
// the same call with an explicit null-tracer options struct on the
// Fig. 6b reduction workload — interleaved, order alternated per
// trial, minimum-of-trials — failing (exit 1) beyond a 1% difference.
// A difference between two identical calls is measurement noise, so
// the gate bounds the noise the enabled-tracer ratio is read against. Any future change that makes
// the no-tracer configuration eagerly pay for tracing (unconditional
// lane or id-string building, a hot-loop emission that stops checking
// enabled()) lands on both sides' timings and on the separately
// reported enabled-tracer ratio in the JSON artifact.
//
// Not a Google-Benchmark binary on purpose: the check needs a hard
// verdict and a repo-root JSON artifact, not statistics.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/reduce.h"
#include "obs/trace.h"
#include "workload/pul_generator.h"

namespace {

constexpr size_t kDocMb = 2;
constexpr size_t kNumOps = 10000;
constexpr int kTrials = 15;
constexpr double kMaxOverhead = 0.01;

using Clock = std::chrono::steady_clock;

// One timed run; the result is verified and destructed inside the timed
// region so every measurement covers the identical allocation
// lifecycle.
template <typename Fn>
double TimedRun(Fn&& run, size_t* out_ops) {
  auto begin = Clock::now();
  {
    auto result = run();
    if (!result.ok()) {
      fprintf(stderr, "reduce failed: %s\n",
              result.status().ToString().c_str());
      exit(1);
    }
    *out_ops = result->size();
  }
  auto end = Clock::now();
  return std::chrono::duration<double>(end - begin).count();
}

}  // namespace

int main(int argc, char** argv) {
  using xupdate::core::Reduce;
  using xupdate::core::ReduceMode;
  using xupdate::core::ReduceOptions;

#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
  if (std::getenv("XUPDATE_ALLOW_DEBUG_BENCH") == nullptr) {
    fprintf(stderr,
            "refusing to gate on a Debug build; rebuild with "
            "-DCMAKE_BUILD_TYPE=Release or set "
            "XUPDATE_ALLOW_DEBUG_BENCH=1 to override\n");
    return 1;
  }
#endif

  const char* out_path = argc > 1 ? argv[1] : "BENCH_trace_overhead.json";

  const xupdate::bench::BenchDocument& fixture =
      xupdate::bench::XmarkFixture(kDocMb);
  xupdate::workload::PulGenerator gen(fixture.doc, fixture.labeling, 555);
  xupdate::workload::PulGenerator::PulOptions options;
  options.num_ops = kNumOps;
  options.reducible_fraction = 0.2;  // the Fig. 6b density
  auto pul = gen.Generate(options);
  if (!pul.ok()) {
    fprintf(stderr, "pul generation failed: %s\n",
            pul.status().ToString().c_str());
    return 1;
  }

  auto run_control = [&] { return Reduce(*pul); };
  auto run_disabled = [&] { return Reduce(*pul, ReduceOptions{}); };
  auto run_enabled = [&] {
    xupdate::obs::Tracer tracer;
    ReduceOptions opts;
    opts.tracer = &tracer;
    return Reduce(*pul, opts);
  };

  // Warm every path once (page in code and fixture memory), then
  // interleave trials with alternating order so drift and allocator
  // state hit both sides equally.
  size_t ops_a = 0;
  size_t ops_b = 0;
  size_t ops_c = 0;
  (void)TimedRun(run_control, &ops_a);
  (void)TimedRun(run_disabled, &ops_b);
  (void)TimedRun(run_enabled, &ops_c);
  if (ops_a != ops_b || ops_a != ops_c) {
    fprintf(stderr, "paths disagree: %zu vs %zu vs %zu ops\n", ops_a,
            ops_b, ops_c);
    return 1;
  }

  double control_min = 1e300;
  double disabled_min = 1e300;
  double enabled_min = 1e300;
  for (int trial = 0; trial < kTrials; ++trial) {
    if (trial % 2 == 0) {
      control_min = std::min(control_min, TimedRun(run_control, &ops_a));
      disabled_min = std::min(disabled_min, TimedRun(run_disabled, &ops_b));
    } else {
      disabled_min = std::min(disabled_min, TimedRun(run_disabled, &ops_b));
      control_min = std::min(control_min, TimedRun(run_control, &ops_a));
    }
    enabled_min = std::min(enabled_min, TimedRun(run_enabled, &ops_c));
  }

  double overhead = disabled_min / control_min - 1.0;
  double enabled_ratio = enabled_min / control_min;
  bool pass = disabled_min <= control_min * (1.0 + kMaxOverhead);

  char json[512];
  snprintf(json, sizeof(json),
           "{\"workload\":\"fig6b-reduction\",\"build_type\":\"%s\","
           "\"ops\":%zu,\"trials\":%d,"
           "\"control_min_seconds\":%.9f,\"disabled_min_seconds\":%.9f,"
           "\"enabled_min_seconds\":%.9f,\"disabled_overhead\":%.6f,"
           "\"enabled_ratio\":%.3f,\"budget\":%.6f,\"pass\":%s}\n",
           build_type, kNumOps, kTrials, control_min, disabled_min,
           enabled_min, overhead, enabled_ratio, kMaxOverhead,
           pass ? "true" : "false");
  FILE* f = fopen(out_path, "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  fputs(json, f);
  fclose(f);
  fputs(json, stdout);
  if (!pass) {
    fprintf(stderr,
            "disabled-tracer overhead %.2f%% exceeds the %.0f%% budget\n",
            overhead * 100.0, kMaxOverhead * 100.0);
    return 1;
  }
  return 0;
}
