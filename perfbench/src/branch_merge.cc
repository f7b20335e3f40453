// branch_merge: VersionStore + branch::Merge in process (the daemon has
// no merge verb), on one ~1 MB XMark store with the default snapshot
// cadence and fsync=always. Each round forks two branches from main,
// commits k in {1, 4} generated PULs on each side (k alternates by
// round), runs a full Merge of the pair, a fast-forward Merge of one
// side into main, then checks out random historical versions of main.
// PUL generation happens between the timed calls and is not timed.
//
// Rounds start on a fixed period, so a run always holds the same number
// of rounds: the store (whose branch heads stay resident) reaches the
// same size in every run, whatever the speed of the code under test.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "branch/merge.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "label/labeling.h"
#include "pul/pul_io.h"
#include "store/version.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xupdate::perfbench {

namespace {

namespace fs = std::filesystem;

struct Sizes {
  size_t doc_bytes;
  size_t ops_per_pul;
  size_t checkouts_per_round;
  double round_period_s;
};

constexpr Sizes kFullSizes = {1 << 20, 20, 4, 1.5};
constexpr Sizes kSmokeSizes = {128 << 10, 5, 2, 0.1};
// Inserted-node ids come from disjoint blocks so concurrent branches
// never collide.
constexpr uint64_t kIdBlock = 1 << 16;

struct CommitRecord {
  std::string branch;
  uint64_t expected = 0;
  uint64_t got = 0;
};

struct CheckoutRecord {
  uint64_t version = 0;
  uint32_t crc = 0;
  size_t bytes = 0;
};

// Per-layer accumulators of the traced pass (milliseconds).
struct Layers {
  double validate = 0, append = 0, fsync = 0;  // branch commits
  double checkout = 0, serialize = 0;          // user checkouts
  double merge_checkout = 0, fold = 0, reconcile = 0, merge_commit = 0;
  double branch_other = 0;
  double merge_total = 0, ff_total = 0;
  uint64_t merges = 0;  // full merges; each is followed by one ff merge
  double pul_parse = 0;  // ParsePul of the committed PULs' text
  uint64_t pul_parse_ops = 0;
  double snapshot_read = 0, parse = 0;
  uint64_t parse_bytes = 0;
  uint64_t checkouts = 0, replayed = 0;
};

double DeltaMs(const MetricsSnapshot& b, const MetricsSnapshot& a,
               std::initializer_list<const char*> names) {
  double s = 0.0;
  for (const char* name : names) s += SecondsDelta(b, a, name);
  return 1000.0 * s;
}

double FoldMs(const MetricsSnapshot& b, const MetricsSnapshot& a) {
  return DeltaMs(b, a,
                 {"aggregate.accumulate_seconds", "aggregate.assemble_seconds",
                  "reduce.partition_seconds", "reduce.rules_seconds",
                  "reduce.merge_seconds"});
}

double ReconcileMs(const MetricsSnapshot& b, const MetricsSnapshot& a) {
  return DeltaMs(b, a,
                 {"reconcile.solve_seconds", "reconcile.assemble_seconds",
                  "integrate.group_seconds", "integrate.detect_seconds",
                  "integrate.merge_seconds"});
}

struct Pass {
  double setup_seconds = 0.0;
  SpeedReference speed;
  Samples samples;
  double cpu_seconds = 0.0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t snap_bytes = 0;
  uint64_t disk_bytes = 0;
  double peak_rss_mb = 0.0;
  uint64_t rounds = 0;
  Layers layers;
  MetricsSnapshot before;
  MetricsSnapshot after;
};

uint64_t JournalBytes(const std::string& dir) {
  return DirBytes(dir, "wal") + DirBytes(dir, "branch");
}

class Runner {
 public:
  Runner(const RunOptions& options, const std::string& annotated,
         bool traced)
      : options_(options),
        sizes_(options.smoke ? kSmokeSizes : kFullSizes),
        annotated_(annotated),
        traced_(traced),
        rng_(options.seed * 7) {
    store_options_.metrics = traced ? &metrics_ : nullptr;
    merge_options_.metrics = traced ? &metrics_ : nullptr;
  }

  Pass Run(double seconds, int setups, RunResult* result);

 private:
  // Times fn (wall and thread CPU) as one request of class `cls`; fn
  // returns whether the request succeeded. A failed request counts as
  // failed and is recorded as missing every latency limit.
  template <typename Fn>
  double Timed(const std::string& cls, Fn&& fn) {
    bool ok = false;
    const double cpu0 = ThreadCpuSeconds();
    const double ms = TimeMs([&] { ok = fn(); });
    pass_.cpu_seconds += ThreadCpuSeconds() - cpu0;
    pass_.samples.Add(cls, ok ? ms : std::numeric_limits<double>::infinity());
    ++pass_.ops;
    if (!ok) ++pass_.failed;
    return ms;
  }

  MetricsSnapshot Snap() const {
    return traced_ ? metrics_.Snapshot() : MetricsSnapshot{};
  }

  void SetUp(int setups);
  void Round(uint64_t r, RunResult* result);
  void Commit(const std::string& branch, uint64_t fork, size_t k);
  void Checkout(uint64_t version);
  void VerifyAll(RunResult* result);

  const RunOptions& options_;
  const Sizes& sizes_;
  const std::string& annotated_;
  const bool traced_;
  Rng rng_;
  Metrics metrics_;
  store::StoreOptions store_options_;
  branch::MergeOptions merge_options_;
  std::optional<store::VersionStore> store_;
  std::string dir_;
  uint64_t next_id_base_ = 0;
  uint64_t gen_seed_ = 0;
  Pass pass_;
  std::vector<CommitRecord> commits_;
  std::vector<CheckoutRecord> checkouts_;
  std::map<uint64_t, uint32_t> main_crc_;  // main version -> expected crc
  std::vector<std::pair<std::string, std::string>> merged_pairs_;
  // Requests that returned an error (reported, and counted as failed).
  std::vector<std::string> failures_;
};

void Runner::SetUp(int setups) {
  std::vector<double> seconds;
  const std::string base = traced_ ? "traced-store" : "store";
  for (int i = 0; i < setups; ++i) {
    store_.reset();
    dir_ = base + "-" + std::to_string(i);
    std::error_code ec;
    fs::remove_all(dir_, ec);
    const Clock::time_point t0 = Clock::now();
    MustOk(store::VersionStore::Init(dir_, annotated_, store_options_), "setup",
           "VersionStore::Init");
    store_.emplace(Must(store::VersionStore::Open(dir_, store_options_),
                        "setup", "VersionStore::Open"));
    seconds.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  pass_.setup_seconds = Median(seconds);
  next_id_base_ = 0;
  gen_seed_ = options_.seed * 1000003;
  // Version 0's reference bytes: the initial document through the
  // store-canonical serializer, independent of the store's files.
  xml::Document doc = Must(xml::ParseDocument(annotated_), "setup",
                           "parse initial document");
  main_crc_[0] = Crc32c(Must(store::VersionStore::SerializeAnnotated(doc),
                             "setup", "serialize initial document"));
}

void Runner::Commit(const std::string& branch, uint64_t fork, size_t k) {
  uint64_t expected = fork + 1;
  for (size_t i = 0; i < k; ++i) {
    const xml::Document* doc =
        Must(store_->BranchHeadDoc(branch), "run", "branch head");
    label::Labeling labeling = label::Labeling::Build(*doc);
    workload::PulGenerator gen(*doc, labeling, ++gen_seed_);
    workload::PulGenerator::PulOptions popts;
    popts.num_ops = sizes_.ops_per_pul;
    popts.id_base = next_id_base_;
    next_id_base_ += kIdBlock;
    pul::Pul pul = Must(gen.Generate(popts), "run", "PulGenerator::Generate");
    const std::string text =
        Must(pul::SerializePul(pul), "run", "serialize PUL");
    pass_.user_bytes += text.size();
    if (traced_) {
      pass_.layers.pul_parse += TimeMs([&] {
        Must(pul::ParsePul(text), "run", "parse committed PUL");
      });
      pass_.layers.pul_parse_ops += pul.size();
    }
    const MetricsSnapshot b = Snap();
    Result<uint64_t> version = Status::Internal("not run");
    const double ms = Timed("commit", [&] {
      version = store_->CommitOnBranch(branch, pul);
      return version.ok();
    });
    if (!version.ok()) {
      failures_.push_back("commit on " + branch + ": " +
                          version.status().ToString());
      continue;
    }
    commits_.push_back({branch, expected++, *version});
    if (traced_) {
      const MetricsSnapshot a = Snap();
      const double append = DeltaMs(b, a, {"store.wal.append.seconds"});
      const double fsync = DeltaMs(b, a, {"store.wal.fsync.seconds"});
      pass_.layers.append += append;
      pass_.layers.fsync += fsync;
      pass_.layers.validate += std::max(0.0, ms - append - fsync);
    }
  }
}

void Runner::Checkout(uint64_t version) {
  const MetricsSnapshot b = Snap();
  Result<std::string> bytes = Status::Internal("not run");
  const double ms = Timed("checkout", [&] {
    bytes = store_->CheckoutXml(version);
    return bytes.ok();
  });
  if (!bytes.ok()) {
    failures_.push_back("checkout of main v" + std::to_string(version) + ": " +
                        bytes.status().ToString());
    return;
  }
  std::string text = std::move(bytes).value();
  checkouts_.push_back({version, Crc32c(text), text.size()});
  if (!traced_) return;
  const MetricsSnapshot a = Snap();
  const double checkout = DeltaMs(b, a, {"store.checkout.seconds"});
  Layers& l = pass_.layers;
  l.checkout += checkout;
  l.serialize += std::max(0.0, ms - checkout);
  l.replayed += CounterDelta(b, a, "store.checkout.replayed_frames");
  ++l.checkouts;
  uint64_t base = 0;
  if (store_->snapshots().NearestAtOrBelow(version, &base)) {
    l.snapshot_read += TimeMs([&] {
      Must(store_->snapshots().Read(base), "run", "read checkpoint");
    });
  }
  l.parse += TimeMs([&] {
    Must(xml::ParseDocument(text), "run", "parse checkout bytes");
  });
  l.parse_bytes += text.size();
}

void Runner::Round(uint64_t r, RunResult* result) {
  const size_t k = r % 2 == 0 ? 1 : 4;
  const std::string x = "x" + std::to_string(r);
  const std::string y = "y" + std::to_string(r);
  const uint64_t fork = store_->head();
  // Fresh ids above everything main holds, merge-fallback ids included.
  next_id_base_ = std::max(
      next_id_base_,
      (store_->head_doc().max_assigned_id() / kIdBlock + 1) * kIdBlock);
  MustOk(store_->CreateBranch(x, "main", fork), "run", "CreateBranch " + x);
  MustOk(store_->CreateBranch(y, "main", fork), "run", "CreateBranch " + y);
  Commit(x, fork, k);
  Commit(y, fork, k);
  Layers& l = pass_.layers;
  // Full merge of the pair.
  branch::MergeStats stats;
  MetricsSnapshot b = Snap();
  Result<store::MergeCommitResult> merged = Status::Internal("not run");
  const std::string suffix = "_k" + std::to_string(k);
  double ms = Timed("merge" + suffix, [&] {
    merged = branch::Merge(&*store_, x, y, merge_options_, &stats);
    return merged.ok();
  });
  Must(std::move(merged), "run", "full merge of " + x + " and " + y);
  result->Check(!stats.fast_forward && !stats.no_op,
                "merge of " + x + " and " + y + " was a full merge");
  merged_pairs_.emplace_back(x, y);
  if (traced_) {
    const MetricsSnapshot a = Snap();
    const double c = DeltaMs(b, a, {"store.checkout.seconds"});
    const double f = FoldMs(b, a);
    const double rc = ReconcileMs(b, a);
    const double m = DeltaMs(b, a, {"store.merge.commit.seconds"});
    l.merge_checkout += c;
    l.fold += f;
    l.reconcile += rc;
    l.merge_commit += m;
    l.branch_other += ms - c - f - rc - m;
    l.merge_total += ms;
    ++l.merges;
  }
  // Fast-forward of the merged side into main (main sat at the fork).
  b = Snap();
  merged = Status::Internal("not run");
  ms = Timed("ff_merge" + suffix, [&] {
    merged = branch::Merge(&*store_, x, "main", merge_options_, &stats);
    return merged.ok();
  });
  Must(std::move(merged), "run", "fast-forward merge of " + x + " into main");
  result->Check(stats.fast_forward, "merge of " + x + " into main was a "
                                    "fast-forward");
  if (traced_) {
    const MetricsSnapshot a = Snap();
    const double c = DeltaMs(b, a, {"store.checkout.seconds"});
    const double f = FoldMs(b, a);
    const double rc = ReconcileMs(b, a);
    const double m = DeltaMs(b, a, {"store.merge.commit.seconds"});
    l.merge_checkout += c;
    l.fold += f;
    l.reconcile += rc;
    l.merge_commit += m;
    l.branch_other += ms - c - f - rc - m;
    l.ff_total += ms;
  }
  // Reference bytes of the new main version: the resident head document
  // the merge chain was applied to in memory (untimed).
  main_crc_[store_->head()] =
      Crc32c(Must(store::VersionStore::SerializeAnnotated(store_->head_doc()),
                  "run", "serialize main head"));
  for (size_t i = 0; i < sizes_.checkouts_per_round; ++i) {
    Checkout(rng_.Below(store_->head() + 1));
  }
}

// Correctness, outside the timed window: commit versions, checkout bytes
// against the in-memory heads recorded after each merge, byte-identical
// heads on both sides of every full merge, and a full store Verify.
void Runner::VerifyAll(RunResult* result) {
  for (const CommitRecord& c : commits_) {
    result->Check(c.got == c.expected, "commit on " + c.branch + " produced v" +
                                           std::to_string(c.got));
  }
  for (const CheckoutRecord& c : checkouts_) {
    auto it = main_crc_.find(c.version);
    result->Check(it != main_crc_.end() && it->second == c.crc,
                  "checkout of main v" + std::to_string(c.version));
  }
  for (const auto& [x, y] : merged_pairs_) {
    const uint64_t hx = Must(store_->GetBranch(x), "verify", "branch").head;
    const uint64_t hy = Must(store_->GetBranch(y), "verify", "branch").head;
    const std::string bx =
        Must(store_->CheckoutXmlBranch(x, hx), "verify", "checkout " + x);
    const std::string by =
        Must(store_->CheckoutXmlBranch(y, hy), "verify", "checkout " + y);
    result->Check(bx == by, "heads of " + x + " and " + y + " after merge");
  }
  for (const std::string& failure : failures_) {
    result->Line("  failed request: " + failure);
  }
  Result<store::VerifyReport> report = store_->Verify();
  result->Check(report.ok(), "VersionStore::Verify: " +
                                 (report.ok() ? std::string("ok")
                                              : report.status().ToString()));
}

Pass Runner::Run(double seconds, int setups, RunResult* result) {
  pass_.speed.Sample(3);
  SetUp(setups);
  pass_.before = Snap();
  const uint64_t wal0 = JournalBytes(dir_);
  const uint64_t snap0 = DirBytes(dir_, "snap");
  const uint64_t disk0 = DirBytes(dir_);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(sizes_.round_period_s));
  const uint64_t rounds = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(seconds / sizes_.round_period_s)));
  const Clock::time_point start = Clock::now();
  // A round that overruns its period delays the next one; a run far
  // slower than its pace stops early rather than outgrow its time limit.
  const Clock::time_point give_up =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(3 * seconds));
  for (uint64_t r = 0; r < rounds && (r == 0 || Clock::now() < give_up); ++r) {
    std::this_thread::sleep_until(start + r * period);
    Round(r, result);
    ++pass_.rounds;
    pass_.speed.Sample();  // in the gap before the next round
  }
  pass_.after = Snap();
  pass_.peak_rss_mb = ReadProcStats(0).peak_rss_mb;
  pass_.wal_bytes = JournalBytes(dir_) - wal0;
  pass_.snap_bytes = DirBytes(dir_, "snap") - snap0;
  pass_.disk_bytes = DirBytes(dir_) - disk0;
  pass_.speed.Sample(3);
  VerifyAll(result);
  MustOk(store_->Close(), "run", "close store");
  return std::move(pass_);
}

std::string InitialDocument(const RunOptions& options) {
  xmark::Config config;
  config.seed = options.seed;
  config.target_bytes = (options.smoke ? kSmokeSizes : kFullSizes).doc_bytes;
  xml::Document doc =
      Must(xmark::GenerateDocument(config), "setup", "xmark::GenerateDocument");
  xml::SerializeOptions opts;
  opts.with_ids = true;
  return Must(xml::SerializeDocument(doc, opts), "setup",
              "serialize initial document");
}

LayerTable BuildTable(const Pass& pass) {
  const double n = static_cast<double>(pass.ops);
  const Layers& l = pass.layers;
  LayerTable table;
  table.total_ms = pass.samples.total_finite_ms() / n;
  auto& v = table.values;
  v["store.validate_ms"] = l.validate / n;
  v["store.append_ms"] = l.append / n;
  v["store.fsync_ms"] = l.fsync / n;
  v["store.checkout_ms"] = (l.checkout + l.merge_checkout) / n;
  v["xml.serialize_ms"] = l.serialize / n;
  v["core.fold_ms"] = l.fold / n;
  v["core.reconcile_ms"] = l.reconcile / n;
  v["store.merge_commit_ms"] = l.merge_commit / n;
  v["branch.other_ms"] = l.branch_other / n;
  v["branch.merge_ms"] = Ratio(l.merge_total, l.merges);
  v["branch.ff_merge_ms"] = Ratio(l.ff_total, l.merges);
  v["pul.parse_ops_per_s"] = Ratio(l.pul_parse_ops, l.pul_parse / 1000.0);
  const MetricsSnapshot& b = pass.before;
  const MetricsSnapshot& a = pass.after;
  v["branch.fold_fallback_count"] =
      static_cast<double>(CounterDelta(b, a, "branch.merge.fold_fallback"));
  v["store.snapshot_write_ms"] =
      Ratio(1000.0 * SecondsDelta(b, a, "store.snapshot.write.seconds"),
            CounterDelta(b, a, "store.snapshot.write.count"));
  v["store.fsync_count"] =
      static_cast<double>(CounterDelta(b, a, "store.wal.fsync.count"));
  v["store.snapshot_read_ms"] = Ratio(l.snapshot_read, l.checkouts);
  v["store.replayed_frames_per_checkout"] = Ratio(l.replayed, l.checkouts);
  v["xml.parse_ms"] = Ratio(l.parse, l.checkouts);
  v["xml.parse_mb_per_s"] =
      Ratio(l.parse_bytes / double{1 << 20}, l.parse / 1000.0);
  v["store.wal_bytes_per_user_byte"] = Ratio(pass.wal_bytes, pass.user_bytes);
  v["store.snapshot_bytes_per_user_byte"] =
      Ratio(pass.snap_bytes, pass.user_bytes);
  return table;
}

}  // namespace

RunResult RunBranchMerge(const RunOptions& options) {
  const std::string annotated = InitialDocument(options);
  RunResult result;
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  Runner plain_runner(options, annotated, /*traced=*/false);
  Pass plain = plain_runner.Run(window, options.trace ? 1 : kSetupRepeats,
                                &result);
  result.attempted = plain.ops;
  result.failed = plain.failed;
  result.Line("branch_merge: " + std::to_string(plain.rounds) +
              " rounds on a " +
              std::to_string(annotated.size()) +
              "-byte annotated XMark store, fsync=always, default snapshot "
              "cadence");
  ReportClasses(plain.samples, &result);
  result.Line("  peak_rss_mb " + std::to_string(plain.peak_rss_mb));
  result.Line("  disk_bytes_per_user_byte " +
              std::to_string(plain.user_bytes > 0
                                 ? static_cast<double>(plain.disk_bytes) /
                                       static_cast<double>(plain.user_bytes)
                                 : 0.0));
  const double n = static_cast<double>(plain.ops);
  if (!options.trace) {
    EmitEndToEnd(plain.speed, plain.setup_seconds, plain.samples,
                 1000.0 * plain.cpu_seconds / n, &result);
    return result;
  }
  Runner traced_runner(options, annotated, /*traced=*/true);
  Pass traced = traced_runner.Run(window, 1, &result);
  result.attempted += traced.ops;
  result.failed += traced.failed;
  EmitLayerTable(BuildTable(traced),
                 AtSpeedOf(plain.samples.total_finite_ms() / n, plain.speed,
                           traced.speed),
                 /*serve_rows=*/false, &result);
  return result;
}

}  // namespace xupdate::perfbench
