#include "branch/sim.h"

#include <filesystem>
#include <random>
#include <system_error>
#include <utility>

#include "branch/merge.h"
#include "common/file_io.h"
#include "label/labeling.h"
#include "store/version.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::branch {

namespace {

// Disjoint inserted-node id block handed to each edit event.
constexpr uint64_t kIdBlock = 1 << 16;

uint64_t Fnv1a(std::string_view data, uint64_t hash = 0xcbf29ce484222325ull) {
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// rng() % n and a fixed-point coin keep the event sequence identical
// across platforms (std::uniform_int_distribution is not portable).
bool Coin(std::mt19937_64* rng, double probability) {
  return static_cast<double>((*rng)() % 1000000) <
         probability * 1000000.0;
}

struct Replica {
  std::string name;  // "main" or "w<i>"
};

Status RunScheduleImpl(uint64_t seed, const SimOptions& options,
                       const std::string& dir, const std::string& base_xml,
                       ScheduleResult* result) {
  store::StoreOptions store_options;
  store_options.fsync = store::FsyncPolicy::kNever;  // crash-safety is
                                                     // not under test here
  store_options.metrics = options.metrics;
  XUPDATE_RETURN_IF_ERROR(
      store::VersionStore::Init(dir, base_xml, store_options));
  XUPDATE_ASSIGN_OR_RETURN(store::VersionStore store,
                           store::VersionStore::Open(dir, store_options));
  MergeOptions merge_options;
  merge_options.metrics = options.metrics;
  std::vector<Replica> writers;
  for (int w = 0; w < options.writers; ++w) {
    writers.push_back({"w" + std::to_string(w)});
    XUPDATE_RETURN_IF_ERROR(
        store.CreateBranch(writers.back().name, "main", store.head()));
  }
  std::mt19937_64 rng(seed);
  uint64_t next_id_base =
      ((store.head_doc().max_assigned_id() / kIdBlock) + 1) * kIdBlock;
  auto edit = [&](const std::string& replica) -> Status {
    XUPDATE_ASSIGN_OR_RETURN(const xml::Document* doc,
                             store.BranchHeadDoc(replica));
    label::Labeling labeling = label::Labeling::Build(*doc);
    workload::PulGenerator gen(*doc, labeling, rng());
    workload::PulGenerator::PulOptions pul_options;
    pul_options.num_ops = options.ops_per_edit;
    pul_options.id_base = next_id_base;
    next_id_base += kIdBlock;
    XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, gen.Generate(pul_options));
    XUPDATE_RETURN_IF_ERROR(store.CommitOnBranch(replica, pul).status());
    ++result->edits;
    return Status::OK();
  };
  auto sync = [&](const std::string& writer) -> Status {
    MergeStats stats;
    XUPDATE_RETURN_IF_ERROR(
        Merge(&store, "main", writer, merge_options, &stats).status());
    ++result->merges;
    if (stats.fast_forward) ++result->fast_forwards;
    if (!stats.fast_forward && !stats.no_op) ++result->full_merges;
    result->conflicts_auto_solved += stats.reconcile.conflicts_total;
    return Status::OK();
  };
  // Random interleaving: each event picks an actor — a writer (edits or
  // syncs with main) or the mainline itself (edits only; it receives
  // merges through the writers' syncs, the hub topology).
  auto tagged = [](Status status, const std::string& what, size_t event) {
    if (status.ok()) return status;
    return Status(status.code(), what + " at event " +
                                     std::to_string(event) + ": " +
                                     std::string(status.message()));
  };
  for (size_t e = 0; e < options.events; ++e) {
    size_t actor = rng() % (writers.size() + 1);
    if (actor == writers.size()) {
      XUPDATE_RETURN_IF_ERROR(tagged(edit("main"), "edit main", e));
    } else if (Coin(&rng, options.sync_probability)) {
      XUPDATE_RETURN_IF_ERROR(
          tagged(sync(writers[actor].name), "sync " + writers[actor].name, e));
    } else {
      XUPDATE_RETURN_IF_ERROR(
          tagged(edit(writers[actor].name), "edit " + writers[actor].name, e));
    }
  }
  // Convergence: gather every writer's edits into main, then scatter
  // the final mainline state back out (each scatter merge finds the
  // writer with an empty suffix and fast-forwards it).
  for (const Replica& w : writers) {
    XUPDATE_RETURN_IF_ERROR(
        tagged(sync(w.name), "gather sync " + w.name, options.events));
  }
  for (const Replica& w : writers) {
    XUPDATE_RETURN_IF_ERROR(
        tagged(sync(w.name), "scatter sync " + w.name, options.events));
  }
  // Byte-identity, through the store replay path (journal + snapshots),
  // not the cached head documents.
  XUPDATE_ASSIGN_OR_RETURN(std::string main_bytes,
                           store.CheckoutXml(store.head()));
  for (const Replica& w : writers) {
    XUPDATE_ASSIGN_OR_RETURN(store::BranchInfo info, store.GetBranch(w.name));
    XUPDATE_ASSIGN_OR_RETURN(std::string branch_bytes,
                             store.CheckoutXmlBranch(w.name, info.head));
    if (branch_bytes != main_bytes) {
      return Status::Internal(
          "branch " + w.name + " diverged from main after convergence (" +
          std::to_string(branch_bytes.size()) + " vs " +
          std::to_string(main_bytes.size()) + " bytes)");
    }
  }
  if (options.verify_stores) {
    XUPDATE_ASSIGN_OR_RETURN(store::VerifyReport verified, store.Verify());
    if (verified.branches.size() != writers.size()) {
      return Status::Internal("verify covered " +
                              std::to_string(verified.branches.size()) +
                              " branches, expected " +
                              std::to_string(writers.size()));
    }
  }
  result->final_digest = Fnv1a(main_bytes);
  result->converged = true;
  return store.Close();
}

}  // namespace

Result<ScheduleResult> RunSchedule(uint64_t seed, const SimOptions& options,
                                   const std::string& dir,
                                   const std::string& base_xml) {
  ScheduleResult result;
  result.seed = seed;
  Status status = RunScheduleImpl(seed, options, dir, base_xml, &result);
  if (!status.ok()) {
    result.converged = false;
    result.error = status.message();
  }
  return result;
}

Result<SimReport> RunSim(const SimOptions& options) {
  if (options.writers < 1) {
    return Status::InvalidArgument("sim needs at least one writer");
  }
  xmark::Config config;
  config.seed = options.seed;
  config.target_bytes = options.xmark_bytes;
  XUPDATE_ASSIGN_OR_RETURN(std::string base_xml,
                           xmark::GenerateDocumentText(config));
  XUPDATE_RETURN_IF_ERROR(EnsureDirectory(options.scratch_dir));
  SimReport report;
  report.digest = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < options.schedules; ++i) {
    uint64_t seed = options.seed + i;
    std::string dir =
        options.scratch_dir + "/sched-" + std::to_string(seed);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);  // a stale run's leftovers
    XUPDATE_ASSIGN_OR_RETURN(ScheduleResult result,
                             RunSchedule(seed, options, dir, base_xml));
    std::filesystem::remove_all(dir, ec);
    ++report.schedules;
    report.edits += result.edits;
    report.merges += result.merges;
    report.fast_forwards += result.fast_forwards;
    report.full_merges += result.full_merges;
    report.conflicts_auto_solved += result.conflicts_auto_solved;
    if (result.converged) {
      ++report.converged;
      report.digest ^= result.final_digest;
      report.digest *= 0x100000001b3ull;
    } else {
      report.failures.push_back(std::move(result));
    }
    if (options.metrics != nullptr) {
      options.metrics->AddCounter("branch.sim.schedules");
    }
  }
  return report;
}

}  // namespace xupdate::branch
