#ifndef XUPDATE_OBS_FLIGHT_RECORDER_H_
#define XUPDATE_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xupdate::obs {

// What the serving layer was doing just now. Each kind reuses the same
// small event record; the `request`/`batch`/`value` fields carry the
// kind-specific payload (0 = not applicable):
//   kAdmit          request id       batch 0   value = queue depth after
//   kShed           request id       batch 0   value = queue depth; detail
//                                              "global" or "tenant-quota"
//   kBatchSeal      request 0        batch id  value = jobs in the batch
//   kFsyncOk /      request 0        batch id  value = commits coalesced
//   kFsyncFail                                 detail = error text (fail)
//   kApply          request 0        batch id  value = commits applied
//   kWalPoison      request 0        batch id  detail = poisoning status
//   kTenantOpen     request 0        batch 0   value = resident tenants
//   kShutdown       request 0        batch 0   value = events recorded
enum class FlightEventKind : uint8_t {
  kAdmit,
  kShed,
  kBatchSeal,
  kFsyncOk,
  kFsyncFail,
  kApply,
  kWalPoison,
  kTenantOpen,
  kShutdown,
};

// Stable wire name ("admit", "shed", "batch-seal", ...).
std::string_view FlightEventKindName(FlightEventKind kind);

// Fixed-capacity ring of recent server events — the post-mortem window
// that does not depend on tracing having been enabled. Thread-safe and
// cheap (one mutex, no allocation beyond the strings); dumped as
// deterministic JSONL on SIGUSR1, on WAL poisoning and at shutdown.
//
// The dump carries the monotonic per-recorder `seq` and no wall-clock
// timestamps, so for a deterministic single-threaded event sequence the
// dump is byte-identical across runs.
class FlightRecorder {
 public:
  struct Event {
    uint64_t seq = 0;
    FlightEventKind kind = FlightEventKind::kAdmit;
    std::string tenant;  // empty when not tenant-scoped
    uint64_t request = 0;
    uint64_t batch = 0;
    uint64_t value = 0;
    std::string detail;
  };

  explicit FlightRecorder(size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(FlightEventKind kind, std::string_view tenant,
              uint64_t request = 0, uint64_t batch = 0, uint64_t value = 0,
              std::string_view detail = {});

  // The retained window in seq order (oldest first).
  std::vector<Event> Events() const;

  // One JSON object per retained event, seq order, fixed key order
  //   {"seq":..,"kind":"..","tenant":"..","request":..,"batch":..,
  //    "value":..,"detail":".."}
  // (tenant/detail JSON-escaped; everything else needs no escaping).
  std::string DumpJsonl() const;

  // Lifetime totals (events recorded, including overwritten ones).
  uint64_t total_recorded() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t next_seq_ = 0;
  std::vector<Event> ring_;  // slot = seq % capacity_
};

}  // namespace xupdate::obs

#endif  // XUPDATE_OBS_FLIGHT_RECORDER_H_
