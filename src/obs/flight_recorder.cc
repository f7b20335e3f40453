#include "obs/flight_recorder.h"

#include <algorithm>

#include "common/string_util.h"

namespace xupdate::obs {

std::string_view FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kAdmit: return "admit";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kBatchSeal: return "batch-seal";
    case FlightEventKind::kFsyncOk: return "fsync-ok";
    case FlightEventKind::kFsyncFail: return "fsync-fail";
    case FlightEventKind::kApply: return "apply";
    case FlightEventKind::kWalPoison: return "wal-poison";
    case FlightEventKind::kTenantOpen: return "tenant-open";
    case FlightEventKind::kShutdown: return "shutdown";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {
  ring_.resize(capacity_);
}

void FlightRecorder::Record(FlightEventKind kind, std::string_view tenant,
                            uint64_t request, uint64_t batch, uint64_t value,
                            std::string_view detail) {
  std::lock_guard<std::mutex> lock(mu_);
  Event& slot = ring_[next_seq_ % capacity_];
  slot.seq = next_seq_;
  slot.kind = kind;
  slot.tenant.assign(tenant);
  slot.request = request;
  slot.batch = batch;
  slot.value = value;
  slot.detail.assign(detail);
  ++next_seq_;
}

std::vector<FlightRecorder::Event> FlightRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  uint64_t retained = std::min<uint64_t>(next_seq_, capacity_);
  out.reserve(retained);
  for (uint64_t seq = next_seq_ - retained; seq < next_seq_; ++seq) {
    out.push_back(ring_[seq % capacity_]);
  }
  return out;
}

std::string FlightRecorder::DumpJsonl() const {
  std::string out;
  for (const Event& e : Events()) {
    out += "{\"seq\":";
    out += std::to_string(e.seq);
    out += ",\"kind\":\"";
    out += FlightEventKindName(e.kind);
    out += "\",\"tenant\":\"";
    out += JsonEscape(e.tenant);
    out += "\",\"request\":";
    out += std::to_string(e.request);
    out += ",\"batch\":";
    out += std::to_string(e.batch);
    out += ",\"value\":";
    out += std::to_string(e.value);
    out += ",\"detail\":\"";
    out += JsonEscape(e.detail);
    out += "\"}\n";
  }
  return out;
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

}  // namespace xupdate::obs
