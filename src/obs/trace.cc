#include "obs/trace.h"

#include <algorithm>

namespace xupdate::obs {

namespace {

struct KindName {
  EventKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {EventKind::kSpanBegin, "span-begin"},
    {EventKind::kSpanEnd, "span-end"},
    {EventKind::kShardAssigned, "shard-assigned"},
    {EventKind::kRuleFired, "rule-fired"},
    {EventKind::kConflictDetected, "conflict-detected"},
    {EventKind::kPolicyApplied, "policy-applied"},
    {EventKind::kOpSurvived, "op-survived"},
    {EventKind::kNote, "note"},
};

}  // namespace

std::string_view EventKindName(EventKind kind) {
  for (const KindName& k : kKindNames) {
    if (k.kind == kind) return k.name;
  }
  return "note";
}

bool EventKindFromName(std::string_view name, EventKind* out) {
  for (const KindName& k : kKindNames) {
    if (k.name == name) {
      *out = k.kind;
      return true;
    }
  }
  return false;
}

void TraceLane::Emit(EventKind kind, std::string_view name,
                     std::vector<std::string> ops, std::string result,
                     std::string detail) {
  if (tracer_ == nullptr) return;
  TraceEvent event;
  event.phase = phase_;
  event.lane = lane_;
  event.seq = seq_++;
  event.kind = kind;
  event.scope = scope_;
  event.name = name;
  event.ops = std::move(ops);
  event.result = std::move(result);
  event.detail = std::move(detail);
  tracer_->Append(std::move(event));
}

uint32_t Tracer::NextPhase() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_phase_++;
}

void Tracer::Append(TraceEvent event) {
  std::chrono::duration<double, std::micro> offset =
      std::chrono::steady_clock::now() - created_;
  std::lock_guard<std::mutex> lock(mu_);
  event.t_us = offset.count();
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::SortedEvents() const {
  std::vector<TraceEvent> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sorted = events_;
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.phase != b.phase) return a.phase < b.phase;
              if (a.lane != b.lane) return a.lane < b.lane;
              return a.seq < b.seq;
            });
  return sorted;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

}  // namespace xupdate::obs
