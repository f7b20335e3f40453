#include "server/stat.h"

#include <utility>

#include "common/json.h"
#include "obs/exposition.h"
#include "server/protocol.h"

namespace xupdate::server {

namespace {

// Splits one flat registry snapshot into (global, per-tenant) sections.
void SplitSnapshot(const MetricsSnapshot& snapshot, StatSnapshot* out) {
  auto route = [&out](std::string_view name, auto&& assign) {
    std::string_view tenant, rest;
    if (obs::SplitTenantMetric(name, &tenant, &rest)) {
      assign(&out->tenants[std::string(tenant)], rest);
    } else {
      assign(&out->global, name);
    }
  };
  for (const auto& [name, value] : snapshot.counters) {
    route(name, [&value](MetricsSnapshot* section, std::string_view key) {
      section->counters.emplace(std::string(key), value);
    });
  }
  for (const auto& [name, value] : snapshot.gauges) {
    route(name, [&value](MetricsSnapshot* section, std::string_view key) {
      section->gauges.emplace(std::string(key), value);
    });
  }
  for (const auto& [name, timer] : snapshot.timers) {
    route(name, [&timer](MetricsSnapshot* section, std::string_view key) {
      section->timers.emplace(std::string(key), timer);
    });
  }
}

// Names are written back unescaped (BuildStatJson,
// MetricsSnapshotToJson), so only names of the registry's charset may
// enter a snapshot.
Status CheckMetricName(const std::string& name) {
  if (IsValidMetricName(name)) return Status::OK();
  return Status::ParseError("invalid metric name in stat payload");
}

Status ReadMetricsObject(const json::Value& value, MetricsSnapshot* out) {
  if (!value.is_object()) {
    return Status::ParseError("metrics section is not an object");
  }
  if (const json::Value* counters = value.Find("counters")) {
    if (!counters->is_object()) {
      return Status::ParseError("\"counters\" is not an object");
    }
    for (const auto& [name, v] : counters->members) {
      XUPDATE_RETURN_IF_ERROR(CheckMetricName(name));
      out->counters[name] = v.U64Or(0);
    }
  }
  if (const json::Value* gauges = value.Find("gauges")) {
    if (!gauges->is_object()) {
      return Status::ParseError("\"gauges\" is not an object");
    }
    for (const auto& [name, v] : gauges->members) {
      XUPDATE_RETURN_IF_ERROR(CheckMetricName(name));
      out->gauges[name] = v.I64Or(0);
    }
  }
  if (const json::Value* timers = value.Find("timers")) {
    if (!timers->is_object()) {
      return Status::ParseError("\"timers\" is not an object");
    }
    for (const auto& [name, v] : timers->members) {
      XUPDATE_RETURN_IF_ERROR(CheckMetricName(name));
      if (!v.is_object()) {
        return Status::ParseError("timer \"" + name + "\" is not an object");
      }
      MetricsSnapshot::TimerState t;
      if (const json::Value* f = v.Find("seconds")) t.seconds = f->NumberOr(0);
      if (const json::Value* f = v.Find("count")) t.count = f->U64Or(0);
      if (const json::Value* f = v.Find("min")) t.min = f->NumberOr(0);
      if (const json::Value* f = v.Find("max")) t.max = f->NumberOr(0);
      if (const json::Value* buckets = v.Find("buckets")) {
        if (!buckets->is_array()) {
          return Status::ParseError("timer buckets is not an array");
        }
        // Tolerate a different ladder length from a newer/older server:
        // read what overlaps, ignore the rest (percentile deltas then
        // degrade, they don't fail).
        size_t n = buckets->items.size() < kNumLatencyBuckets
                       ? buckets->items.size()
                       : kNumLatencyBuckets;
        for (size_t b = 0; b < n; ++b) {
          t.buckets[b] = buckets->items[b].U64Or(0);
        }
      }
      out->timers[name] = t;
    }
  }
  return Status::OK();
}

// Tenant names are written back unescaped too (BuildStatJson).
Status CheckTenantNames(const StatSnapshot& stat) {
  for (const auto& [tenant, section] : stat.tenants) {
    if (!ValidTenantName(tenant)) {
      return Status::ParseError("invalid tenant name in stat payload");
    }
  }
  return Status::OK();
}

}  // namespace

std::string BuildStatJson(const MetricsSnapshot& snapshot, uint64_t seq,
                          uint64_t uptime_ticks) {
  StatSnapshot split;
  SplitSnapshot(snapshot, &split);
  std::string out = "{\"v\":";
  out += std::to_string(kStatVersion);
  out += ",\"seq\":";
  out += std::to_string(seq);
  out += ",\"uptime_ticks\":";
  out += std::to_string(uptime_ticks);
  out += ",\"global\":";
  out += MetricsSnapshotToJson(split.global);
  out += ",\"tenants\":{";
  bool first = true;
  for (const auto& [tenant, section] : split.tenants) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += tenant;  // ValidTenantName charset — no escaping needed
    out += "\":";
    out += MetricsSnapshotToJson(section);
  }
  out += "}}";
  return out;
}

Result<MetricsSnapshot> ParseMetricsJson(std::string_view json) {
  XUPDATE_ASSIGN_OR_RETURN(json::Value value, json::Parse(json));
  MetricsSnapshot snapshot;
  XUPDATE_RETURN_IF_ERROR(ReadMetricsObject(value, &snapshot));
  return snapshot;
}

Result<StatSnapshot> ParseStatJson(std::string_view json) {
  XUPDATE_ASSIGN_OR_RETURN(json::Value value, json::Parse(json));
  if (!value.is_object()) {
    return Status::ParseError("stat payload is not a JSON object");
  }
  StatSnapshot stat;
  const json::Value* version = value.Find("v");
  if (version == nullptr) {
    // Pre-versioning payload: a bare metrics object with tenant-scoped
    // names inline. Split it the way the server now does.
    MetricsSnapshot flat;
    XUPDATE_RETURN_IF_ERROR(ReadMetricsObject(value, &flat));
    SplitSnapshot(flat, &stat);
    XUPDATE_RETURN_IF_ERROR(CheckTenantNames(stat));
    return stat;
  }
  stat.version = version->U64Or(0);
  if (const json::Value* seq = value.Find("seq")) stat.seq = seq->U64Or(0);
  if (const json::Value* uptime = value.Find("uptime_ticks")) {
    stat.uptime_ticks = uptime->U64Or(0);
  }
  if (const json::Value* global = value.Find("global")) {
    XUPDATE_RETURN_IF_ERROR(ReadMetricsObject(*global, &stat.global));
  }
  if (const json::Value* tenants = value.Find("tenants")) {
    if (!tenants->is_object()) {
      return Status::ParseError("\"tenants\" is not an object");
    }
    for (const auto& [tenant, section] : tenants->members) {
      XUPDATE_RETURN_IF_ERROR(
          ReadMetricsObject(section, &stat.tenants[tenant]));
    }
  }
  XUPDATE_RETURN_IF_ERROR(CheckTenantNames(stat));
  return stat;
}

MetricsSnapshot FlattenStatSnapshot(const StatSnapshot& stat) {
  MetricsSnapshot flat = stat.global;
  for (const auto& [tenant, section] : stat.tenants) {
    std::string prefix = "tenant/" + tenant + "/";
    for (const auto& [name, value] : section.counters) {
      flat.counters[prefix + name] = value;
    }
    for (const auto& [name, value] : section.gauges) {
      flat.gauges[prefix + name] = value;
    }
    for (const auto& [name, value] : section.timers) {
      flat.timers[prefix + name] = value;
    }
  }
  return flat;
}

}  // namespace xupdate::server
