#ifndef XUPDATE_SERVER_STAT_H_
#define XUPDATE_SERVER_STAT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/metrics.h"
#include "common/result.h"

namespace xupdate::server {

// The versioned kStat payload. The response payload stays exactly one
// JSON string — old clients that slice payload[0] keep working — but
// the string is now a wrapper:
//
//   {"v":1,"seq":<poll ordinal>,"uptime_ticks":<ms since Start>,
//    "global":{<metrics json>},
//    "tenants":{"<t>":{<metrics json>},...}}
//
// where <metrics json> is the Metrics::ToJson shape (counters / gauges
// / timers with raw buckets). The server splits "tenant/<t>/<rest>"
// metric names out of the registry into per-tenant sections keyed by
// the bare <rest>; everything else lands in "global". The version also
// rides in the kOk response's `b` scalar so clients can dispatch
// without parsing.
//
// ParseStatJson accepts both this wrapper and the pre-versioning
// payload (a bare metrics object, reported as version 0), and ignores
// unknown keys — a v1 parser reads a v2 server's payload, it just
// won't see the new fields. That is the extensibility contract the old
// "payload.size() != 1" hard-fail lacked.

inline constexpr uint64_t kStatVersion = 1;

struct StatSnapshot {
  uint64_t version = 0;
  uint64_t seq = 0;
  uint64_t uptime_ticks = 0;  // milliseconds since the server started
  MetricsSnapshot global;
  std::map<std::string, MetricsSnapshot, std::less<>> tenants;
};

// Serializes a registry snapshot as the versioned wrapper, splitting
// tenant-scoped names into per-tenant sections. Byte-deterministic for
// a given snapshot (sorted keys everywhere).
std::string BuildStatJson(const MetricsSnapshot& snapshot, uint64_t seq,
                          uint64_t uptime_ticks);

// Parses a kStat payload of any known version (see above). Metric names
// outside the registry's charset (IsValidMetricName) and tenant names
// ValidTenantName refuses are a ParseError: the renderers write names
// back unescaped.
Result<StatSnapshot> ParseStatJson(std::string_view json);

// Parses one <metrics json> object (the Metrics::ToJson shape) into a
// snapshot. Exposed for tools that read raw dumps.
Result<MetricsSnapshot> ParseMetricsJson(std::string_view json);

// Re-flattens a stat snapshot into one registry-shaped snapshot with
// "tenant/<t>/<rest>" names — the input shape of DeltaSnapshots and the
// Prometheus renderer.
MetricsSnapshot FlattenStatSnapshot(const StatSnapshot& stat);

}  // namespace xupdate::server

#endif  // XUPDATE_SERVER_STAT_H_
