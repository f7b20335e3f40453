// Fuzz target for the JSON reader (common/json.h) and the stat payload
// parser built on it (server/stat.h): `xupdate stat` and `xupdate top`
// read the daemon's kStat payloads through both.
//
// Arbitrary bytes go through json::Parse. Accepted input also goes
// through server::ParseStatJson, which must accept or reject it without
// crashing, and a payload it accepts through FlattenStatSnapshot, as
// `top` and `stat --format prom` use it. The flattened snapshot is then
// re-rendered through MetricsSnapshotToJson and BuildStatJson, and both
// renderings must parse again: the renderers write names unescaped, so
// the parser may accept only names that need no escaping.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "common/json.h"
#include "common/metrics.h"
#include "server/stat.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  if (!xupdate::json::Parse(input).ok()) return 0;
  xupdate::Result<xupdate::server::StatSnapshot> stat =
      xupdate::server::ParseStatJson(input);
  if (!stat.ok()) return 0;
  xupdate::MetricsSnapshot flat = xupdate::server::FlattenStatSnapshot(*stat);
  if (!xupdate::json::Parse(xupdate::MetricsSnapshotToJson(flat)).ok() ||
      !xupdate::json::Parse(xupdate::server::BuildStatJson(flat, stat->seq,
                                                           stat->uptime_ticks))
           .ok()) {
    abort();
  }
  return 0;
}
