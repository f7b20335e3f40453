#ifndef XUPDATE_TOOLS_CLI_H_
#define XUPDATE_TOOLS_CLI_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"

namespace xupdate::tools {

// Entry point of the `xupdate` command-line tool, factored out of main()
// so tests can drive it. Commands:
//
//   xupdate generate  --bytes N [--seed S] --out doc.xml
//   xupdate produce   --doc doc.xml --update "script" [--id-base N]
//                     [--policies order,inserted,removed] --out pul.xml
//   xupdate apply     --doc doc.xml --pul pul.xml
//                     [--engine streaming|inmemory] --out out.xml
//   xupdate reduce    --pul pul.xml [--mode plain|deterministic|canonical]
//                     --out out.xml
//   xupdate aggregate --out out.xml PUL...
//   xupdate integrate [--out merged.xml] PUL...
//   xupdate reconcile --out out.xml PUL...
//   xupdate invert    --doc doc.xml --pul pul.xml --out inverse.xml
//   xupdate query     --doc doc.xml --path "//item/name"
//   xupdate stats     --doc doc.xml
//   xupdate analyze   [--out report.json] PUL...
//   xupdate explain   journal.jsonl [--op ID]
//   xupdate store     init --dir DIR --doc doc.xml
//   xupdate store     commit --dir DIR --pul pul.xml
//   xupdate store     checkout --dir DIR --version V --out out.xml
//   xupdate store     log|verify --dir DIR
//   xupdate store     rollback --dir DIR --to V
//   xupdate serve     --socket PATH --data-dir DIR
//                     [--commit-window-ms N] [--max-pending N]
//                     [--max-parallelism N]
//   xupdate loadgen   --socket PATH [--tenants N] [--items N]
//                     [--connections N] [--window N] [--ops-per-pul N]
//                     [--doc-bytes N] [--zipf-theta F] [--rate F]
//                     [--commit-weight F] [--checkout-weight F]
//                     [--reduce-weight F] [--stat-weight F] [--seed S]
//                     [--verify 0|1] [--dump-head DIR]
//                     [--server-metrics PATH] [--shutdown 0|1]
//
// `serve` runs the PUL reasoning daemon (src/server/) until SIGINT,
// SIGTERM or a client kShutdown. `loadgen` replays a deterministic
// typed workload (src/workload/) against it over pipelined
// connections; --verify 1 checks every response byte-for-byte against
// a local one-shot replay, --dump-head writes each tenant's final
// head document for external diffing, --server-metrics saves the
// server's metrics JSON (fsync-coalescing counters included).
//
// The store subcommands share --fsync always|batch|never,
// --snapshot-every N and --snapshot-bytes N, and honor the environment
// variable XUPDATE_STORE_FAIL_AFTER_BYTES (inject a journal write
// failure after N appended bytes — crash-recovery testing).
//
// Flags accept both `--name value` and `--name=value`. The reasoning
// commands (reduce, aggregate, integrate, reconcile, analyze) share
//   --parallelism N           worker threads (reduce/integrate/reconcile)
//   --metrics PATH            counters/timers JSON ("-" for stdout)
//   --trace PATH              deterministic JSONL decision journal,
//                             input of `xupdate explain`
//   --chrome-trace PATH       chrome://tracing / Perfetto timeline
//
// Documents and PULs are exchanged in the id-annotated XML formats of
// the library. Returns a Status; diagnostics and results go to `out`.
Status RunCli(const std::vector<std::string>& args, std::ostream& out);

}  // namespace xupdate::tools

#endif  // XUPDATE_TOOLS_CLI_H_
