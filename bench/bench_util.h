#ifndef XUPDATE_BENCH_BENCH_UTIL_H_
#define XUPDATE_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/string_util.h"
#include "label/labeling.h"
#include "xmark/generator.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xupdate::bench {

// Minor page faults this process has taken so far (getrusage of the
// process itself). Benches that build or copy whole documents report
// the per-iteration delta as the "minor_faults" counter: pages the heap
// hands back to the kernel and takes again show up there, not in the
// time of a warm loop alone.
inline double MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_minflt);
}

// A generated XMark document in every representation the benches need.
struct BenchDocument {
  std::string annotated_text;  // the executor's exchange format
  xml::Document doc;
  label::Labeling labeling;
};

// Generates (once per size per process) an XMark document of roughly
// `mb` megabytes of plain serialization.
inline const BenchDocument& XmarkFixture(size_t mb) {
  static std::mutex mutex;
  static std::map<size_t, std::unique_ptr<BenchDocument>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(mb);
  if (it != cache.end()) return *it->second;
  xmark::Config config;
  config.seed = 42 + mb;
  config.target_bytes = mb << 20;
  auto fixture = std::make_unique<BenchDocument>();
  auto doc = xmark::GenerateDocument(config);
  if (!doc.ok()) {
    fprintf(stderr, "xmark generation failed: %s\n",
            doc.status().ToString().c_str());
    abort();
  }
  fixture->doc = std::move(*doc);
  xml::SerializeOptions opts;
  opts.with_ids = true;
  auto text = xml::SerializeDocument(fixture->doc, opts);
  if (!text.ok()) {
    fprintf(stderr, "serialization failed: %s\n",
            text.status().ToString().c_str());
    abort();
  }
  fixture->annotated_text = std::move(*text);
  fixture->labeling = label::Labeling::Build(fixture->doc);
  return *cache.emplace(mb, std::move(fixture)).first->second;
}

// Upper document size of the Fig. 6a sweep; the paper used 256 MB, the
// default here keeps the sweep laptop-friendly. Override with
// XUPDATE_BENCH_MAX_MB.
inline size_t MaxDocMb() {
  if (const char* env = std::getenv("XUPDATE_BENCH_MAX_MB")) {
    int64_t v = ParseNonNegativeInt(env);
    if (v >= 1) return static_cast<size_t>(v);
  }
  return 32;
}

}  // namespace xupdate::bench

#endif  // XUPDATE_BENCH_BENCH_UTIL_H_
