// Fuzz target for the branch-record codecs (store/records.h): merge
// frame payloads, branch-journal metadata frames and branches.log
// records, all decoded from disk when a store opens.
//
// The first input byte picks the decoder (mod 3: DecodeMergeRecord,
// DecodeBranchMeta, DecodeBranchLogRecord); the rest is the payload.
// Whatever decodes must re-encode to bytes that decode again and
// re-encode identically. A merge record has no flag bits, so its
// payload must come back byte for byte; policy and flag bytes may carry
// bits the encoder drops, so for the other two the first re-encoding is
// the fixpoint.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "store/records.h"

namespace xupdate::store {
namespace {

std::string Encode(const MergeRecord& record) {
  return EncodeMergeRecord(record);
}
std::string Encode(const BranchMetaRecord& record) {
  return EncodeBranchMeta(record);
}
std::string Encode(const BranchLogRecord& record) {
  return record.kind == 1 ? EncodeSyncRecord(record.sync)
                          : EncodeRebaseRecord(record.rebase);
}

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "records_fuzz: %s\n", what);
  std::abort();
}

template <typename Record>
void RoundTrip(Result<Record> (*decode)(std::string_view),
               std::string_view payload, bool exact) {
  Result<Record> decoded = decode(payload);
  if (!decoded.ok()) return;  // rejecting malformed input is fine
  std::string encoded = Encode(*decoded);
  if (exact && encoded != payload) Fail("re-encoding changed the payload");
  Result<Record> again = decode(encoded);
  if (!again.ok()) Fail("re-encoded record failed to decode");
  if (Encode(*again) != encoded) Fail("round trip is not a fixpoint");
}

}  // namespace
}  // namespace xupdate::store

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  namespace store = xupdate::store;
  if (size == 0) return 0;
  std::string_view payload(reinterpret_cast<const char*>(data) + 1,
                           size - 1);
  switch (data[0] % 3) {
    case 0:
      store::RoundTrip(&store::DecodeMergeRecord, payload, /*exact=*/true);
      break;
    case 1:
      store::RoundTrip(&store::DecodeBranchMeta, payload, /*exact=*/false);
      break;
    default:
      store::RoundTrip(&store::DecodeBranchLogRecord, payload,
                       /*exact=*/false);
      break;
  }
  return 0;
}
