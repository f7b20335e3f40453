// Fuzz target for the journal frame decoder (store/wal.h): every store
// journal — wal.log, branch-<name>.log, branches.log — and every
// snapshot frame is read from disk through Wal::DecodeFrame.
//
// The input is a whole journal file. Past the magic, DecodeFrame walks
// it frame by frame until the input ends or a frame is rejected (a torn
// or corrupt frame, or a CRC-valid frame of an unknown type). Every
// frame it accepts must re-encode with Wal::EncodeFrame to exactly the
// bytes it was decoded from, and a rejected frame must leave the offset
// where it began.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "store/wal.h"

namespace {

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "wal_fuzz: %s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using xupdate::store::Wal;
  std::string_view file(reinterpret_cast<const char*>(data), size);
  if (file.size() < Wal::kMagicSize ||
      std::memcmp(file.data(), Wal::kMagic, Wal::kMagicSize) != 0) {
    return 0;  // Wal::Open refuses a file without the magic
  }
  size_t offset = Wal::kMagicSize;
  while (offset < file.size()) {
    const size_t start = offset;
    auto frame = Wal::DecodeFrame(file, &offset);
    if (!frame.ok()) {
      if (offset != start) Fail("a rejected frame moved the offset");
      break;
    }
    if (offset <= start) Fail("an accepted frame did not advance");
    if (Wal::EncodeFrame(*frame) != file.substr(start, offset - start)) {
      Fail("re-encoding changed the frame bytes");
    }
  }
  return 0;
}
