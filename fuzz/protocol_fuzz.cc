// Fuzz target for the daemon's message codec (server/protocol.h): every
// request and response body read from a socket goes through
// DecodeMessage, and its payload through DecodeStringList.
//
// The input is one frame body. It is decoded as a request, as a
// response and as a bare string list. Every message the decoder accepts
// must re-encode to exactly the input, both contiguously (EncodeMessage)
// and as the parts a frame is sent from (MessageParts); an accepted
// string list must re-encode to exactly the input too.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"

namespace {

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "protocol_fuzz: %s\n", what);
  std::abort();
}

void CheckMessage(std::string_view body, bool expect_request) {
  using namespace xupdate::server;
  auto msg = DecodeMessage(body, expect_request);
  if (!msg.ok()) return;
  if (EncodeMessage(*msg) != body) Fail("EncodeMessage changed the body");
  std::string scratch;
  std::string joined;
  for (std::string_view part : MessageParts(*msg, &scratch)) joined += part;
  if (joined != body) Fail("the joined parts differ from the body");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace xupdate::server;
  std::string_view body(reinterpret_cast<const char*>(data), size);
  CheckMessage(body, /*expect_request=*/true);
  CheckMessage(body, /*expect_request=*/false);
  std::vector<std::string> strings;
  if (DecodeStringList(body, 0, &strings).ok()) {
    std::string encoded;
    EncodeStringList(strings, &encoded);
    if (encoded != body) Fail("EncodeStringList changed the list");
  }
  return 0;
}
