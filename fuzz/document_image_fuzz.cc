// Fuzz target for the binary document image (xml/document_image.h):
// the checkpoint payload a store decodes on every checkout.
//
// Whatever DecodeImage accepts must be a valid document (Validate) and
// re-encode to exactly the input: the decoder accepts only canonical
// images, which is what lets Verify byte-check a checkpoint as
// EncodeImage(replayed) == stored.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "xml/document_image.h"

namespace {

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "document_image_fuzz: %s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  namespace xml = xupdate::xml;
  std::string_view image(reinterpret_cast<const char*>(data), size);
  xupdate::Result<xml::Document> doc = xml::DecodeImage(image);
  if (!doc.ok()) return 0;  // rejecting malformed input is fine
  if (!doc->Validate().ok()) Fail("decoded document fails Validate");
  std::string encoded;
  if (!xml::EncodeImage(*doc, &encoded).ok()) {
    Fail("decoded document does not encode");
  }
  if (encoded != image) Fail("re-encoding changed the image");
  return 0;
}
