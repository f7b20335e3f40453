#ifndef XUPDATE_XML_SERIALIZER_H_
#define XUPDATE_XML_SERIALIZER_H_

#include <string>

#include "common/result.h"
#include "xml/document.h"

namespace xupdate::xml {

struct SerializeOptions {
  // Human-readable indentation. Machine round-trips use false.
  bool pretty = false;
  // Embed node identifiers so a later parse reconstructs the exact id
  // assignment (paper §4.1/§4.3: "node identifiers and labeling have
  // been stored within the related documents"). Per element a reserved
  // attribute `xu:ids="<element-id>[;<attr-id>,...]"`; each text node is
  // preceded by a `<?xuid N?>` processing instruction. Both annotations
  // can be produced by a single forward pass (streaming execution).
  bool with_ids = false;
  // Serialize attributes in name order (attribute order is semantically
  // irrelevant); used for canonical comparison of documents.
  bool canonical_attributes = false;
};

// Appends the serialization of the subtree rooted at `root` (must be an
// element) to `out`.
Status AppendSubtree(const Document& doc, NodeId root,
                     const SerializeOptions& options, std::string* out);

// AppendSubtree into a fresh string.
Result<std::string> SerializeSubtree(const Document& doc, NodeId root,
                                     const SerializeOptions& options = {});

// Serializes the whole rooted document.
Result<std::string> SerializeDocument(const Document& doc,
                                      const SerializeOptions& options = {});

// Name of the reserved id-annotation attribute.
inline constexpr char kIdsAttributeName[] = "xu:ids";

}  // namespace xupdate::xml

#endif  // XUPDATE_XML_SERIALIZER_H_
