#ifndef XUPDATE_XML_DOCUMENT_IMAGE_H_
#define XUPDATE_XML_DOCUMENT_IMAGE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "xml/document.h"

namespace xupdate::xml {

// The binary document image: the store's checkpoint payload. It holds
// exactly what the id-annotated serialization holds (the rooted tree's
// node kinds and ids, element and attribute names, attribute and text
// values, attribute and child order) and decodes straight into a
// Document's records and blocks, with no lexing and no per-node name
// hashing.
//
//   image  := varint node_count | varint name_count | name{name_count}
//             | varint pool_bytes | node{node_count} | pool
//   name   := varint length | bytes
//   node   := u8 kind | varint zigzag(id - previous id)
//             | element:   varint name | varint attributes | varint children
//             | attribute: varint name | varint value_length
//             | text:      varint value_length
//   pool   := the attribute and text values, in node order
//
// Varints are LEB128 in their shortest form. Nodes come in document
// order: an element, then its attributes, then its children; the
// first node is the root element, and the previous id of the first
// node is 0. Names are numbered by first use in that order. Nothing
// depends on block layout or NamePool ids, so equal annotated content
// gives equal bytes, and DecodeImage accepts only such canonical
// images: EncodeImage(DecodeImage(b)) == b for every b it accepts.
//
// The image stores no id counter: a decoded document hands out fresh
// ids from its largest id + 1, as a parse of the annotated text does.

// Appends the image of `doc`'s rooted tree to `out`. Fails where the
// id-annotated serializer fails: no root, a non-element root, an
// attribute in a child list.
Status EncodeImage(const Document& doc, std::string* out);

// The document `image` encodes. Every count, length and index is
// bounded by the image; ids lie in 1..kMaxNodeId and are unique;
// the image must be canonical and hold exactly one tree. Anything else
// is a kParseError.
Result<Document> DecodeImage(std::string_view image);

}  // namespace xupdate::xml

#endif  // XUPDATE_XML_DOCUMENT_IMAGE_H_
