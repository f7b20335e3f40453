// Quickstart: the full life of a PUL.
//
//   1. Parse an XML document and label it.
//   2. Produce a PUL by evaluating an XQuery Update expression.
//   3. Serialize the PUL (the wire format of the paper's architecture).
//   4. Reduce it (collapse/override elimination, Definition 7).
//   5. Execute it with the streaming evaluator.

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/reduce.h"
#include "exec/streaming.h"
#include "label/labeling.h"
#include "pul/pul_io.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/eval.h"

namespace {

// Aborts the example with a readable message on any error.
template <typename T>
T Check(xupdate::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::cerr << what << " failed: " << result.status() << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace

int main() {
  using namespace xupdate;

  // 1. The document (Figure 1 of the paper, abridged).
  const char* source =
      "<sigmodRecord>"
      "<issue><volume>11</volume>"
      "<article><title>XML Processing</title>"
      "<authors><author position=\"00\">B.Catania</author></authors>"
      "</article></issue>"
      "</sigmodRecord>";
  xml::Document doc = Check(xml::ParseDocument(source), "parse");
  label::Labeling labeling = label::Labeling::Build(doc);
  std::cout << "document has " << doc.node_count() << " nodes\n";

  // 2. Produce a PUL with an update script. Snapshot semantics: all
  //    paths are resolved against the unmodified document.
  xquery::ProducerContext producer;
  producer.doc = &doc;
  producer.labeling = &labeling;
  pul::Pul pul = Check(
      xquery::ProducePul(
          "insert nodes <author>G.Guerrini</author> as last into //authors, "
          "insert nodes <author>M.Mesiti</author> as last into //authors, "
          "insert attributes initPage=\"132\" lastPage=\"134\" "
          "into //article, "
          "rename node //article/title as \"heading\", "
          "replace value of node //author[1]/text() with \"B. Catania\"",
          producer),
      "update evaluation");
  std::cout << "produced a PUL with " << pul.size() << " operations\n";

  // 3. The PUL travels as XML (decoupled production/execution).
  std::string wire = Check(pul::SerializePul(pul), "PUL serialization");
  std::cout << "wire format (" << wire.size() << " bytes):\n"
            << wire << "\n\n";
  pul::Pul received = Check(pul::ParsePul(wire), "PUL parse");

  // 4. Reduce: the two insLast operations on //authors collapse (rule
  //    I5) without touching the document.
  pul::Pul reduced = Check(
      core::Reduce(received, {.mode = core::ReduceMode::kDeterministic}),
      "reduction");
  std::cout << "reduction: " << received.size() << " ops -> "
            << reduced.size() << " ops\n";

  // 5. Execute in streaming: one SAX pass, no DOM.
  xml::SerializeOptions annotated;
  annotated.with_ids = true;
  std::string doc_text =
      Check(xml::SerializeDocument(doc, annotated), "serialize");
  exec::StreamingEvaluator executor;
  std::string updated = Check(executor.Evaluate(doc_text, reduced),
                              "streaming evaluation");

  // Show the result without the id annotations.
  xml::Document result = Check(xml::ParseDocument(updated), "reparse");
  xml::SerializeOptions pretty;
  pretty.pretty = true;
  std::cout << "updated document:\n"
            << Check(xml::SerializeDocument(result, pretty), "print")
            << "\n";
  return 0;
}
