// Fuzz target for the DTD parser (schema/schema.h): `xupdate analyze
// --schema file.dtd` reads a DTD through Schema::ParseDtd.
//
// Arbitrary bytes go through ParseDtd. An accepted schema then builds
// what `analyze` builds from it: the type-level summaries of two fixed
// PULs (one of them inserting trees named after the schema's own
// types), their independence verdict and the schema lint, plus a walk
// over every derived table (children, required children, content-model
// runs, per-level type sets, descendant closures).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/schema_lint.h"
#include "label/labeling.h"
#include "pul/pul.h"
#include "schema/schema.h"
#include "schema/summary.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace {

using xupdate::pul::OpKind;
using xupdate::pul::Pul;
using xupdate::xml::NodeId;

// <r a="1"><x><y/>t</x><z/></r>: ids r=1, a=2, x=3, y=4, t=5, z=6.
struct Fixture {
  xupdate::xml::Document doc;
  xupdate::label::Labeling labeling;

  Fixture()
      : doc(*xupdate::xml::ParseDocument(
            "<r a=\"1\"><x><y/>t</x><z/></r>")),
        labeling(xupdate::label::Labeling::Build(doc)) {}
};

const Fixture& TheFixture() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

// Deletions and replacements, fixed.
Pul RemovalPul(const Fixture& f) {
  Pul pul;
  pul.BindIdSpace(f.doc.max_assigned_id() + 1);
  (void)pul.AddDelete(4, f.labeling);
  (void)pul.AddTreeOp(OpKind::kReplaceNode, 2, f.labeling,
                      {pul.NewAttributeParam("b", "2")});
  (void)pul.AddTreeOp(OpKind::kReplaceChildren, 6, f.labeling,
                      {pul.NewTextParam("c")});
  return pul;
}

// Insertions of trees named after the schema's first types.
Pul InsertionPul(const Fixture& f, const xupdate::schema::Schema& schema) {
  Pul pul;
  pul.BindIdSpace(f.doc.max_assigned_id() + 1);
  const OpKind kKinds[] = {OpKind::kInsLast, OpKind::kInsBefore,
                           OpKind::kInsFirst, OpKind::kInsAfter};
  const NodeId kTargets[] = {3, 6, 1, 4};
  for (int k = 0; k < 4 && k < schema.num_types(); ++k) {
    std::string name(schema.TypeName(k));
    auto tree = pul.AddFragment("<" + name + "/>");
    if (!tree.ok()) continue;
    (void)pul.AddTreeOp(kKinds[k], kTargets[k], f.labeling, {*tree});
  }
  (void)pul.AddTreeOp(OpKind::kInsAttributes, 3, f.labeling,
                      {pul.NewAttributeParam("a", "v")});
  return pul;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  xupdate::Result<xupdate::schema::Schema> parsed =
      xupdate::schema::Schema::ParseDtd(input);
  if (!parsed.ok()) return 0;  // rejecting malformed input is fine
  const xupdate::schema::Schema& schema = *parsed;

  const Fixture& f = TheFixture();
  const Pul removal = RemovalPul(f);
  const Pul insertion = InsertionPul(f, schema);
  xupdate::schema::TypeSummary a =
      xupdate::schema::InferTouchedTypes(schema, removal);
  xupdate::schema::TypeSummary b =
      xupdate::schema::InferTouchedTypes(schema, insertion);
  (void)xupdate::schema::DecideIndependence(a, b);
  (void)xupdate::analysis::LintPulWithSchema(schema, removal);
  (void)xupdate::analysis::LintPulWithSchema(schema, insertion);

  for (int type = 0; type < schema.num_types(); ++type) {
    std::vector<std::string> children;
    for (int child : schema.Children(type)) {
      (void)schema.IsRequiredChild(type, child);
      if (children.size() < 4) {
        children.emplace_back(schema.TypeName(child));
      }
    }
    (void)schema.AcceptsChildren(type, children);
    (void)schema.MayHaveText(type);
    (void)schema.MayHaveAttributes(type);
  }
  xupdate::schema::TypeSet types(static_cast<size_t>(schema.num_types()));
  for (uint32_t level = 0; level < 8; ++level) {
    types.UnionWith(schema.ElementTypesAtLevel(level));
  }
  (void)schema.ProperDescendantTypes(types);
  return 0;
}
