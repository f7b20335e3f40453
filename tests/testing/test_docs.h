#ifndef XUPDATE_TESTS_TESTING_TEST_DOCS_H_
#define XUPDATE_TESTS_TESTING_TEST_DOCS_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "label/labeling.h"
#include "pul/pul.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace xupdate::testing {

// The serialized form of `label`, for comparing labels in assertions.
inline std::string LabelText(const label::NodeLabel& label) {
  std::string out;
  label.Serialize(&out);
  return out;
}

// The SigmodRecord fragment of Figure 1 of the paper, with the node ids
// used throughout its examples:
//   1  sigmodRecord
//   2    issue
//   3      volume(e) -> 10 "11"(t)
//   4      number? ... — the paper's figure labels: we reproduce the ids
//   the examples rely on: 4 (articles' parent "issue"?), 5 (title), 7
//   (author), 8/9 (text/attr), 14..19 (second paper elements).
//
// The exact figure is not fully reproduced in the text, so this helper
// builds a compatible tree that supplies every id referenced by
// Examples 1-9: elements 1..19 with the structural relations the
// examples assume.
inline xml::Document PaperFigureDocument() {
  // Layout (ids in brackets; e=element, t=text, a=attribute):
  //  [1]sigmodRecord
  //    [2]issue
  //      [3]volume           [10]"11"
  //      [4]article                       <- target of ins
  //        [5]title          [11]"XML Processing"
  //        [6]authors
  //          [7]author       [8]"B.Catania"   [9]@position="00"
  //        [12]initPage      [13]"23"
  //      [14]article
  //        [15]title         [16 is next element] ...
  //      ... second article: [15]"Report..."(t under title?)
  // To satisfy the examples we need:
  //   del(14) — node 14 exists;
  //   ins|(16, <author>) with 16 an element with 2 children (|O| = 3);
  //   ins->(19, ...) / ins\|(16, ...) equivalence: 19 last child of 16;
  //   repV(15, 'Report on ...') with 15 text; repC(14, ...) with 14
  //   element parent of 15.
  xml::Document doc;
  auto e = [&](xml::NodeId want, std::string_view name) {
    Status s = doc.CreateWithId(want, xml::NodeType::kElement, name, "");
    (void)s;
    return want;
  };
  auto t = [&](xml::NodeId want, std::string_view value) {
    Status s = doc.CreateWithId(want, xml::NodeType::kText, "", value);
    (void)s;
    return want;
  };
  auto a = [&](xml::NodeId want, std::string_view name,
               std::string_view value) {
    Status s = doc.CreateWithId(want, xml::NodeType::kAttribute, name, value);
    (void)s;
    return want;
  };
  e(1, "sigmodRecord");
  e(2, "issue");
  e(3, "volume");
  t(10, "11");
  e(4, "article");
  e(5, "title");
  t(11, "XML Processing");
  e(6, "authors");
  e(7, "author");
  t(8, "B.Catania");
  a(9, "position", "00");
  e(12, "initPage");
  t(13, "23");
  e(14, "title");          // second article's title element ...
  t(15, "Old report");     // ... whose only child is text node 15
  e(16, "authors");
  e(17, "author");
  t(18, "A.Author");
  e(19, "author");
  t(20, "Z.Author");
  (void)doc.SetRoot(1);
  (void)doc.AppendChild(1, 2);
  (void)doc.AppendChild(2, 3);
  (void)doc.AppendChild(3, 10);
  (void)doc.AppendChild(2, 4);
  (void)doc.AppendChild(4, 5);
  (void)doc.AppendChild(5, 11);
  (void)doc.AppendChild(4, 6);
  (void)doc.AppendChild(6, 7);
  (void)doc.AppendChild(7, 8);
  (void)doc.AddAttribute(7, 9);
  (void)doc.AppendChild(4, 12);
  (void)doc.AppendChild(12, 13);
  (void)doc.AppendChild(2, 14);
  (void)doc.AppendChild(14, 15);
  (void)doc.AppendChild(2, 16);
  (void)doc.AppendChild(16, 17);
  (void)doc.AppendChild(17, 18);
  (void)doc.AppendChild(16, 19);
  (void)doc.AppendChild(19, 20);
  return doc;
}

// Small random document generator for property tests: elements with
// names from a tiny alphabet, occasional text children and attributes.
inline xml::Document RandomDocument(Rng& rng, size_t max_nodes = 24) {
  xml::Document doc;
  xml::NodeId root = doc.NewElement("r");
  (void)doc.SetRoot(root);
  std::vector<xml::NodeId> elements = {root};
  static const char* kNames[] = {"a", "b", "c", "d"};
  static const char* kAttrs[] = {"x", "y"};
  size_t nodes = 1;
  while (nodes < max_nodes) {
    xml::NodeId parent =
        elements[static_cast<size_t>(rng.Below(elements.size()))];
    double roll = rng.NextDouble();
    if (roll < 0.6) {
      xml::NodeId child =
          doc.NewElement(kNames[rng.Below(4)]);
      (void)doc.AppendChild(parent, child);
      elements.push_back(child);
    } else if (roll < 0.85) {
      // Adjacent text siblings would coalesce on re-parse; avoid them so
      // round-trip tests can compare structurally.
      const auto& kids = doc.children(parent);
      if (!kids.empty() && doc.type(kids.back()) == xml::NodeType::kText) {
        continue;
      }
      xml::NodeId text = doc.NewText("t" + std::to_string(rng.Below(10)));
      (void)doc.AppendChild(parent, text);
    } else {
      // Avoid duplicate attribute names on one element.
      std::string name = kAttrs[rng.Below(2)];
      bool dup = false;
      for (xml::NodeId existing : doc.attributes(parent)) {
        if (doc.name(existing) == name) dup = true;
      }
      if (dup) continue;
      xml::NodeId attr =
          doc.NewAttribute(name, "v" + std::to_string(rng.Below(10)));
      (void)doc.AddAttribute(parent, attr);
    }
    ++nodes;
  }
  return doc;
}

// Options for RandomPul below.
struct RandomPulOptions {
  size_t max_ops = 4;
  // Exclude the sources of non-determinism (insInto and repeated
  // same-kind insertions on one target) so |O(pul, doc)| == 1.
  bool deterministic = false;
  // First id handed to parameter-tree nodes.
  xml::NodeId id_base = 0;
  // Never delete/replace these nodes (e.g. the root).
  bool allow_structural_removal = true;
};

// Builds a random applicable PUL against `doc`. Respects Table 2
// applicability and Definition 3 compatibility by construction.
inline pul::Pul RandomPul(Rng& rng, const xml::Document& doc,
                          const label::Labeling& labeling,
                          const RandomPulOptions& options) {
  pul::Pul out;
  out.BindIdSpace(options.id_base != 0 ? options.id_base
                                       : doc.max_assigned_id() + 1);
  std::vector<xml::NodeId> nodes = doc.AllNodesInOrder();
  std::set<std::pair<xml::NodeId, int>> used_rep;
  std::set<std::pair<xml::NodeId, int>> used_ins;
  int fresh = 0;
  int guard = 0;
  auto frag = [&]() {
    auto r = out.AddFragment("<g" + std::to_string(fresh++) + "/>");
    return *r;
  };
  while (out.size() < options.max_ops && ++guard < 300) {
    xml::NodeId target =
        nodes[static_cast<size_t>(rng.Below(nodes.size()))];
    if (!doc.Exists(target)) continue;
    pul::OpKind kind = static_cast<pul::OpKind>(rng.Below(pul::kNumOpKinds));
    xml::NodeType tt = doc.type(target);
    auto ins_ok = [&](pul::OpKind k) {
      if (!options.deterministic) return true;
      return used_ins.insert({target, static_cast<int>(k)}).second;
    };
    switch (kind) {
      case pul::OpKind::kInsBefore:
      case pul::OpKind::kInsAfter:
        if (tt == xml::NodeType::kAttribute ||
            doc.parent(target) == xml::kInvalidNode) {
          break;
        }
        if (!ins_ok(kind)) break;
        (void)out.AddTreeOp(kind, target, labeling, {frag()});
        break;
      case pul::OpKind::kInsInto:
        if (options.deterministic) break;
        [[fallthrough]];
      case pul::OpKind::kInsFirst:
      case pul::OpKind::kInsLast:
        if (tt != xml::NodeType::kElement) break;
        if (!ins_ok(kind)) break;
        (void)out.AddTreeOp(kind, target, labeling, {frag()});
        break;
      case pul::OpKind::kInsAttributes:
        if (tt != xml::NodeType::kElement) break;
        (void)out.AddTreeOp(
            kind, target, labeling,
            {out.NewAttributeParam("ga" + std::to_string(fresh++), "v")});
        break;
      case pul::OpKind::kDelete:
        if (!options.allow_structural_removal ||
            doc.parent(target) == xml::kInvalidNode) {
          break;
        }
        (void)out.AddDelete(target, labeling);
        break;
      case pul::OpKind::kReplaceNode:
        if (!options.allow_structural_removal ||
            doc.parent(target) == xml::kInvalidNode) {
          break;
        }
        if (!used_rep.insert({target, static_cast<int>(kind)}).second) break;
        if (tt == xml::NodeType::kAttribute) {
          (void)out.AddTreeOp(
              kind, target, labeling,
              {out.NewAttributeParam("gr" + std::to_string(fresh++), "v")});
        } else {
          (void)out.AddTreeOp(kind, target, labeling, {frag()});
        }
        break;
      case pul::OpKind::kReplaceValue:
        if (tt == xml::NodeType::kElement) break;
        if (!used_rep.insert({target, static_cast<int>(kind)}).second) break;
        (void)out.AddStringOp(kind, target, labeling,
                              "nv" + std::to_string(fresh++));
        break;
      case pul::OpKind::kReplaceChildren: {
        if (tt != xml::NodeType::kElement ||
            !options.allow_structural_removal) {
          break;
        }
        if (!used_rep.insert({target, static_cast<int>(kind)}).second) break;
        xml::NodeId t = out.NewTextParam("ct" + std::to_string(fresh++));
        (void)out.AddTreeOp(kind, target, labeling, {t});
        break;
      }
      case pul::OpKind::kRename:
        if (tt == xml::NodeType::kText) break;
        if (!used_rep.insert({target, static_cast<int>(kind)}).second) break;
        (void)out.AddStringOp(kind, target, labeling,
                              "rn" + std::to_string(fresh++));
        break;
    }
  }
  return out;
}

}  // namespace xupdate::testing

#endif  // XUPDATE_TESTS_TESTING_TEST_DOCS_H_
