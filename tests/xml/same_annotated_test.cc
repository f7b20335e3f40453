// Document::SameAnnotated must agree with comparing the store's
// id-annotated bytes (VersionStore::SerializeAnnotated) on every input:
// true exactly when the two serializations are equal, and failing with
// the serializer's status wherever serializing either side fails.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "store/version.h"
#include "xmark/generator.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace xupdate::xml {
namespace {

using store::VersionStore;

Document Xmark(uint64_t seed, size_t bytes) {
  xmark::Config config;
  config.seed = seed;
  config.target_bytes = bytes;
  auto doc = xmark::GenerateDocument(config);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(*doc);
}

// Asserts the property on one pair and returns the verdict.
bool CheckAgreesWithBytes(const Document& a, const Document& b) {
  auto bytes_a = VersionStore::SerializeAnnotated(a);
  auto bytes_b = VersionStore::SerializeAnnotated(b);
  EXPECT_TRUE(bytes_a.ok()) << bytes_a.status();
  EXPECT_TRUE(bytes_b.ok()) << bytes_b.status();
  auto same = Document::SameAnnotated(a, b);
  auto reverse = Document::SameAnnotated(b, a);
  EXPECT_TRUE(same.ok()) << same.status();
  EXPECT_TRUE(reverse.ok()) << reverse.status();
  if (!bytes_a.ok() || !bytes_b.ok() || !same.ok() || !reverse.ok()) {
    return false;
  }
  EXPECT_EQ(*same, *bytes_a == *bytes_b);
  EXPECT_EQ(*reverse, *same);
  return *same;
}

std::vector<NodeId> NodesWhere(const Document& doc,
                               const std::function<bool(NodeId)>& pred) {
  std::vector<NodeId> out;
  doc.Visit(doc.root(), [&](NodeId id) {
    if (pred(id)) out.push_back(id);
    return true;
  });
  return out;
}

// One single-field mutation, applied to a copy of the base document at
// a node for which `applies` holds.
struct Mutation {
  const char* name;
  std::function<bool(const Document&, NodeId)> applies;
  std::function<void(Document*, NodeId)> mutate;
};

// An element's attribute annotation rewritten so that the attribute at
// `index` carries a fresh id: one id changes, nothing else does.
void ReplaceAttributeId(Document* doc, NodeId element, size_t index) {
  std::span<const NodeId> held = doc->attributes(element);
  std::vector<NodeId> attrs(held.begin(), held.end());
  std::vector<std::pair<std::string, std::string>> fields;
  for (NodeId attr : attrs) {
    fields.emplace_back(doc->name(attr), doc->value(attr));
    ASSERT_TRUE(doc->Detach(attr).ok());
  }
  for (size_t i = 0; i < attrs.size(); ++i) {
    NodeId id = attrs[i];
    if (i == index) {
      ASSERT_TRUE(doc->DeleteSubtree(id).ok());
      id = doc->NewAttribute(fields[i].first, fields[i].second);
    }
    ASSERT_TRUE(doc->AddAttribute(element, id).ok());
  }
}

// A fresh element takes the old one's place, name, attributes and
// children: only its own id differs.
void ReplaceElementId(Document* doc, NodeId element) {
  NodeId fresh = doc->NewElement(doc->name(element));
  std::span<const NodeId> attrs = doc->attributes(element);
  for (NodeId attr : std::vector<NodeId>(attrs.begin(), attrs.end())) {
    ASSERT_TRUE(doc->Detach(attr).ok());
    ASSERT_TRUE(doc->AddAttribute(fresh, attr).ok());
  }
  std::span<const NodeId> kids = doc->children(element);
  for (NodeId child : std::vector<NodeId>(kids.begin(), kids.end())) {
    ASSERT_TRUE(doc->Detach(child).ok());
    ASSERT_TRUE(doc->AppendChild(fresh, child).ok());
  }
  if (element == doc->root()) {
    ASSERT_TRUE(doc->Detach(element).ok());
    ASSERT_TRUE(doc->SetRoot(fresh).ok());
  } else {
    ASSERT_TRUE(doc->InsertBefore(element, fresh).ok());
  }
  ASSERT_TRUE(doc->DeleteSubtree(element).ok());
}

std::vector<Mutation> Mutations() {
  auto is_element = [](const Document& d, NodeId id) {
    return d.type(id) == NodeType::kElement;
  };
  auto is_text = [](const Document& d, NodeId id) {
    return d.type(id) == NodeType::kText;
  };
  return {
      {"element id", is_element, ReplaceElementId},
      {"root id",
       [](const Document& d, NodeId id) { return id == d.root(); },
       ReplaceElementId},
      {"element name", is_element,
       [](Document* d, NodeId id) {
         ASSERT_TRUE(d->Rename(id, std::string(d->name(id)) + "x").ok());
       }},
      {"attribute name",
       [](const Document& d, NodeId id) {
         return d.type(id) == NodeType::kElement && !d.attributes(id).empty();
       },
       [](Document* d, NodeId id) {
         NodeId attr = d->attributes(id).front();
         ASSERT_TRUE(d->Rename(attr, std::string(d->name(attr)) + "x").ok());
       }},
      {"attribute value",
       [](const Document& d, NodeId id) {
         return d.type(id) == NodeType::kElement && !d.attributes(id).empty();
       },
       [](Document* d, NodeId id) {
         NodeId attr = d->attributes(id).front();
         ASSERT_TRUE(d->SetValue(attr, std::string(d->value(attr)) + "x").ok());
       }},
      {"attribute id",
       [](const Document& d, NodeId id) {
         return d.type(id) == NodeType::kElement && !d.attributes(id).empty();
       },
       [](Document* d, NodeId id) { ReplaceAttributeId(d, id, 0); }},
      {"attribute order",
       [](const Document& d, NodeId id) {
         return d.type(id) == NodeType::kElement &&
                d.attributes(id).size() >= 2;
       },
       [](Document* d, NodeId id) {
         NodeId first = d->attributes(id).front();
         ASSERT_TRUE(d->Detach(first).ok());
         ASSERT_TRUE(d->AddAttribute(id, first).ok());
       }},
      {"text value", is_text,
       [](Document* d, NodeId id) {
         ASSERT_TRUE(d->SetValue(id, std::string(d->value(id)) + "x").ok());
       }},
      {"text id", is_text,
       [](Document* d, NodeId id) {
         NodeId fresh = d->NewText(d->value(id));
         NodeId replacement[] = {fresh};
         ASSERT_TRUE(d->ReplaceNode(id, replacement).ok());
       }},
      {"child order",
       [](const Document& d, NodeId id) {
         return d.type(id) == NodeType::kElement && d.children(id).size() >= 2;
       },
       [](Document* d, NodeId id) {
         NodeId first = d->children(id).front();
         ASSERT_TRUE(d->Detach(first).ok());
         ASSERT_TRUE(d->AppendChild(id, first).ok());
       }},
      {"added empty text", is_element,
       [](Document* d, NodeId id) {
         ASSERT_TRUE(d->AppendChild(id, d->NewText("")).ok());
       }},
      {"split text",
       [](const Document& d, NodeId id) {
         return d.type(id) == NodeType::kText && d.value(id).size() >= 2;
       },
       [](Document* d, NodeId id) {
         std::string value(d->value(id));
         size_t cut = value.size() / 2;
         ASSERT_TRUE(d->SetValue(id, value.substr(0, cut)).ok());
         ASSERT_TRUE(d->InsertAfter(id, d->NewText(value.substr(cut))).ok());
       }},
  };
}

// Gives every element with exactly one attribute a second one, so the
// attribute-order mutation has candidates (generated XMark elements
// carry at most one).
void AddSecondAttributes(Document* doc) {
  for (NodeId id : NodesWhere(*doc, [&](NodeId n) {
         return doc->type(n) == NodeType::kElement &&
                doc->attributes(n).size() == 1;
       })) {
    ASSERT_TRUE(doc->AddAttribute(id, doc->NewAttribute("extra", "v")).ok());
  }
}

TEST(SameAnnotatedTest, EqualCopiesAndReparsesAreSame) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Document a = Xmark(seed, 16 * 1024);
    Document copy = a;
    EXPECT_TRUE(CheckAgreesWithBytes(a, copy));
    // A reparse interns names in its own order and holds its own
    // records: only what is serialized may count.
    auto bytes = VersionStore::SerializeAnnotated(a);
    ASSERT_TRUE(bytes.ok());
    auto reparsed = ParseDocument(*bytes);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status();
    EXPECT_TRUE(CheckAgreesWithBytes(a, *reparsed));
    // Detached nodes and interned-but-unused names are not serialized.
    copy.NewElement("detached");
    copy.NewText("detached text");
    EXPECT_TRUE(CheckAgreesWithBytes(a, copy));
    // Different documents are not.
    EXPECT_FALSE(CheckAgreesWithBytes(a, Xmark(seed + 10, 16 * 1024)));
  }
}

TEST(SameAnnotatedTest, EverySingleFieldMutationAgreesWithTheBytes) {
  std::mt19937_64 rng(7);
  for (uint64_t seed : {1, 2, 3}) {
    Document base = Xmark(seed, 16 * 1024);
    AddSecondAttributes(&base);
    for (const Mutation& mutation : Mutations()) {
      SCOPED_TRACE(std::string(mutation.name) + ", seed " +
                   std::to_string(seed));
      std::vector<NodeId> candidates = NodesWhere(
          base, [&](NodeId id) { return mutation.applies(base, id); });
      ASSERT_FALSE(candidates.empty());
      for (int round = 0; round < 8; ++round) {
        NodeId target = candidates[rng() % candidates.size()];
        Document mutated = base;
        mutation.mutate(&mutated, target);
        ASSERT_TRUE(mutated.Validate().ok());
        // Every mutation changes what is serialized.
        EXPECT_FALSE(CheckAgreesWithBytes(base, mutated)) << target;
      }
    }
  }
}

TEST(SameAnnotatedTest, RemovedEmptyTextNodeIsADifference) {
  Document base = Xmark(4, 16 * 1024);
  std::vector<NodeId> texts = NodesWhere(
      base, [&](NodeId id) { return base.type(id) == NodeType::kText; });
  ASSERT_FALSE(texts.empty());
  Document with_empty = base;
  NodeId empty = with_empty.NewText("");
  ASSERT_TRUE(with_empty.InsertBefore(texts[texts.size() / 2], empty).ok());
  EXPECT_FALSE(CheckAgreesWithBytes(with_empty, base));
  Document removed = with_empty;
  ASSERT_TRUE(removed.DeleteSubtree(empty).ok());
  EXPECT_TRUE(CheckAgreesWithBytes(removed, base));
  EXPECT_FALSE(CheckAgreesWithBytes(with_empty, removed));
}

TEST(SameAnnotatedTest, FailsWhereTheSerializerFails) {
  Document good = Xmark(5, 4096);
  Document no_root;
  Document detached_root = good;
  ASSERT_TRUE(detached_root.Detach(detached_root.root()).ok());
  Document text_root;
  ASSERT_TRUE(text_root.SetRoot(text_root.NewText("loose")).ok());
  for (const Document* bad : {&no_root, &detached_root, &text_root}) {
    auto serialized = VersionStore::SerializeAnnotated(*bad);
    ASSERT_FALSE(serialized.ok());
    std::vector<Result<bool>> verdicts = {
        Document::SameAnnotated(*bad, good),
        Document::SameAnnotated(good, *bad),
        Document::SameAnnotated(*bad, *bad)};
    for (const Result<bool>& same : verdicts) {
      ASSERT_FALSE(same.ok());
      EXPECT_EQ(same.status().code(), serialized.status().code());
      EXPECT_EQ(same.status().message(), serialized.status().message());
    }
  }
  // The first side's refusal is reported, as serializing it first would.
  auto both = Document::SameAnnotated(no_root, text_root);
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().message(),
            VersionStore::SerializeAnnotated(no_root).status().message());
}

}  // namespace
}  // namespace xupdate::xml
