// Golden test for Example 5 / Table 3 of the paper: the full reduction
// trace of a nine-operation PUL down to three operations, the
// deterministic reduction (stage 10) and the canonical form.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/random.h"
#include "core/reduce.h"
#include "label/labeling.h"
#include "pul/obtainable.h"
#include "pul/pul.h"
#include "xml/document.h"
#include "xml/serializer.h"

namespace xupdate::core {
namespace {

using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::Document;
using xml::NodeId;

// Document shaped for Example 5: element 4 whose first child is 5 and
// last child is 7; element 16 with some children.
Document Example5Document() {
  Document doc;
  auto e = [&](NodeId id, std::string_view name) {
    EXPECT_TRUE(doc.CreateWithId(id, xml::NodeType::kElement, name, "").ok());
  };
  e(1, "proceedings");
  e(4, "article");
  e(5, "head");    // first child of 4 (will be renamed / replaced)
  e(6, "body");
  e(7, "author");  // last child of 4
  e(16, "authors");
  e(17, "author");
  (void)doc.SetRoot(1);
  (void)doc.AppendChild(1, 4);
  (void)doc.AppendChild(4, 5);
  (void)doc.AppendChild(4, 6);
  (void)doc.AppendChild(4, 7);
  (void)doc.AppendChild(1, 16);
  (void)doc.AppendChild(16, 17);
  return doc;
}

// Compact fingerprint "kind(target, serialized params)" for set
// comparison independent of op order.
std::string Fingerprint(const Pul& pul, const UpdateOp& op) {
  std::string out(pul::OpKindName(op.kind));
  out += "(" + std::to_string(op.target);
  for (NodeId r : op.param_trees) {
    out += ", ";
    if (pul.forest().type(r) == xml::NodeType::kElement) {
      auto s = xml::SerializeSubtree(pul.forest(), r, {});
      out += s.ok() ? *s : "<?>";
    } else {
      out += std::string(pul.forest().value(r));
    }
  }
  if (!op.param_string.empty()) out += ", '" + op.param_string + "'";
  out += ")";
  return out;
}

std::multiset<std::string> Fingerprints(const Pul& pul) {
  std::multiset<std::string> out;
  for (const UpdateOp& op : pul.ops()) out.insert(Fingerprint(pul, op));
  return out;
}

class Example5Test : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = Example5Document();
    labeling_ = label::Labeling::Build(doc_);
    pul_.BindIdSpace(doc_.max_assigned_id() + 1);
    auto frag = [&](const char* xml_text) {
      auto r = pul_.AddFragment(xml_text);
      EXPECT_TRUE(r.ok());
      return *r;
    };
    // The nine operations of Example 5, in the paper's listing order.
    ASSERT_TRUE(pul_.AddTreeOp(OpKind::kInsFirst, 4, labeling_,
                               {frag("<year>2004</year>")})
                    .ok());
    ASSERT_TRUE(pul_.AddTreeOp(OpKind::kInsLast, 4, labeling_,
                               {frag("<month>March</month>")})
                    .ok());
    ASSERT_TRUE(pul_.AddStringOp(OpKind::kRename, 5, labeling_, "title").ok());
    ASSERT_TRUE(pul_.AddTreeOp(OpKind::kInsAfter, 7, labeling_,
                               {frag("<author>A.Chaudhri</author>")})
                    .ok());
    ASSERT_TRUE(pul_.AddTreeOp(OpKind::kInsBefore, 5, labeling_,
                               {frag("<title>Report on EDBT04</title>")})
                    .ok());
    ASSERT_TRUE(pul_.AddTreeOp(OpKind::kInsAfter, 7, labeling_,
                               {frag("<author>G.Guerrini</author>")})
                    .ok());
    ASSERT_TRUE(pul_.AddTreeOp(OpKind::kInsAfter, 7, labeling_,
                               {frag("<author>F.Cavalieri</author>")})
                    .ok());
    ASSERT_TRUE(pul_.AddTreeOp(OpKind::kReplaceNode, 5, labeling_,
                               {frag("<author>M.Mesiti</author>")})
                    .ok());
    ASSERT_TRUE(pul_.AddTreeOp(OpKind::kInsInto, 16, labeling_,
                               {frag("<author>P.Gardner</author>")})
                    .ok());
  }

  Document doc_;
  label::Labeling labeling_;
  Pul pul_;
};

TEST_F(Example5Test, PlainReductionMatchesTable3) {
  auto reduced = Reduce(pul_);
  ASSERT_TRUE(reduced.ok()) << reduced.status();
  std::multiset<std::string> expected = {
      "repN(5, <year>2004</year>, <title>Report on EDBT04</title>, "
      "<author>M.Mesiti</author>)",
      "insAfter(7, <author>A.Chaudhri</author>, <author>G.Guerrini</author>, "
      "<author>F.Cavalieri</author>, <month>March</month>)",
      "insInto(16, <author>P.Gardner</author>)",
  };
  EXPECT_EQ(Fingerprints(*reduced), expected);
}

TEST_F(Example5Test, DeterministicReductionConvertsInsInto) {
  auto reduced = Reduce(pul_, {.mode = ReduceMode::kDeterministic});
  ASSERT_TRUE(reduced.ok()) << reduced.status();
  std::multiset<std::string> expected = {
      "repN(5, <year>2004</year>, <title>Report on EDBT04</title>, "
      "<author>M.Mesiti</author>)",
      "insAfter(7, <author>A.Chaudhri</author>, <author>G.Guerrini</author>, "
      "<author>F.Cavalieri</author>, <month>March</month>)",
      "insFirst(16, <author>P.Gardner</author>)",
  };
  EXPECT_EQ(Fingerprints(*reduced), expected);
  // Deterministic: exactly one obtainable document.
  auto set = pul::ObtainableSet(doc_, *reduced);
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_EQ(set->size(), 1u);
}

TEST_F(Example5Test, CanonicalFormSortsI5Merges) {
  // In the canonical form rule I5 is applied in <p order, so the three
  // authors inserted after node 7 come out lexicographically sorted:
  // A.Chaudhri, F.Cavalieri, G.Guerrini (then the month from I15).
  auto canonical = Reduce(pul_, {.mode = ReduceMode::kCanonical});
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  std::multiset<std::string> expected = {
      "repN(5, <year>2004</year>, <title>Report on EDBT04</title>, "
      "<author>M.Mesiti</author>)",
      "insAfter(7, <author>A.Chaudhri</author>, <author>F.Cavalieri</author>, "
      "<author>G.Guerrini</author>, <month>March</month>)",
      "insFirst(16, <author>P.Gardner</author>)",
  };
  EXPECT_EQ(Fingerprints(*canonical), expected);
}

TEST_F(Example5Test, CanonicalFormIsOrderInvariant) {
  // Shuffling the input operations must not change the canonical form.
  auto baseline = Reduce(pul_, {.mode = ReduceMode::kCanonical});
  ASSERT_TRUE(baseline.ok());
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    Pul shuffled = pul_;
    rng.Shuffle(shuffled.mutable_ops());
    auto canonical = Reduce(shuffled, {.mode = ReduceMode::kCanonical});
    ASSERT_TRUE(canonical.ok()) << canonical.status();
    EXPECT_EQ(Fingerprints(*canonical), Fingerprints(*baseline))
        << "trial " << trial;
  }
}

TEST_F(Example5Test, ReductionsAreSubstitutable) {
  // Proposition 1: every reduction is substitutable to the original.
  for (ReduceMode mode : {ReduceMode::kPlain, ReduceMode::kDeterministic,
                          ReduceMode::kCanonical}) {
    auto reduced = Reduce(pul_, {.mode = mode});
    ASSERT_TRUE(reduced.ok());
    auto sub = pul::IsSubstitutable(doc_, *reduced, pul_);
    ASSERT_TRUE(sub.ok()) << sub.status();
    EXPECT_TRUE(*sub) << "mode " << static_cast<int>(mode);
  }
}

TEST_F(Example5Test, ReductionIsIdempotent) {
  // Proposition 1: (Delta^r)^r = Delta^r.
  for (ReduceMode mode : {ReduceMode::kPlain, ReduceMode::kDeterministic,
                          ReduceMode::kCanonical}) {
    auto once = Reduce(pul_, {.mode = mode});
    ASSERT_TRUE(once.ok());
    auto twice = Reduce(*once, {.mode = mode});
    ASSERT_TRUE(twice.ok());
    EXPECT_EQ(Fingerprints(*once), Fingerprints(*twice));
  }
}

}  // namespace
}  // namespace xupdate::core
