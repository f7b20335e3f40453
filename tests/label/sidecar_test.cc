#include "label/sidecar.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "pul/apply.h"
#include "testing/test_docs.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xupdate::label {
namespace {

using xml::Document;
using xml::NodeId;

TEST(SidecarTest, RoundTripPreservesIdsAndLabels) {
  Document doc = xupdate::testing::PaperFigureDocument();
  Labeling labeling = Labeling::Build(doc);
  auto sidecar = SaveSidecar(doc, labeling);
  ASSERT_TRUE(sidecar.ok()) << sidecar.status();
  auto plain = xml::SerializeDocument(doc);
  ASSERT_TRUE(plain.ok());
  // The plain serialization carries no annotations at all.
  EXPECT_EQ(plain->find("xu:ids"), std::string::npos);
  EXPECT_EQ(plain->find("xuid"), std::string::npos);

  auto loaded = LoadWithSidecar(*plain, *sidecar);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(Document::SubtreeEquals(doc, doc.root(), loaded->doc,
                                      loaded->doc.root(),
                                      /*compare_ids=*/true));
  EXPECT_EQ(loaded->labeling.size(), labeling.size());
  for (NodeId id : doc.AllNodesInOrder()) {
    const NodeLabel* original = labeling.Find(id);
    const NodeLabel* restored = loaded->labeling.Find(id);
    ASSERT_NE(restored, nullptr) << "node " << id;
    EXPECT_EQ(testing::LabelText(*original), testing::LabelText(*restored));
  }
  EXPECT_TRUE(loaded->labeling.Validate(loaded->doc).ok());
}

TEST(SidecarTest, PreservesIncrementallyMaintainedLabels) {
  // Apply an update with label maintenance, persist via sidecar, and
  // check the squeezed-in codes survive verbatim (the derive-at-parse
  // scheme would regenerate different codes).
  Document doc = xupdate::testing::PaperFigureDocument();
  Labeling labeling = Labeling::Build(doc);
  pul::Pul pul;
  pul.BindIdSpace(doc.max_assigned_id() + 1);
  auto frag = pul.AddFragment("<inserted/>");
  ASSERT_TRUE(frag.ok());
  ASSERT_TRUE(
      pul.AddTreeOp(pul::OpKind::kInsAfter, 5, labeling, {*frag}).ok());
  pul::ApplyOptions opts;
  opts.labeling = &labeling;
  ASSERT_TRUE(pul::ApplyPul(&doc, pul, opts).ok());

  auto sidecar = SaveSidecar(doc, labeling);
  ASSERT_TRUE(sidecar.ok()) << sidecar.status();
  auto plain = xml::SerializeDocument(doc);
  ASSERT_TRUE(plain.ok());
  auto loaded = LoadWithSidecar(*plain, *sidecar);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(testing::LabelText(*loaded->labeling.Find(*frag)),
            testing::LabelText(*labeling.Find(*frag)));
  // The id watermark survives: fresh ids do not reuse deleted ones.
  EXPECT_GT(loaded->doc.max_assigned_id(), doc.max_assigned_id() - 1);
}

TEST(SidecarTest, RandomDocumentsRoundTrip) {
  Rng rng(1212);
  for (int trial = 0; trial < 20; ++trial) {
    Document doc = xupdate::testing::RandomDocument(rng, 30);
    Labeling labeling = Labeling::Build(doc);
    auto sidecar = SaveSidecar(doc, labeling);
    ASSERT_TRUE(sidecar.ok());
    auto plain = xml::SerializeDocument(doc);
    ASSERT_TRUE(plain.ok());
    auto loaded = LoadWithSidecar(*plain, *sidecar);
    ASSERT_TRUE(loaded.ok()) << loaded.status() << "\n" << *plain;
    EXPECT_TRUE(Document::SubtreeEquals(doc, doc.root(), loaded->doc,
                                        loaded->doc.root(),
                                        /*compare_ids=*/true));
    EXPECT_TRUE(loaded->labeling.Validate(loaded->doc).ok());
  }
}

TEST(SidecarTest, RejectsCorruptSidecars) {
  Document doc = xupdate::testing::PaperFigureDocument();
  Labeling labeling = Labeling::Build(doc);
  auto sidecar = SaveSidecar(doc, labeling);
  ASSERT_TRUE(sidecar.ok());
  auto plain = xml::SerializeDocument(doc);
  ASSERT_TRUE(plain.ok());

  EXPECT_FALSE(LoadWithSidecar(*plain, "garbage").ok());
  EXPECT_FALSE(LoadWithSidecar(*plain, "").ok());
  // Entry count mismatch: drop the last line.
  std::string truncated = *sidecar;
  truncated.erase(truncated.rfind('\n', truncated.size() - 2) + 1);
  EXPECT_FALSE(LoadWithSidecar(*plain, truncated).ok());
  // Wrong document for the sidecar (too few nodes).
  EXPECT_FALSE(LoadWithSidecar("<tiny/>", *sidecar).ok());
}

TEST(SidecarTest, SidecarPlusPlainIsSmallerThanInline) {
  // The paper's motivation: inline annotations ~triple the document; a
  // sidecar keeps the document pristine. (The *combined* footprint is
  // larger here because the sidecar also persists full labels, which the
  // inline scheme re-derives — the win is the untouched document.)
  Document doc = xupdate::testing::PaperFigureDocument();
  Labeling labeling = Labeling::Build(doc);
  auto plain = xml::SerializeDocument(doc);
  xml::SerializeOptions annotated_opts;
  annotated_opts.with_ids = true;
  auto annotated = xml::SerializeDocument(doc, annotated_opts);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(annotated.ok());
  EXPECT_LT(plain->size(), annotated->size());
}

TEST(SidecarTest, RequiresFullyLabeledDocument) {
  Document doc = xupdate::testing::PaperFigureDocument();
  Labeling labeling = Labeling::Build(doc);
  labeling.Erase(5);
  EXPECT_FALSE(SaveSidecar(doc, labeling).ok());
}

}  // namespace
}  // namespace xupdate::label
