#include "exec/executor.h"

#include <algorithm>

#include "pul/apply.h"
#include "pul/pul_io.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xupdate::exec {

namespace {

// Size of the id block handed to each producer at check-out.
constexpr xml::NodeId kIdBlock = xml::NodeId{1} << 24;

}  // namespace

PulExecutor::PulExecutor(xml::Document document, label::Labeling labeling)
    : document_(std::move(document)), labeling_(std::move(labeling)) {
  next_id_base_ = document_.max_assigned_id() + 1;
}

Result<PulExecutor> PulExecutor::Open(xml::Document document) {
  if (document.root() == xml::kInvalidNode) {
    return Status::InvalidArgument("document has no root");
  }
  label::Labeling labeling = label::Labeling::Build(document);
  return PulExecutor(std::move(document), std::move(labeling));
}

Result<PulExecutor> PulExecutor::Open(std::string_view annotated_xml) {
  XUPDATE_ASSIGN_OR_RETURN(xml::Document document,
                           xml::ParseDocument(annotated_xml));
  return Open(std::move(document));
}

Result<PulExecutor::Checkout> PulExecutor::CheckOut() {
  Checkout out;
  XUPDATE_ASSIGN_OR_RETURN(out.document, Serialize());
  out.version = version_;
  // Round the base up to a block boundary beyond every known id, so
  // concurrent producers never clash (§4.1: "each producer has an
  // assigned identification space").
  xml::NodeId floor =
      std::max(next_id_base_, document_.max_assigned_id() + 1);
  out.id_base = ((floor + kIdBlock - 1) / kIdBlock) * kIdBlock;
  out.id_limit = out.id_base + kIdBlock;
  next_id_base_ = out.id_limit;
  return out;
}

Status PulExecutor::Commit(const pul::Pul& pul) {
  pul::ApplyOptions options;
  options.labeling = &labeling_;
  XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&document_, pul, options));
  ++version_;
  return Status::OK();
}

Status PulExecutor::CommitParallel(
    const std::vector<const pul::Pul*>& puls,
    core::ReconcileStats* stats) {
  if (puls.empty()) return Status::InvalidArgument("no PULs to commit");
  if (puls.size() == 1) return Commit(*puls[0]);
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul merged,
                           core::Reconcile(puls, {}, stats));
  return Commit(merged);
}

Status PulExecutor::CommitSequence(
    const std::vector<const pul::Pul*>& puls,
    core::AggregateStats* stats) {
  if (puls.empty()) return Status::InvalidArgument("no PULs to commit");
  if (puls.size() == 1) return Commit(*puls[0]);
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul aggregate,
                           core::Aggregate(puls, {}, stats));
  return Commit(aggregate);
}

Status PulExecutor::CommitParallelSerialized(
    const std::vector<std::string>& puls, core::ReconcileStats* stats) {
  std::vector<pul::Pul> parsed;
  parsed.reserve(puls.size());
  for (const std::string& text : puls) {
    XUPDATE_ASSIGN_OR_RETURN(pul::Pul pul, pul::ParsePul(text));
    parsed.push_back(std::move(pul));
  }
  std::vector<const pul::Pul*> ptrs;
  ptrs.reserve(parsed.size());
  for (const pul::Pul& pul : parsed) ptrs.push_back(&pul);
  return CommitParallel(ptrs, stats);
}

Result<std::string> PulExecutor::Serialize() const {
  xml::SerializeOptions options;
  options.with_ids = true;
  return xml::SerializeDocument(document_, options);
}

}  // namespace xupdate::exec
