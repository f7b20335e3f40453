#include "core/fold.h"

#include "core/aggregate.h"
#include "core/reduce.h"
#include "pul/apply.h"

namespace xupdate::core {

Result<pul::Pul> FoldCanonical(const std::vector<pul::Pul>& puls,
                               const FoldOptions& options) {
  pul::Pul folded;
  if (puls.size() == 1) {
    folded = puls.front();
  } else {
    std::vector<const pul::Pul*> pointers;
    pointers.reserve(puls.size());
    for (const pul::Pul& pul : puls) pointers.push_back(&pul);
    AggregateOptions aggregate_options;
    aggregate_options.metrics = options.metrics;
    aggregate_options.tracer = options.tracer;
    XUPDATE_ASSIGN_OR_RETURN(folded, Aggregate(pointers, aggregate_options));
  }
  ReduceOptions reduce_options;
  reduce_options.mode = ReduceMode::kCanonical;
  reduce_options.parallelism = options.parallelism;
  reduce_options.metrics = options.metrics;
  return Reduce(folded, reduce_options);
}

Result<pul::Pul> FoldVerified(const std::vector<pul::Pul>& puls,
                              const xml::Document& from,
                              const xml::Document& to,
                              const FoldOptions& options) {
  XUPDATE_ASSIGN_OR_RETURN(pul::Pul canon, FoldCanonical(puls, options));
  xml::Document scratch = from;
  XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&scratch, canon));
  XUPDATE_ASSIGN_OR_RETURN(bool same,
                           xml::Document::SameAnnotated(scratch, to));
  if (!same) {
    return Status::Internal("fold does not reproduce the target document");
  }
  return canon;
}

}  // namespace xupdate::core
