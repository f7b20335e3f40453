#ifndef XUPDATE_ANALYSIS_SCHEMA_LINT_H_
#define XUPDATE_ANALYSIS_SCHEMA_LINT_H_

#include "analysis/diagnostic.h"
#include "pul/pul.h"
#include "schema/schema.h"

namespace xupdate::analysis {

// Schema lint: the XU008-XU010 findings derivable only with a schema in
// hand. Like LintPul, it candidate-types every target through its
// (level, node type) label — a PUL never names its targets — so a
// finding fires only when *no* candidate typing admits the op's result.
// Returns findings sorted by (op_index, code); callers merge with
// LintPul's report.
[[nodiscard]] DiagnosticReport LintPulWithSchema(const schema::Schema& schema,
                                                 const pul::Pul& pul);

}  // namespace xupdate::analysis

#endif  // XUPDATE_ANALYSIS_SCHEMA_LINT_H_
