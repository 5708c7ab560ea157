#ifndef MSQL_MEASURE_CSE_H_
#define MSQL_MEASURE_CSE_H_

#include <memory>
#include <vector>

#include "binder/bound_expr.h"
#include "common/status.h"
#include "exec/eval.h"
#include "exec/relation.h"
#include "measure/context.h"

namespace msql {

// Context-sensitive expression evaluation (paper section 4): building
// evaluation contexts at call sites, applying AT modifiers, and evaluating a
// measure's formula over the source rows its context admits.

// Translates an expression bound over a relation's schema into one over the
// measure's source schema using the measure's provenance map:
//  * depth-0 column refs map through `m.provenance` (error if the column has
//    no provenance — it is not a dimension of the measure);
//  * depth>=1 refs are closed over: evaluated against `close_over[depth-1]`
//    and replaced by literals;
//  * kCurrent nodes resolve against `incoming` (SQL NULL when unset).
Result<BoundExprPtr> TranslateToSource(const BoundExpr& e, const RtMeasure& m,
                                       const RowStack& close_over,
                                       const EvalContext* incoming,
                                       ExecState* state);

// Builds the default per-row evaluation context: one dimension term per
// visible column with provenance, pinned to the current row's value.
Result<EvalContext> BuildRowContext(const RtMeasure& m, const Frame& frame,
                                    ExecState* state);

// Applies AT modifiers (paper table 3) in order. `call_stack` is the call
// site's scope stack (frame 0 = current row or group representative);
// `visible_rowids` supplies the source row ids for the VISIBLE modifier.
Status ApplyModifiers(const RtMeasure& m,
                      const std::vector<BoundAtModifier>& mods,
                      const RowStack& call_stack,
                      const std::shared_ptr<const std::vector<int64_t>>&
                          visible_rowids,
                      ExecState* state, EvalContext* ctx);

// Evaluates the measure in a context: selects the admitted source rows and
// evaluates the formula over them, memoizing by context signature when the
// engine strategy allows. Under MeasureStrategy::kGrouped, all-dimension
// contexts are answered by a lookup in a per-shape key->value table of the
// measure instead of a scan; see measure/grouped.h.
Result<Value> EvaluateMeasure(const RtMeasure& m, const EvalContext& ctx,
                              ExecState* state);

// Evaluates a measure formula (aggregates, nested measure refs, scalar
// combinators) over an explicit set of source rows.
Result<Value> EvalFormulaOverRows(const BoundExpr& formula,
                                  const Relation& source,
                                  const std::vector<int64_t>& rows,
                                  ExecState* state);

// Full per-row call-site evaluation of a kMeasureEval expression (used for
// measures referenced outside GROUP BY contexts, e.g. in WHERE clauses).
Result<Value> EvalMeasureAtRow(const BoundExpr& e, const RowStack& stack,
                               Evaluator* ev);

// Collects the distinct, sorted source row-ids of `rows` (indices into
// `rel.rows`) through the measure's hidden row-id column.
Result<std::shared_ptr<const std::vector<int64_t>>> CollectRowIds(
    const RtMeasure& m, const Relation& rel, const std::vector<int64_t>& rows);

}  // namespace msql

#endif  // MSQL_MEASURE_CSE_H_
