#ifndef MSQL_EXEC_VECTOR_EVAL_H_
#define MSQL_EXEC_VECTOR_EVAL_H_

#include <memory>

#include "binder/bound_expr.h"
#include "common/arena.h"
#include "common/status.h"
#include "exec/column_vector.h"
#include "exec/relation.h"

namespace msql {

struct ExecState;

// Whether a vectorized code path may run right now. kRowMode: the engine is
// configured for row-at-a-time execution (not a fallback, not counted).
// kFaulted: the `exec.vectorized_kernel` fault point fired — a *degradable*
// checkpoint, mirroring measure.grouped_index_build: the op silently takes
// the row path (exec_row_fallbacks is incremented here) and must produce
// identical results. kOk: go vectorized.
enum class VectorGate { kRowMode, kFaulted, kOk };

VectorGate VectorizedGate(ExecState* state);

// Evaluates `e` over every row of `rel`, producing one typed column with
// payload storage in `arena`. Returns a null ColumnPtr (with an OK status)
// when no kernel covers the expression — the caller falls back to the row
// path; a non-OK status is a real evaluation error (division by zero,
// guard trip), exactly the error the row path would have produced.
//
// Kernels mirror Evaluator/EvalScalarFunction bit for bit: Kleene
// three-valued AND/OR/NOT over validity+truth bitmaps, IS [NOT] DISTINCT
// FROM and `=` via Value::NotDistinct, ordering via Value::Compare, arith-
// metic with the same INT64/DOUBLE/DATE promotion rules, `x [NOT] IN` over
// literal and parameter items with the row arm's three-valued result.
// Column references are zero-copy when `rel` carries a columnar sidecar.
Result<ColumnPtr> EvalVector(const BoundExpr& e, const Relation& rel,
                             const std::shared_ptr<Arena>& arena,
                             ExecState* state);

}  // namespace msql

#endif  // MSQL_EXEC_VECTOR_EVAL_H_
