#ifndef MSQL_EXEC_EVAL_H_
#define MSQL_EXEC_EVAL_H_

#include <vector>

#include "binder/bound_expr.h"
#include "common/status.h"
#include "exec/exec_state.h"
#include "exec/relation.h"
#include "measure/context.h"

namespace msql {

// One scope frame during evaluation. `rel` (when set) gives access to the
// relation's measures and is required for kMeasureEval / kRowIndex; `row`
// may point at a synthetic row (e.g. a group key tuple) with rel == null.
struct Frame {
  const Row* row = nullptr;
  int64_t row_index = -1;
  const Relation* rel = nullptr;
};

// stack[depth] is the scope a kColumnRef with that depth resolves against;
// stack[0] is the innermost row.
using RowStack = std::vector<Frame>;

// `outer` under a new innermost frame, stack[0], for the caller to set.
inline RowStack StackOver(const RowStack& outer) {
  RowStack stack{Frame{}};
  stack.insert(stack.end(), outer.begin(), outer.end());
  return stack;
}

// Row-at-a-time expression evaluator. Aggregate calls never reach it (they
// live in Aggregate nodes, window defs and measure formulas); measure
// evaluations are delegated to the CSE evaluator in src/measure/.
class Evaluator {
 public:
  explicit Evaluator(ExecState* state) : state_(state) {}

  ExecState* state() const { return state_; }

  // Context for CURRENT-dim resolution while evaluating AT-modifier
  // sub-expressions; null elsewhere.
  const EvalContext* current_context = nullptr;
  const RtMeasure* current_measure = nullptr;

  Result<Value> Eval(const BoundExpr& e, const RowStack& stack);

  // Evaluates a predicate; NULL counts as false.
  Result<bool> EvalPredicate(const BoundExpr& e, const RowStack& stack);

 private:
  ExecState* state_;
};

// SQL LIKE with % and _ wildcards.
bool SqlLike(const std::string& text, const std::string& pattern);

}  // namespace msql

#endif  // MSQL_EXEC_EVAL_H_
