#ifndef MSQL_PLAN_REWRITE_H_
#define MSQL_PLAN_REWRITE_H_

#include <cstddef>
#include <vector>

#include "plan/plan.h"

namespace msql {

// Which input of a join an expression over the join's combined layout reads.
// The layout is left visible [0, lv), right visible [lv, lv+rv), left hidden
// [lv+rv, lv+rv+lh), right hidden after. Only depth-0 column references
// count; an expression holding a subquery or a measure reference reads
// kBoth, so neither the hash join nor the rewrite below takes it apart.
enum class JoinSide { kLeft, kRight, kBoth, kNeither };
JoinSide SideOf(const BoundExpr& e, size_t lv, size_t rv, size_t lh);

// A copy of `e`, an expression over the join's combined layout that reads
// `side` only (kLeft or kRight), over that input's own layout: its depth-0
// column references move to the input's column positions.
BoundExprPtr ToInputLayout(const BoundExpr& e, JoinSide side, size_t lv,
                           size_t rv, size_t lh);

// Flattens nested ANDs into their conjuncts, left to right.
void CollectConjuncts(const BoundExpr& e, std::vector<const BoundExpr*>* out);

// The one plan rewrite: filter pushdown. It takes a WHERE Filter down two
// kinds of node.
//
// Below a Join. For every Filter directly above a Join, each conjunct that
// reads one join input only moves into a new Filter directly above that
// input. INNER and CROSS joins take either side, LEFT only the left, RIGHT
// only the right, FULL nothing. The new Filter propagates its input's
// measures unchanged.
//
// Into a Project. A Filter directly above a Project becomes the Project's
// pre-filter (LogicalPlan::predicate on a kProject node): its predicate is
// rewritten over the Project's input by substituting the output
// expressions (`orderYear = 2024` becomes `YEAR(orderDate) = 2024`), and
// the Project then projects only the input rows that pass. A pre-filter on
// a Project that defines no measures sinks on into a Project directly
// below it, so a filter over a stack of views reaches the view that
// defines the measures. It goes no further: the defining Project's input
// stays the measures' unfiltered source, so every AT (ALL) / SET context
// still reads every row, the source's fingerprint (and so every shared
// cache key) is unchanged, and the hidden row id stays the input row's
// index.
//
// Nothing moves when a conjunct could raise an error, nor when the join
// condition or an output expression of a Project crossed could: moving
// would shrink the rows a raising expression sees and could hide the error
// the literal plan reports. Only column refs, literals, parameters, the row
// index, comparisons, IN-list, IS [NOT] NULL, LIKE, AND/OR/NOT, the
// wrapping arithmetic + - * and YEAR/MONTH/DAY/QUARTER/DAYOFWEEK (which
// bind over DATE or NULL only) count as safe; BETWEEN binds to
// comparisons.
//
// Recurses through nested joins and the whole plan tree, but not into
// subquery-expression plans. Rewrites `plan` in place, so it must be
// freshly bound and unshared; returns the new root (a Filter goes when all
// its conjuncts move).
PlanPtr PushDownFilters(PlanPtr plan);

}  // namespace msql

#endif  // MSQL_PLAN_REWRITE_H_
