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

// The one plan rewrite: filter pushdown below joins. For every Filter
// directly above a Join, each WHERE conjunct that reads one join input only
// moves into a new Filter directly above that input. INNER and CROSS joins
// take either side, LEFT only the left, RIGHT only the right, FULL nothing.
// A Filter moves nothing when one of its conjuncts, or the join condition,
// could raise an error: only column refs, literals, parameters,
// comparisons, IN-list, IS [NOT] NULL, LIKE, AND/OR/NOT and the wrapping
// arithmetic + - * count as safe (BETWEEN binds to comparisons). So moving
// conjuncts never changes which rows a raising expression sees.
//
// The new Filter sits directly above the input and propagates its measures
// unchanged, so it never goes below a node that defines measures: a
// measure's source, and every AT (ALL) / SET context over it, still reads
// the unfiltered rows. Recurses through nested joins and the whole plan
// tree, but not into subquery-expression plans.
//
// Rewrites `plan` in place, so it must be freshly bound and unshared;
// returns the new root (the root Filter goes when all its conjuncts move).
PlanPtr PushFiltersBelowJoins(PlanPtr plan);

}  // namespace msql

#endif  // MSQL_PLAN_REWRITE_H_
