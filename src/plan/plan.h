#ifndef MSQL_PLAN_PLAN_H_
#define MSQL_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "binder/bound_expr.h"
#include "catalog/schema.h"
#include "catalog/table.h"
#include "parser/ast.h"

namespace msql {

enum class PlanKind {
  kScanTable,
  kValues,
  kProject,
  kFilter,
  kAggregate,
  kJoin,
  kSort,
  kLimit,
  kDistinct,
  kSetOp,
  kWindow,
};

// Bind-time description of a measure carried by a plan node's output
// (paper section 3.4: a measure column of a table). Two flavors:
//  * define:    a new measure created by `expr AS MEASURE name`; its source
//               is this node's (only) child, and `formula` is bound against
//               the child schema.
//  * propagate: a measure inherited from child `child_index`, slot
//               `child_slot`; the provenance map and row-id column are
//               re-expressed for this node's output schema.
struct PlanMeasure {
  bool define = false;
  std::string name;
  DataType value_type;

  // define
  std::shared_ptr<BoundExpr> formula;  // over the source (child) schema

  // propagate
  int child_index = 0;
  int child_slot = -1;

  // both
  int column = -1;    // measure column in this node's schema
  int rowid_col = -1; // hidden row-id column in this node's schema
  // Provenance: this node's visible column index -> expression over the
  // measure's *source* schema, when derivable. Group keys with provenance
  // become dimension terms of the evaluation context.
  std::unordered_map<int, std::shared_ptr<BoundExpr>> provenance;
};

// Sort key over the child schema.
struct SortKeyDef {
  BoundExprPtr expr;
  bool desc = false;
  bool nulls_first = true;  // SQL default: NULLS FIRST asc, NULLS LAST desc
};

// One aggregate call inside an Aggregate node, bound over the child schema.
struct AggCallDef {
  AggId agg = AggId::kInvalid;
  std::vector<BoundExprPtr> args;
  bool distinct = false;
  BoundExprPtr filter;
  DataType type;
};

// One measure evaluation inside an Aggregate node: measure `measure_slot`
// of the child relation, with AT modifiers, evaluated once per output group
// in the group's context.
struct MeasureEvalDef {
  int measure_slot = -1;
  std::vector<BoundAtModifier> modifiers;
  DataType type;
  std::string display;
};

// One window function over the child: evaluated per row within its
// partition; with ORDER BY the frame is the running prefix, without it the
// whole partition.
struct WindowDef {
  AggId agg = AggId::kInvalid;
  std::vector<BoundExprPtr> args;
  std::vector<BoundExprPtr> partition_by;
  std::vector<std::pair<BoundExprPtr, bool /*desc*/>> order_by;
  DataType type;
};

// An immutable logical plan node. The executor interprets the tree directly;
// `schema` lists visible columns first, then hidden (row-id / grouping-id)
// columns.
struct LogicalPlan {
  PlanKind kind = PlanKind::kScanTable;
  Schema schema;
  std::vector<std::shared_ptr<LogicalPlan>> children;
  std::vector<PlanMeasure> measures;

  // kScanTable
  std::shared_ptr<Table> table;

  // kValues: rows of constant expressions.
  std::vector<std::vector<BoundExprPtr>> values_rows;

  // kProject: one expression per output column (visible and hidden).
  std::vector<BoundExprPtr> exprs;

  // kFilter (also HAVING): the rows kept. kProject: the pre-filter, over
  // the child; null projects every child row (plan/rewrite.h).
  BoundExprPtr predicate;

  // kJoin
  JoinType join_type = JoinType::kInner;
  BoundExprPtr join_condition;  // over the combined schema; null = cross

  // kAggregate. Output schema:
  //   [group_exprs...] [agg_calls...] [measure_evals...] [__grouping_id]
  // where __grouping_id is hidden (bit i set = group_exprs[i] aggregated
  // away in this grouping set).
  std::vector<BoundExprPtr> group_exprs;          // over child
  std::vector<std::vector<int>> grouping_sets;    // indices into group_exprs
  std::vector<AggCallDef> agg_calls;
  std::vector<MeasureEvalDef> measure_evals;

  // kSort
  std::vector<SortKeyDef> sort_keys;

  // kLimit
  BoundExprPtr limit_expr;   // may be null
  BoundExprPtr offset_expr;  // may be null

  // kSetOp
  SetOpKind set_op = SetOpKind::kNone;

  // kWindow. Output schema: child visible ++ window cols ++ child hidden.
  std::vector<WindowDef> windows;

  // One-line operator label, without indentation, children or newline.
  // Shared by ToString and the obs EXPLAIN / EXPLAIN ANALYZE renderer
  // (src/obs/explain.cc), so both outputs agree on the node text.
  std::string NodeLabel() const;

  // EXPLAIN rendering.
  std::string ToString(int indent = 0) const;
};

using PlanPtr = std::shared_ptr<LogicalPlan>;

// Measures of a node whose output schema is its only child's (Filter, Sort,
// Limit): each child measure propagates to the same slot and columns.
std::vector<PlanMeasure> PropagateSameSchema(const LogicalPlan& child);

}  // namespace msql

#endif  // MSQL_PLAN_PLAN_H_
