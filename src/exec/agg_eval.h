#ifndef MSQL_EXEC_AGG_EVAL_H_
#define MSQL_EXEC_AGG_EVAL_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "binder/bound_expr.h"
#include "common/status.h"
#include "exec/column_vector.h"
#include "exec/eval.h"
#include "exec/relation.h"

namespace msql {

// Evaluates one aggregate call over the given rows (indices into rel.rows).
// `outer` supplies frames for correlated references (depth >= 1) inside the
// arguments; DISTINCT (each argument tuple's first row, by GroupRowsByKey)
// and FILTER are honored. Shared by the Aggregate executor, the window
// executor and the measure-formula evaluator.
Result<Value> EvalAggCall(AggId agg, const std::vector<BoundExprPtr>& args,
                          bool distinct, const BoundExpr* filter,
                          const Relation& rel,
                          const std::vector<int64_t>& rows,
                          const RowStack& outer, ExecState* state);

// Positions 0..n-1: the grouping set of a key tuple's every column.
std::vector<int> AllPositions(size_t n);

// Tuple -> group index under GROUP BY key semantics.
using TupleToGroup = std::unordered_map<Row, size_t, RowKeyHash, RowKeyEq>;

// Rows [0, n) partitioned by a key tuple, groups in first-seen order:
// rows[g] holds group g's row indexes, ascending. Group g's tuple is
// keys[g], or — for a caller that keeps the map — the key that maps to g.
struct RowGroups {
  std::vector<Row> keys;
  TupleToGroup map;
  std::vector<std::vector<int64_t>> rows;
};

// Groups rows [0, n) by the key positions `set` selects, under IS NOT
// DISTINCT FROM equality: NULL equals NULL, NaN equals nothing (not even
// NaN), 0.0 equals -0.0, and INT 2 equals DOUBLE 2.0. Keys come from
// `key_cols` (one column per key position) when it is non-empty, else from
// `key_rows` (row i's key tuple holds every position of `set`). The empty
// set is one group of every row (none when n is 0).
// Columns of kind BOOL, INT64, DATE, NULL or dedup'd-dictionary STRING
// group by their tuple of payload codes and NULL mask in a flat hash table,
// building each group's key Values once; other keys (row-evaluated, DOUBLE,
// a degraded dictionary) hash Value tuples, and columnar ones among them
// count an exec row fallback; ExecMode::kRow runs this Value-tuple arm.
// With `keep_map` the tuples are returned in out->map, a lookup structure
// for the caller (out->keys stays empty); otherwise out->keys holds them.
// The executor's one row hashing: the Aggregate, DISTINCT, UNION / EXCEPT /
// INTERSECT, window PARTITION BY, the hash-join build, DISTINCT aggregate
// arguments and the grouped measure partition all group through it.
Status GroupRowsByKey(const std::vector<ColumnPtr>& key_cols,
                      std::span<const Row> key_rows,
                      const std::vector<int>& set, int64_t n, bool keep_map,
                      ExecState* state, RowGroups* out);

}  // namespace msql

#endif  // MSQL_EXEC_AGG_EVAL_H_
