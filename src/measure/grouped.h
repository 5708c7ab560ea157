#ifndef MSQL_MEASURE_GROUPED_H_
#define MSQL_MEASURE_GROUPED_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/exec_state.h"
#include "exec/relation.h"
#include "measure/context.h"

namespace msql {

// Grouped measure evaluation (MeasureStrategy::kGrouped, the default; see
// docs/PERFORMANCE.md).
//
// Every GROUP BY — and every per-row call site — produces a batch of
// evaluation contexts with the same *shape*: identical dimension-term
// expressions, differing only in the pinned values. Instead of scanning
// the measure source once per context (O(G x R)), the grouped strategy
// partitions the source ONCE by the shape's dimension tuple (IS NOT
// DISTINCT FROM, matching the paper's footnote-1 NULL semantics), and each
// group's value is the formula over that group's rows — the Data Cube
// observation: one pass over the source answers every cell. The partition
// is built once per query for each (source, shape) and shared by every
// measure over that source; a MeasureTable pairs it with one value slot
// per group, and is cached per query and in the SharedMeasureCache under
// (catalog generation, parameter signature, measure fingerprint, shape). A
// context is one hash lookup; a group's value is computed the first time
// any query asks for it and published for every later lookup, so a
// selective query (a point lookup, a narrow WHERE) evaluates only the
// groups it reads, and a tuple absent from the source reads the empty
// group.
//
// Every formula takes the table, including one that references a measure
// of its input (paper section 5.4): a group's value is a function of the
// group's rows alone, since the nested reference is evaluated over the
// input rows those rows reach. Contexts containing predicate terms (AT
// (WHERE ...), whose translated predicates close over per-row values and
// so never repeat) or row-id terms (VISIBLE, already served by the section
// 6.4 inline fast path) are not groupable and take the scan/inline paths.

// One measure's values over one context shape's partition of its source,
// one slot per group, filled on first lookup (defined in grouped.cc).
class MeasureTable;

// The one route from a context's shape to a table lookup, shared by
// EvaluateMeasure and EvaluateMeasureBatch: the table of the context's
// shape and where that shape's dimension values sit in the context's
// terms. Contexts with the same terms (kinds and keys, in order) share a
// route.
struct TableRoute {
  // Null when the contexts are not answered from a table: another
  // strategy, an ungroupable context, or a build degraded at the
  // `measure.grouped_index_build` fault checkpoint (callers then scan).
  std::shared_ptr<const MeasureTable> table;
  std::vector<size_t> positions;  // term index of each key column
  Row key;                        // lookup scratch

  // The value of `m` (the measure the route was made for) in `ctx`, which
  // has the same terms as the context the route was made for. A value is
  // computed on the first ask of any query and published once; errors are
  // never stored, so a group whose formula fails (say, a division by zero)
  // fails exactly the queries that ask for it.
  Result<Value> Lookup(const RtMeasure& m, const EvalContext& ctx,
                       ExecState* state);
};

// The route for `m`'s contexts shaped like `ctx`, with the table from the
// per-query cache, the cross-query SharedMeasureCache, or a fresh
// partition. A degraded build bumps measure_grouped_fallbacks and returns
// a null table; it never fails the query.
Result<TableRoute> RouteToTable(const RtMeasure& m, const EvalContext& ctx,
                                ExecState* state);

// Batch call-site API, used by the executor's Aggregate operator and the
// engine's top-level render loop: evaluates `m` once per context. When the
// contexts share one route, each context is one lookup; everything else
// goes through EvaluateMeasure one context at a time. Results are
// positionally aligned with `contexts`, and identical to the per-context
// serial path under every strategy.
Result<std::vector<Value>> EvaluateMeasureBatch(
    const RtMeasure& m, const std::vector<EvalContext>& contexts,
    ExecState* state);

}  // namespace msql

#endif  // MSQL_MEASURE_GROUPED_H_
