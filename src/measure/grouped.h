#ifndef MSQL_MEASURE_GROUPED_H_
#define MSQL_MEASURE_GROUPED_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/agg_eval.h"
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
// DISTINCT FROM, matching the paper's footnote-1 NULL semantics) into a
// GroupedIndex, and each group's value is the formula over that group's
// rows — the Data Cube observation: one pass over the source answers
// every cell. The partition is built once per query for each (source,
// shape) and shared by every measure over that source; a MeasureTable
// pairs it with one value slot per group, and is cached per query and in
// the SharedMeasureCache under (catalog generation, parameter signature,
// measure fingerprint, shape). A context is one hash lookup; a group's
// value is computed the first time any query asks for it and published
// for every later lookup, so a selective query (a point lookup, a narrow
// WHERE) evaluates only the groups it reads, and a tuple absent from the
// source reads the empty group.
//
// Formulas with subqueries, nested measure references or CURRENT reach
// through per-query state, so their values are not kept in the table:
// their contexts probe the bare GroupedIndex and memoize per context.
// Contexts containing predicate terms (AT (WHERE ...), whose translated
// predicates close over per-row values and so never repeat) or row-id
// terms (VISIBLE, already served by the section 6.4 inline fast path) are
// not groupable and take the existing scan/inline paths.

// The batchable skeleton of an evaluation context: its dimension terms in
// canonical (key-sorted) order, and a signature that keeps the dimension
// keys while stripping the pinned values. Two contexts share a table iff
// their signatures match.
struct ContextShape {
  std::vector<const ContextTerm*> dims;  // borrowed from the EvalContext
  std::vector<size_t> positions;  // dims[d] == &ctx.terms()[positions[d]]
  std::string signature;          // "g:k1&k2&..."; empty = ungroupable
  bool groupable() const { return !signature.empty(); }
  // The pinned dimension tuple, in shape order.
  Row Key() const;
};

// Shape of `ctx`: groupable iff it is non-empty and every term is a
// dimension equality. The returned term pointers borrow from `ctx`.
ContextShape ShapeOf(const EvalContext& ctx);

// Immutable dimension-tuple partition of a measure source for one context
// shape: each distinct tuple maps to a group whose ascending source row
// indexes are rows[group]. The last group is empty; it stands for every
// tuple no source row has.
struct GroupedIndex {
  RowGroupMap groups;
  std::vector<std::vector<int64_t>> rows;
  uint64_t approx_bytes = 0;

  // The group of the dimension tuple `key` (shape order).
  size_t GroupOf(const Row& key) const;
};

// One measure's values over a GroupedIndex, one slot per group, filled on
// first lookup. A value is published once (compare-and-swap), so lookups
// from concurrent queries sharing the table never block; two racing
// fillers compute the same value and one copy is kept. Errors are never
// stored: a group whose formula fails (say, a division by zero) fails
// exactly the queries that ask for it.
class MeasureTable {
 public:
  explicit MeasureTable(std::shared_ptr<const GroupedIndex> index);
  ~MeasureTable();
  MeasureTable(const MeasureTable&) = delete;
  MeasureTable& operator=(const MeasureTable&) = delete;

  // One lookup: the value of `m` (the measure the table was built for) for
  // the dimension tuple `key`, in shape order.
  Result<Value> Lookup(const RtMeasure& m, const Row& key,
                       ExecState* state) const;

  // Residency estimate: the partition plus one Value per slot.
  uint64_t approx_bytes() const { return approx_bytes_; }

 private:
  std::shared_ptr<const GroupedIndex> index_;
  mutable std::vector<std::atomic<const Value*>> values_;
  uint64_t approx_bytes_;
};

// Whether `m`'s contexts of a groupable shape are answered from a
// MeasureTable under the current options: the grouped strategy and a
// formula without subqueries, nested measures or CURRENT.
bool UsesMeasureTable(const RtMeasure& m, const ExecState& state);

// Returns the table for (m, shape), from the per-query cache, the
// cross-query SharedMeasureCache, or a fresh partition. Returns null —
// after bumping measure_grouped_fallbacks — when the build was degraded at
// the `measure.grouped_index_build` fault checkpoint; callers then fall
// back to the scan path, never failing the query.
Result<std::shared_ptr<const MeasureTable>> GetOrBuildMeasureTable(
    const RtMeasure& m, const ContextShape& shape, ExecState* state);

// Same caching and degradation contract as GetOrBuildMeasureTable, for
// formulas the table cannot take.
Result<std::shared_ptr<const GroupedIndex>> GetOrBuildGroupedIndex(
    const RtMeasure& m, const ContextShape& shape, ExecState* state);

// O(1) probe: evaluates the formula over the rows admitted by the context
// that produced `shape` (an absent tuple aggregates over zero rows).
Result<Value> EvalGroupedProbe(const GroupedIndex& index, const RtMeasure& m,
                               const ContextShape& shape, ExecState* state);

// True when `e` can be evaluated on a worker thread against a private
// ExecState, and its per-group values kept in a table shared across
// queries: no subqueries, nested measure references or CURRENT nodes
// (those reach through shared per-query state). Gates parallel key
// evaluation in the partition build and which formulas get a MeasureTable.
bool IsParallelSafe(const BoundExpr& e);

// Batch call-site API, used by the executor's Aggregate operator and the
// engine's top-level render loop: evaluates `m` once per context. When the
// contexts share one groupable shape and `m` uses a table, the table is
// fetched once and each context is one lookup; everything else goes
// through EvaluateMeasure one context at a time. Results are positionally
// aligned with `contexts`, and identical to the per-context serial path
// under every strategy.
Result<std::vector<Value>> EvaluateMeasureBatch(
    const RtMeasure& m, const std::vector<EvalContext>& contexts,
    ExecState* state);

}  // namespace msql

#endif  // MSQL_MEASURE_GROUPED_H_
