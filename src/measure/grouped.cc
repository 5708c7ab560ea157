#include "measure/grouped.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "exec/agg_eval.h"
#include "exec/eval.h"
#include "exec/vector_eval.h"
#include "measure/cse.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace msql {

// Immutable dimension-tuple partition of a measure source for one context
// shape, the part of a MeasureTable shared by every measure over that
// source: each distinct tuple maps to a group whose ascending source row
// indexes are rows[group]. The last group is empty; it stands for every
// tuple no source row has.
struct GroupedIndex {
  TupleToGroup groups;
  std::vector<std::vector<int64_t>> rows;
  uint64_t approx_bytes = 0;

  size_t GroupOf(const Row& key) const {
    auto it = groups.find(key);
    return it == groups.end() ? rows.size() - 1 : it->second;
  }
};

// One measure's values over a GroupedIndex, one slot per group. A value is
// published once (compare-and-swap), so lookups from concurrent queries
// sharing the table never block; two racing fillers compute the same value
// and one copy is kept.
class MeasureTable {
 public:
  explicit MeasureTable(std::shared_ptr<const GroupedIndex> index)
      : index_(std::move(index)),
        values_(index_->rows.size()),
        approx_bytes_(index_->approx_bytes +
                      values_.size() * (sizeof(std::atomic<const Value*>) +
                                        sizeof(Value))) {}
  ~MeasureTable() {
    for (std::atomic<const Value*>& v : values_) delete v.load();
  }
  MeasureTable(const MeasureTable&) = delete;
  MeasureTable& operator=(const MeasureTable&) = delete;

  // The value of `m` (the measure the table was built for) for the
  // dimension tuple `key`, in shape order.
  Result<Value> Lookup(const RtMeasure& m, const Row& key,
                       ExecState* state) const {
    ++state->measure_grouped_probes;
    const size_t g = index_->GroupOf(key);
    if (const Value* v = values_[g].load(std::memory_order_acquire)) return *v;
    // The first ask: the formula over the group's rows in ascending order —
    // the very evaluation a per-context scan would run, so results are
    // bit-identical. A failure (an error of the formula, or this query's
    // guard) is returned and nothing is published.
    MSQL_ASSIGN_OR_RETURN(Value v, EvalFormulaOverRows(*m.formula, *m.source,
                                                       index_->rows[g], state));
    auto fresh = std::make_unique<const Value>(v);
    const Value* expected = nullptr;
    if (values_[g].compare_exchange_strong(expected, fresh.get(),
                                           std::memory_order_acq_rel)) {
      fresh.release();
    }
    return v;
  }

  // Residency estimate: the partition plus one Value per slot.
  uint64_t approx_bytes() const { return approx_bytes_; }

 private:
  std::shared_ptr<const GroupedIndex> index_;
  mutable std::vector<std::atomic<const Value*>> values_;
  uint64_t approx_bytes_;
};

namespace {

// Private ExecState for one parallel worker: option snapshot, a guard fork
// (shared deadline/cancellation, zero charges) and the catalog generation.
// Caches, the shared cache, the profile hook and the pool provider stay
// unset — workers touch no cross-thread state and must never re-enter the
// pool they run on.
ExecState ForkWorkerState(const ExecState& s) {
  ExecState w;
  w.options = s.options;
  w.guard = s.guard.ForkWorker();
  w.catalog_generation = s.catalog_generation;
  w.depth = s.depth;
  return w;
}

// Folds a joined worker's guard charges and measure counters back into the
// query state. The guard merge can itself trip the merged budget.
Status JoinWorkerState(ExecState* state, const ExecState& w) {
  state->Add(w);
  return state->guard.MergeWorker(w.guard);
}

// The measure pool, or null when parallel evaluation is unavailable here:
// single-threaded by option, or running on a worker (no provider).
ThreadPool* MeasurePoolOrNull(ExecState* state) {
  if (state->options.measure_parallelism == 1) return nullptr;
  if (!state->measure_pool_provider) return nullptr;
  return state->measure_pool_provider();
}

// True when `e` can be evaluated on a worker thread against a private
// ExecState: no subqueries, nested measure references or CURRENT nodes
// (those reach through shared per-query state).
bool IsParallelSafe(const BoundExpr& e) {
  switch (e.kind) {
    case BoundExprKind::kSubquery:
    case BoundExprKind::kInSubquery:
    case BoundExprKind::kExists:
    case BoundExprKind::kMeasureEval:
    case BoundExprKind::kCurrent:
      return false;
    default:
      break;
  }
  for (const auto& a : e.args) {
    if (a != nullptr && !IsParallelSafe(*a)) return false;
  }
  if (e.filter != nullptr && !IsParallelSafe(*e.filter)) return false;
  for (const auto& [when, then] : e.when_clauses) {
    if (when != nullptr && !IsParallelSafe(*when)) return false;
    if (then != nullptr && !IsParallelSafe(*then)) return false;
  }
  if (e.else_expr != nullptr && !IsParallelSafe(*e.else_expr)) return false;
  if (e.operand != nullptr && !IsParallelSafe(*e.operand)) return false;
  if (e.current_dim != nullptr && !IsParallelSafe(*e.current_dim)) {
    return false;
  }
  return true;
}

using DimExprs = std::vector<std::shared_ptr<const BoundExpr>>;

// Evaluates the dimension tuple for source row `i` into *key.
Status EvalKeyRow(const DimExprs& dims, const Relation& src, int64_t i,
                  Evaluator* ev, RowStack* stack, Row* key) {
  (*stack)[0] = Frame{&src.rows[i], i, &src};
  key->resize(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    MSQL_ASSIGN_OR_RETURN((*key)[d], ev->Eval(*dims[d], *stack));
  }
  return Status::Ok();
}

// Row-path key evaluation: one dimension tuple per source row, evaluated
// morsel-parallel when a pool is available and the expressions allow it.
// Output is position-indexed (keys[i]), so scheduling cannot affect it.
Status EvalAllKeyRows(const DimExprs& dims, const Relation& src,
                      std::vector<Row>* keys, ExecState* state) {
  const int64_t n = static_cast<int64_t>(src.rows.size());
  ThreadPool* pool = MeasurePoolOrNull(state);
  if (pool != nullptr) {
    for (const auto& e : dims) {
      if (!IsParallelSafe(*e)) {
        pool = nullptr;
        break;
      }
    }
  }
  ParallelForOptions popts;
  popts.max_workers = state->options.measure_parallelism;
  const int workers = PlanParallelWorkers(pool, n, popts);
  if (workers <= 1) {
    Evaluator ev(state);
    RowStack stack(1);
    for (int64_t i = 0; i < n; ++i) {
      MSQL_RETURN_IF_ERROR(state->guard.Check());
      MSQL_RETURN_IF_ERROR(EvalKeyRow(dims, src, i, &ev, &stack, &(*keys)[i]));
    }
    return Status::Ok();
  }

  std::vector<ExecState> ws;
  ws.reserve(workers);
  for (int w = 0; w < workers; ++w) ws.push_back(ForkWorkerState(*state));
  Status st = ParallelFor(
      pool, n, workers, popts,
      [&](int w, int64_t begin, int64_t end) -> Status {
        ExecState& wstate = ws[w];
        Evaluator ev(&wstate);
        RowStack stack(1);
        for (int64_t i = begin; i < end; ++i) {
          MSQL_RETURN_IF_ERROR(wstate.guard.Check());
          MSQL_RETURN_IF_ERROR(
              EvalKeyRow(dims, src, i, &ev, &stack, &(*keys)[i]));
        }
        return Status::Ok();
      });
  state->measure_parallel_tasks += workers;
  for (const ExecState& w : ws) {
    Status merged = JoinWorkerState(state, w);
    if (st.ok() && !merged.ok()) st = merged;
  }
  return st;
}

// The batchable skeleton of an evaluation context: its dimension terms in
// canonical (key-sorted) order, and a signature that keeps the dimension
// keys while stripping the pinned values. Two contexts share a table iff
// their signatures match.
struct ContextShape {
  std::vector<const ContextTerm*> dims;  // borrowed from the EvalContext
  std::vector<size_t> positions;  // dims[d] == &ctx.terms()[positions[d]]
  std::string signature;          // "g:k1&k2&..."; empty = ungroupable
  bool groupable() const { return !signature.empty(); }
};

// Shape of `ctx`: groupable iff it is non-empty and every term is a
// dimension equality.
ContextShape ShapeOf(const EvalContext& ctx) {
  ContextShape shape;
  if (ctx.empty()) return shape;
  const std::vector<ContextTerm>& terms = ctx.terms();
  for (size_t i = 0; i < terms.size(); ++i) {
    if (terms[i].kind != ContextTerm::Kind::kDimEq) return ContextShape{};
    shape.positions.push_back(i);
  }
  std::sort(shape.positions.begin(), shape.positions.end(),
            [&](size_t a, size_t b) { return terms[a].key < terms[b].key; });
  std::vector<std::string> keys;
  keys.reserve(terms.size());
  for (size_t i : shape.positions) {
    shape.dims.push_back(&terms[i]);
    keys.push_back(terms[i].key);
  }
  shape.signature = StrCat("g:", Join(keys, "&"));
  return shape;
}

// Groups the source rows by the shape's dimension tuple, keeping the tuple
// map for lookups. Keys are whole columns when every dimension has a
// kernel; otherwise the row path evaluates them.
Status PartitionSource(const ContextShape& shape, const Relation& src,
                       ExecState* state, RowGroups* out) {
  const int64_t n = static_cast<int64_t>(src.rows.size());
  DimExprs dims;
  dims.reserve(shape.dims.size());
  for (const ContextTerm* t : shape.dims) dims.push_back(t->src_expr);
  const std::vector<int> set = AllPositions(dims.size());

  if (VectorizedGate(state) == VectorGate::kOk) {
    auto arena = std::make_shared<Arena>();
    std::vector<ColumnPtr> cols;
    cols.reserve(dims.size());
    for (const auto& e : dims) {
      MSQL_ASSIGN_OR_RETURN(ColumnPtr col, EvalVector(*e, src, arena, state));
      if (col == nullptr) break;
      cols.push_back(std::move(col));
    }
    if (cols.size() == dims.size()) {
      state->exec_vectorized_batches += static_cast<uint64_t>(NumBatches(n));
      return GroupRowsByKey(cols, {}, set, n, /*keep_map=*/true, state, out);
    }
    ++state->exec_row_fallbacks;
  }
  std::vector<Row> keys(static_cast<size_t>(n));
  MSQL_RETURN_IF_ERROR(EvalAllKeyRows(dims, src, &keys, state));
  return GroupRowsByKey({}, keys, set, n, /*keep_map=*/true, state, out);
}

// Rough residency of one key tuple in a hash map node, for guard charging
// and the shared cache's byte budget.
uint64_t ApproxKeyBytes(const Row& key) {
  uint64_t bytes = sizeof(void*) * 8;  // node, bucket and vector bookkeeping
  for (const Value& v : key) bytes += sizeof(Value) + v.str().size();
  return bytes;
}

// The partition as a GroupedIndex: groups in first-seen order, then the
// empty group that absent tuples read.
GroupedIndex MakeIndex(RowGroups groups, int64_t n) {
  GroupedIndex index;
  uint64_t bytes = sizeof(GroupedIndex) + n * sizeof(int64_t) +
                   (groups.rows.size() + 1) * sizeof(std::vector<int64_t>);
  for (const auto& [key, g] : groups.map) bytes += ApproxKeyBytes(key);
  index.groups = std::move(groups.map);
  index.rows = std::move(groups.rows);
  index.rows.emplace_back();
  index.approx_bytes = bytes;
  return index;
}

// The query's partition of m's source for `shape`, shared by every
// measure over that source (the memo's local half only, keyed by the
// source's pointer identity). A memoized null marks a degraded build:
// an injected fault at this checkpoint abandons the partition (the
// fallback counter records it) and the query stays on the scan path
// instead of re-tripping the checkpoint per context — grouped evaluation
// is an optimization, so its build must never fail a query.
Result<std::shared_ptr<const GroupedIndex>> PartitionFor(
    const RtMeasure& m, const ContextShape& shape, ExecState* state) {
  const MemoSlot memo(state,
                      StrCat("p|", reinterpret_cast<uintptr_t>(m.source.get()),
                             "|", shape.signature));
  std::shared_ptr<const void> hit;
  if (memo.Lookup(&hit)) {
    return std::static_pointer_cast<const GroupedIndex>(hit);
  }

  FaultInjector& faults = FaultInjector::Instance();
  if (faults.active() &&
      !faults.Checkpoint("measure.grouped_index_build").ok()) {
    ++state->measure_grouped_fallbacks;
    MSQL_RETURN_IF_ERROR(memo.Fill(nullptr, 0));
    return std::shared_ptr<const GroupedIndex>();
  }
  RowGroups groups;
  MSQL_RETURN_IF_ERROR(PartitionSource(shape, *m.source, state, &groups));
  const int64_t n = static_cast<int64_t>(m.source->rows.size());
  auto index =
      std::make_shared<const GroupedIndex>(MakeIndex(std::move(groups), n));
  ++state->measure_grouped_builds;
  MSQL_RETURN_IF_ERROR(memo.Fill(index, 0));
  return index;
}

// The table for (m, shape): the query's memo entry, else the
// SharedMeasureCache entry keyed by structural fingerprint and shape, else
// the query's partition with empty value slots (published for later
// queries). A null table marks a degraded partition build.
Result<std::shared_ptr<const MeasureTable>> TableFor(const RtMeasure& m,
                                                     const ContextShape& shape,
                                                     ExecState* state) {
  // Shape signatures never embed subquery renderings — TranslateToSource
  // rejects subqueries in dimension predicates — so the key is injective.
  SharedCacheSlot shared;
  if (m.fingerprint != nullptr) {
    shared = SharedCacheSlot(state, "mt", {*m.fingerprint, shape.signature});
  }
  const MemoSlot memo(
      state,
      StrCat("t|", reinterpret_cast<uintptr_t>(m.source.get()), "|",
             reinterpret_cast<uintptr_t>(m.formula.get()), "|",
             shape.signature),
      std::move(shared));
  std::shared_ptr<const void> hit;
  if (memo.Lookup(&hit)) {
    return std::static_pointer_cast<const MeasureTable>(hit);
  }

  MSQL_ASSIGN_OR_RETURN(std::shared_ptr<const GroupedIndex> index,
                        PartitionFor(m, shape, state));
  std::shared_ptr<const MeasureTable> table;
  if (index != nullptr) {
    table = std::make_shared<const MeasureTable>(std::move(index));
  }
  MSQL_RETURN_IF_ERROR(
      memo.Fill(table, table != nullptr ? table->approx_bytes() : 0));
  return table;
}

// Whether `ctx` has exactly the terms of `first` — same kinds and keys in
// the same positions — so `first`'s route reads its tuple.
bool SameTerms(const EvalContext& ctx, const EvalContext& first) {
  const std::vector<ContextTerm>& a = ctx.terms();
  const std::vector<ContextTerm>& b = first.terms();
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].key != b[i].key) return false;
  }
  return true;
}

}  // namespace

Result<Value> TableRoute::Lookup(const RtMeasure& m, const EvalContext& ctx,
                                 ExecState* state) {
  const std::vector<ContextTerm>& terms = ctx.terms();
  key.resize(positions.size());
  for (size_t d = 0; d < key.size(); ++d) key[d] = terms[positions[d]].value;
  return table->Lookup(m, key, state);
}

Result<TableRoute> RouteToTable(const RtMeasure& m, const EvalContext& ctx,
                                ExecState* state) {
  TableRoute route;
  if (state->options.measure_strategy != MeasureStrategy::kGrouped) {
    return route;
  }
  ContextShape shape = ShapeOf(ctx);
  if (!shape.groupable()) return route;
  MSQL_ASSIGN_OR_RETURN(route.table, TableFor(m, shape, state));
  route.positions = std::move(shape.positions);
  return route;
}

Result<std::vector<Value>> EvaluateMeasureBatch(
    const RtMeasure& m, const std::vector<EvalContext>& contexts,
    ExecState* state) {
  std::vector<Value> out(contexts.size());
  // A call site's contexts normally share one shape: fetch the route once
  // and answer each context with one lookup, counted as an evaluation
  // exactly as EvaluateMeasure would.
  if (!contexts.empty()) {
    MSQL_ASSIGN_OR_RETURN(TableRoute route,
                          RouteToTable(m, contexts[0], state));
    bool same = route.table != nullptr;
    for (size_t i = 1; same && i < contexts.size(); ++i) {
      same = SameTerms(contexts[i], contexts[0]);
    }
    if (same) {
      for (size_t i = 0; i < contexts.size(); ++i) {
        MSQL_FAULT_POINT("measure.eval");
        MSQL_RETURN_IF_ERROR(state->guard.Check());
        ++state->measure_evals;
        MSQL_ASSIGN_OR_RETURN(out[i], route.Lookup(m, contexts[i], state));
      }
      return out;
    }
  }
  for (size_t i = 0; i < contexts.size(); ++i) {
    MSQL_ASSIGN_OR_RETURN(out[i], EvaluateMeasure(m, contexts[i], state));
  }
  return out;
}

}  // namespace msql
