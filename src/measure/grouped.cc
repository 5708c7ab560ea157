#include "measure/grouped.h"

#include <algorithm>
#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "exec/eval.h"
#include "exec/vector_eval.h"
#include "measure/cse.h"
#include "runtime/parallel.h"
#include "runtime/shared_cache.h"
#include "runtime/thread_pool.h"

namespace msql {

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

// Evaluates the index's dimension tuple for source row `i` into *key.
Status EvalKeyRow(const GroupedIndex& index, const Relation& src, int64_t i,
                  Evaluator* ev, RowStack* stack, Row* key) {
  (*stack)[0] = Frame{&src.rows[i], i, &src};
  key->resize(index.dim_exprs.size());
  for (size_t d = 0; d < index.dim_exprs.size(); ++d) {
    MSQL_ASSIGN_OR_RETURN((*key)[d], ev->Eval(*index.dim_exprs[d], *stack));
  }
  return Status::Ok();
}

// Phase 1 of the build: one dimension tuple per source row, evaluated
// morsel-parallel when a pool is available and the expressions allow it.
// Output is position-indexed (keys[i]), so scheduling cannot affect it.
Status EvalAllKeyRows(const GroupedIndex& index, const Relation& src,
                      std::vector<Row>* keys, ExecState* state) {
  const int64_t n = static_cast<int64_t>(src.rows.size());

  // Columnar fast path: when every dimension expression has a vector
  // kernel, evaluate each once over the whole source and transpose into the
  // position-indexed key rows. Same values in the same positions as the
  // scalar loop, no per-row stack churn.
  if (VectorizedGate(state) == VectorGate::kOk) {
    auto arena = std::make_shared<Arena>();
    std::vector<ColumnPtr> dim_cols;
    dim_cols.reserve(index.dim_exprs.size());
    bool all = true;
    for (const auto& e : index.dim_exprs) {
      auto col = EvalVector(*e, src, arena, state);
      MSQL_RETURN_IF_ERROR(col.status());
      if (col.value() == nullptr) {
        all = false;
        break;
      }
      dim_cols.push_back(col.take());
    }
    if (all) {
      state->exec_vectorized_batches += static_cast<uint64_t>(NumBatches(n));
      for (int64_t i = 0; i < n; ++i) {
        if ((i & (kRowsPerBatch - 1)) == 0) {
          MSQL_RETURN_IF_ERROR(state->guard.Check());
        }
        Row& key = (*keys)[i];
        key.resize(dim_cols.size());
        for (size_t d = 0; d < dim_cols.size(); ++d) {
          key[d] = dim_cols[d]->At(i);
        }
      }
      return Status::Ok();
    }
    ++state->exec_row_fallbacks;
  }

  ThreadPool* pool = MeasurePoolOrNull(state);
  if (pool != nullptr) {
    for (const auto& e : index.dim_exprs) {
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
      MSQL_RETURN_IF_ERROR(EvalKeyRow(index, src, i, &ev, &stack, &(*keys)[i]));
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
              EvalKeyRow(index, src, i, &ev, &stack, &(*keys)[i]));
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

// Rough residency of a built index, for guard charging and the shared
// cache's byte budget: row-id payload plus per-group key and node costs.
uint64_t ApproxIndexBytes(const GroupedIndex& index, int64_t rows) {
  uint64_t bytes = sizeof(GroupedIndex) + rows * sizeof(int64_t);
  for (const auto& [key, ids] : index.groups) {
    bytes += sizeof(void*) * 8;  // node, bucket and vector bookkeeping
    for (const Value& v : key) bytes += sizeof(Value) + v.str().size();
    (void)ids;
  }
  return bytes;
}

}  // namespace

ContextShape ShapeOf(const EvalContext& ctx) {
  ContextShape shape;
  if (ctx.empty()) return shape;
  for (const ContextTerm& t : ctx.terms()) {
    if (t.kind != ContextTerm::Kind::kDimEq) return ContextShape{};
    shape.dims.push_back(&t);
  }
  std::sort(shape.dims.begin(), shape.dims.end(),
            [](const ContextTerm* a, const ContextTerm* b) {
              return a->key < b->key;
            });
  std::vector<std::string> keys;
  keys.reserve(shape.dims.size());
  for (const ContextTerm* t : shape.dims) keys.push_back(t->key);
  shape.signature = StrCat("g:", Join(keys, "&"));
  return shape;
}

Result<std::shared_ptr<const GroupedIndex>> GetOrBuildGroupedIndex(
    const RtMeasure& m, const ContextShape& shape, ExecState* state) {
  // Per-query layer: source pointer identity is stable within one bind. A
  // cached null marks a degraded build — stay on the scan path for the rest
  // of the query instead of re-tripping the checkpoint per context.
  const std::string local_key =
      StrCat("gi|", reinterpret_cast<uintptr_t>(m.source.get()), "|",
             shape.signature);
  auto it = state->grouped_index_cache.find(local_key);
  if (it != state->grouped_index_cache.end()) return it->second;

  // Cross-query layer: same keying discipline as scalar measure values
  // (generation + structural fingerprint), under a "gi|" prefix. Shape
  // signatures never embed subquery renderings — TranslateToSource rejects
  // subqueries in dimension predicates — so the key is injective.
  std::string shared_key;
  if (state->shared_cache != nullptr && m.fingerprint != nullptr) {
    shared_key = StrCat("gi|", state->catalog_generation, "|",
                        state->param_sig, "|", *m.fingerprint, "|",
                        shape.signature);
    std::shared_ptr<const void> obj;
    if (state->shared_cache->LookupObject(shared_key, &obj)) {
      ++state->shared_cache_hits;
      auto index = std::static_pointer_cast<const GroupedIndex>(obj);
      state->grouped_index_cache.emplace(local_key, index);
      return index;
    }
    ++state->shared_cache_misses;
  }

  // Degradable checkpoint: an injected fault here abandons the index (the
  // fallback counter records it) and the caller scans instead — grouped
  // evaluation is an optimization, so its build must never fail a query.
  FaultInjector& faults = FaultInjector::Instance();
  if (faults.active() &&
      !faults.Checkpoint("measure.grouped_index_build").ok()) {
    ++state->measure_grouped_fallbacks;
    state->grouped_index_cache.emplace(local_key, nullptr);
    return std::shared_ptr<const GroupedIndex>();
  }

  const Relation& src = *m.source;
  const int64_t n = static_cast<int64_t>(src.rows.size());
  auto index = std::make_shared<GroupedIndex>();
  index->dim_exprs.reserve(shape.dims.size());
  for (const ContextTerm* t : shape.dims) {
    index->dim_exprs.push_back(t->src_expr);
  }

  // Phase 1 (parallel): dimension tuples, position-indexed. Phase 2
  // (serial, row order): the hash partition — group discovery order and the
  // ascending row-id lists are therefore scheduling-independent.
  std::vector<Row> keys(n);
  MSQL_RETURN_IF_ERROR(EvalAllKeyRows(*index, src, &keys, state));
  index->groups.reserve(static_cast<size_t>(n / 4 + 1));
  for (int64_t i = 0; i < n; ++i) {
    index->groups.try_emplace(std::move(keys[i])).first->second.push_back(i);
  }
  index->approx_bytes = ApproxIndexBytes(*index, n);
  ++state->measure_grouped_builds;

  std::shared_ptr<const GroupedIndex> result = std::move(index);
  state->grouped_index_cache.emplace(local_key, result);
  if (!shared_key.empty() && AdmitSharedCacheFill()) {
    MSQL_RETURN_IF_ERROR(state->guard.ChargeBytes(result->approx_bytes));
    state->shared_cache->InsertObject(shared_key, result, result->approx_bytes,
                                      state->catalog_generation);
  }
  return result;
}

Result<Value> EvalGroupedProbe(const GroupedIndex& index, const RtMeasure& m,
                               const ContextShape& shape, ExecState* state) {
  ++state->measure_grouped_probes;
  Row key;
  key.reserve(shape.dims.size());
  for (const ContextTerm* t : shape.dims) key.push_back(t->value);
  static const std::vector<int64_t> kNoRows;
  auto it = index.groups.find(key);
  const std::vector<int64_t>& rows =
      it == index.groups.end() ? kNoRows : it->second;
  return EvalFormulaOverRows(*m.formula, *m.source, rows, state);
}

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

Result<std::vector<Value>> EvaluateMeasureBatch(
    const RtMeasure& m, const std::vector<EvalContext>& contexts,
    ExecState* state) {
  std::vector<Value> out(contexts.size());
  const size_t n = contexts.size();
  auto serial = [&](const std::vector<int64_t>& positions) -> Status {
    for (int64_t i : positions) {
      MSQL_ASSIGN_OR_RETURN(out[i], EvaluateMeasure(m, contexts[i], state));
    }
    return Status::Ok();
  };
  std::vector<int64_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<int64_t>(i);

  // The batch fast path exists for parallel probes; everything else goes
  // through EvaluateMeasure one context at a time (which still builds and
  // probes the shared index under kGrouped — just on the calling thread).
  constexpr size_t kMinParallelProbes = 8;
  const bool eligible =
      state->options.measure_strategy == MeasureStrategy::kGrouped &&
      n >= kMinParallelProbes && MeasurePoolOrNull(state) != nullptr &&
      IsParallelSafe(*m.formula);
  if (!eligible) {
    MSQL_RETURN_IF_ERROR(serial(all));
    return out;
  }

  // One shape per batch or bust: mixed shapes mean mixed indexes, which the
  // per-context path already handles.
  std::vector<ContextShape> shapes;
  shapes.reserve(n);
  for (const EvalContext& ctx : contexts) {
    shapes.push_back(ShapeOf(ctx));
    if (!shapes.back().groupable() ||
        shapes.back().signature != shapes[0].signature) {
      MSQL_RETURN_IF_ERROR(serial(all));
      return out;
    }
  }

  MSQL_ASSIGN_OR_RETURN(std::shared_ptr<const GroupedIndex> index,
                        GetOrBuildGroupedIndex(m, shapes[0], state));
  if (index == nullptr) {  // degraded build: scan per context
    MSQL_RETURN_IF_ERROR(serial(all));
    return out;
  }

  // Serve memo hits serially (the per-query cache is not thread-safe),
  // mirroring EvaluateMeasure's counting for each.
  std::vector<std::string> memo_keys(n);
  std::vector<std::string> shared_keys(n);
  std::vector<int64_t> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    MSQL_RETURN_IF_ERROR(state->guard.Check());
    ++state->measure_evals;
    const std::string signature = contexts[i].Signature();
    memo_keys[i] = MeasureMemoKey(m, signature);
    auto hit = state->measure_cache.find(memo_keys[i]);
    if (hit != state->measure_cache.end()) {
      ++state->measure_cache_hits;
      out[i] = hit->second;
      continue;
    }
    shared_keys[i] = MeasureSharedKey(m, *state, signature);
    if (!shared_keys[i].empty()) {
      Value v;
      if (state->shared_cache->Lookup(shared_keys[i], &v)) {
        ++state->shared_cache_hits;
        state->measure_cache.emplace(memo_keys[i], v);
        out[i] = std::move(v);
        continue;
      }
      ++state->shared_cache_misses;
    }
    pending.push_back(static_cast<int64_t>(i));
  }
  if (pending.size() < kMinParallelProbes) {
    // Too few probes to pay the fork/join; counters for these contexts were
    // already recorded, so probe directly instead of via EvaluateMeasure.
    for (int64_t i : pending) {
      MSQL_ASSIGN_OR_RETURN(out[i],
                            EvalGroupedProbe(*index, m, shapes[i], state));
      MSQL_RETURN_IF_ERROR(
          PublishSharedMeasure(shared_keys[i], out[i], state));
      state->measure_cache.emplace(memo_keys[i], out[i]);
    }
    return out;
  }

  // Morsel-parallel probes: one context per morsel (a probe aggregates a
  // whole group, so per-element scheduling is the right granularity).
  // Results land position-indexed; memo and shared-cache publication happen
  // serially after the join.
  ThreadPool* pool = MeasurePoolOrNull(state);
  ParallelForOptions popts;
  popts.morsel_rows = 1;
  popts.max_workers = state->options.measure_parallelism;
  const int workers =
      PlanParallelWorkers(pool, static_cast<int64_t>(pending.size()), popts);
  std::vector<ExecState> ws;
  ws.reserve(workers);
  for (int w = 0; w < workers; ++w) ws.push_back(ForkWorkerState(*state));
  Status st = ParallelFor(
      pool, static_cast<int64_t>(pending.size()), workers, popts,
      [&](int w, int64_t begin, int64_t end) -> Status {
        ExecState& wstate = ws[w];
        for (int64_t j = begin; j < end; ++j) {
          MSQL_RETURN_IF_ERROR(wstate.guard.Check());
          const int64_t i = pending[j];
          MSQL_ASSIGN_OR_RETURN(
              out[i], EvalGroupedProbe(*index, m, shapes[i], &wstate));
        }
        return Status::Ok();
      });
  state->measure_parallel_tasks += workers;
  for (const ExecState& w : ws) {
    Status merged = JoinWorkerState(state, w);
    if (st.ok() && !merged.ok()) st = merged;
  }
  MSQL_RETURN_IF_ERROR(st);
  for (int64_t i : pending) {
    MSQL_RETURN_IF_ERROR(PublishSharedMeasure(shared_keys[i], out[i], state));
    state->measure_cache.emplace(memo_keys[i], out[i]);
  }
  return out;
}

}  // namespace msql
