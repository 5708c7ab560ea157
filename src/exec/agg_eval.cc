#include "exec/agg_eval.h"

#include <cmath>
#include <cstdint>
#include <set>
#include <unordered_map>

#include "exec/vector_eval.h"

namespace msql {

namespace {

// Lexicographic ordering of value tuples for DISTINCT aggregation.
struct RowLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

inline double ColAsDouble(const ColumnVector& c, int64_t i) {
  return c.kind == TypeKind::kDouble ? c.doubles[i]
                                     : static_cast<double>(c.ints[i]);
}

// Columnar fast path for the plain-aggregate shape (no DISTINCT, no FILTER,
// no correlation): the single argument is a depth-0 column reference with a
// typed column available, or the call is COUNT(*). Accumulation mirrors
// AggAccumulator state-for-state — same row order, same double operations —
// so results are bit-identical to the row path. Returns true when handled.
bool TryVectorizedAgg(AggId agg, const std::vector<BoundExprPtr>& args,
                      const Relation& rel, const std::vector<int64_t>& rows,
                      ExecState* state, Result<Value>* out) {
  if (agg == AggId::kCountStar) {
    *out = Value::Int(static_cast<int64_t>(rows.size()));
    return true;
  }
  if (args.size() != 1) return false;
  const BoundExpr& a0 = *args[0];
  if (a0.kind != BoundExprKind::kColumnRef || a0.depth != 0 || a0.column < 0) {
    return false;
  }
  if (rel.columns == nullptr ||
      static_cast<size_t>(a0.column) >= rel.columns->cols.size() ||
      rel.columns->cols[a0.column] == nullptr) {
    return false;
  }
  const ColumnVector& c = *rel.columns->cols[a0.column];
  auto check_guard = [&](size_t i) -> bool {
    if ((i & (kRowsPerBatch - 1)) != 0) return true;
    Status st = state->guard.Check();
    if (st.ok()) return true;
    *out = st;
    return false;
  };

  switch (agg) {
    case AggId::kCount: {
      int64_t count = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (!check_guard(i)) return true;
        if (c.IsValid(rows[i])) ++count;
      }
      *out = Value::Int(count);
      return true;
    }
    case AggId::kSum: {
      if (c.kind == TypeKind::kNull) {
        *out = Value::Null();
        return true;
      }
      if (c.kind == TypeKind::kInt64) {
        uint64_t isum = 0;  // wrapping, like the row path's int64 +=
        bool has_value = false;
        for (size_t i = 0; i < rows.size(); ++i) {
          if (!check_guard(i)) return true;
          const int64_t idx = rows[i];
          if (!c.IsValid(idx)) continue;
          has_value = true;
          isum += static_cast<uint64_t>(c.ints[idx]);
        }
        *out = has_value ? Value::Int(static_cast<int64_t>(isum))
                         : Value::Null();
        return true;
      }
      if (c.kind == TypeKind::kDouble) {
        double sum = 0;
        bool has_value = false;
        for (size_t i = 0; i < rows.size(); ++i) {
          if (!check_guard(i)) return true;
          const int64_t idx = rows[i];
          if (!c.IsValid(idx)) continue;
          has_value = true;
          sum += c.doubles[idx];
        }
        *out = has_value ? Value::Double(sum) : Value::Null();
        return true;
      }
      // SUM over DATE/BOOL/STRING has row-path quirks (untouched isum_);
      // leave those to the row path.
      return false;
    }
    case AggId::kAvg:
    case AggId::kStddev:
    case AggId::kVariance: {
      if (c.kind == TypeKind::kNull) {
        *out = Value::Null();
        return true;
      }
      if (c.kind == TypeKind::kString) return false;
      int64_t count = 0;
      double sum = 0, sum_sq = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (!check_guard(i)) return true;
        const int64_t idx = rows[i];
        if (!c.IsValid(idx)) continue;
        ++count;
        sum += ColAsDouble(c, idx);
        sum_sq += ColAsDouble(c, idx) * ColAsDouble(c, idx);
      }
      if (agg == AggId::kAvg) {
        *out = count == 0 ? Value::Null()
                          : Value::Double(sum / static_cast<double>(count));
        return true;
      }
      if (count < 2) {
        *out = Value::Null();
        return true;
      }
      const double n = static_cast<double>(count);
      double var = (sum_sq - sum * sum / n) / (n - 1);
      if (var < 0) var = 0;  // numerical noise
      *out = Value::Double(agg == AggId::kStddev ? std::sqrt(var) : var);
      return true;
    }
    case AggId::kMin:
    case AggId::kMax: {
      if (c.kind == TypeKind::kNull) {
        *out = Value::Null();
        return true;
      }
      const bool want_min = agg == AggId::kMin;
      int64_t best = -1;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (!check_guard(i)) return true;
        const int64_t idx = rows[i];
        if (!c.IsValid(idx)) continue;
        if (best < 0) {
          best = idx;
          continue;
        }
        // Strict comparisons keep the first-seen value among equals (and,
        // for doubles, under NaN), exactly like Value::Compare.
        bool better;
        if (c.kind == TypeKind::kDouble) {
          better = want_min ? c.doubles[idx] < c.doubles[best]
                            : c.doubles[idx] > c.doubles[best];
        } else if (c.kind == TypeKind::kString) {
          const int cmp = (*c.dict)[static_cast<size_t>(c.ints[idx])].compare(
              (*c.dict)[static_cast<size_t>(c.ints[best])]);
          better = want_min ? cmp < 0 : cmp > 0;
        } else {
          better = want_min ? c.ints[idx] < c.ints[best]
                            : c.ints[idx] > c.ints[best];
        }
        if (better) best = idx;
      }
      *out = best < 0 ? Value::Null() : c.At(best);
      return true;
    }
    default:
      return false;  // MIN_BY/MAX_BY and window-only ids: row path
  }
}

}  // namespace

Result<Value> EvalAggCall(AggId agg, const std::vector<BoundExprPtr>& args,
                          bool distinct, const BoundExpr* filter,
                          const Relation& rel,
                          const std::vector<int64_t>& rows,
                          const RowStack& outer, ExecState* state) {
  if (outer.empty() && !distinct && filter == nullptr) {
    switch (VectorizedGate(state)) {
      case VectorGate::kOk: {
        Result<Value> fast = Value::Null();
        if (TryVectorizedAgg(agg, args, rel, rows, state, &fast)) {
          state->exec_vectorized_batches += static_cast<uint64_t>(
              NumBatches(static_cast<int64_t>(rows.size())));
          return fast;
        }
        ++state->exec_row_fallbacks;
        break;
      }
      case VectorGate::kFaulted:  // counted inside the gate
      case VectorGate::kRowMode:
        break;
    }
  }

  Evaluator ev(state);
  AggAccumulator acc(agg);
  std::set<std::vector<Value>, RowLess> seen;
  RowStack stack;
  stack.reserve(outer.size() + 1);
  stack.push_back(Frame{});
  for (const Frame& f : outer) stack.push_back(f);

  for (int64_t idx : rows) {
    MSQL_RETURN_IF_ERROR(state->guard.Check());
    stack[0] = Frame{&rel.rows[idx], idx, &rel};
    if (filter != nullptr) {
      MSQL_ASSIGN_OR_RETURN(bool keep, ev.EvalPredicate(*filter, stack));
      if (!keep) continue;
    }
    std::vector<Value> arg_values;
    arg_values.reserve(args.size());
    for (const auto& a : args) {
      MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*a, stack));
      arg_values.push_back(std::move(v));
    }
    if (distinct) {
      // NULLs are skipped by aggregates anyway; dedupe on the arg tuple.
      if (!seen.insert(arg_values).second) continue;
    }
    MSQL_RETURN_IF_ERROR(acc.Accumulate(arg_values));
  }
  return acc.Finish();
}

Status GroupRowsByKey(const std::vector<ColumnPtr>& key_cols,
                      const std::vector<Row>& key_rows,
                      const std::vector<int>& set, int64_t n, bool keep_map,
                      ExecState* state, RowGroups* out) {
  out->keys.clear();
  out->map.clear();
  out->rows.clear();
  const bool columnar = !key_cols.empty();
  if (columnar && set.size() == 1) {
    // Single-key fast path over comparable codes: for BOOL/INT64/DATE the
    // payload IS the value, and for a dedup'd dictionary the code equals
    // the string. Code equality then coincides with IS NOT DISTINCT FROM
    // (same-kind payload equality), so grouping hashes an int64 instead of
    // a Value. DOUBLE is excluded: -0.0 == 0.0 yet differs bitwise. With
    // `keep_map` each group's tuple is hashed once more into the map, so
    // only a dictionary key takes this path there: its codes are bounded
    // by the dictionary, and it saves copying a string per row. An
    // unbounded integer key with `keep_map` would pay two maps per row.
    const ColumnVector& c = *key_cols[static_cast<size_t>(set[0])];
    const bool dict = c.kind == TypeKind::kString && c.dict_unique;
    if (dict || (!keep_map && (c.kind == TypeKind::kBool ||
                               c.kind == TypeKind::kInt64 ||
                               c.kind == TypeKind::kDate ||
                               c.kind == TypeKind::kNull))) {
      std::unordered_map<int64_t, size_t> by_code;
      size_t null_group = SIZE_MAX;
      for (int64_t i = 0; i < n; ++i) {
        if ((i & (kRowsPerBatch - 1)) == 0) {
          MSQL_RETURN_IF_ERROR(state->guard.Check());
        }
        size_t* gi = &null_group;
        if (c.IsValid(i)) {
          gi = &by_code.try_emplace(c.ints[i], SIZE_MAX).first->second;
        }
        if (*gi == SIZE_MAX) {
          *gi = out->rows.size();
          if (keep_map) {
            out->map.emplace(Row{c.At(i)}, *gi);
          } else {
            out->keys.push_back(Row{c.At(i)});
          }
          out->rows.emplace_back();
        }
        out->rows[*gi].push_back(i);
      }
      return Status::Ok();
    }
  }
  RowGroupMap& map = out->map;
  map.reserve(static_cast<size_t>(n / 4 + 1));
  for (int64_t i = 0; i < n; ++i) {
    MSQL_RETURN_IF_ERROR(state->guard.Check());
    Row key;
    key.reserve(set.size());
    for (int k : set) {
      key.push_back(columnar ? key_cols[static_cast<size_t>(k)]->At(i)
                             : key_rows[static_cast<size_t>(i)][k]);
    }
    auto [it, inserted] = map.emplace(std::move(key), out->rows.size());
    if (inserted) out->rows.emplace_back();
    out->rows[it->second].push_back(i);
  }
  if (!keep_map) {
    // Move each tuple out of the map into its first-seen position.
    out->keys.resize(out->rows.size());
    while (!map.empty()) {
      auto node = map.extract(map.begin());
      out->keys[node.mapped()] = std::move(node.key());
    }
  }
  return Status::Ok();
}

}  // namespace msql
