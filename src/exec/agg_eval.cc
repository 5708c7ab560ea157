#include "exec/agg_eval.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "exec/vector_eval.h"

namespace msql {

namespace {

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
        // Strict comparisons keep the first-seen value among equals, in
        // Value::Compare's order (NaN after every number).
        bool better;
        if (c.kind == TypeKind::kDouble) {
          const int cmp =
              Value::CompareDoubles(c.doubles[idx], c.doubles[best]);
          better = want_min ? cmp < 0 : cmp > 0;
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
  std::vector<Row> distinct_args;  // DISTINCT: every tuple, deduped below
  RowStack stack = StackOver(outer);

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
      distinct_args.push_back(std::move(arg_values));
      continue;
    }
    MSQL_RETURN_IF_ERROR(acc.Accumulate(arg_values));
  }
  if (distinct) {
    // NULLs are skipped by aggregates anyway; dedupe on the arg tuple. The
    // groups come in first-seen order, so each tuple's first occurrence
    // accumulates in the order the rows hold it.
    RowGroups groups;
    MSQL_RETURN_IF_ERROR(GroupRowsByKey(
        {}, distinct_args, AllPositions(args.size()),
        static_cast<int64_t>(distinct_args.size()), /*keep_map=*/false, state,
        &groups));
    for (const Row& tuple : groups.keys) {
      MSQL_RETURN_IF_ERROR(acc.Accumulate(tuple));
    }
  }
  return acc.Finish();
}

namespace {

// A key column whose payload code equals IS NOT DISTINCT FROM among its
// non-NULL rows: BOOL/INT64/DATE payloads are the values, and a dedup'd
// dictionary's codes are its strings. DOUBLE is not: -0.0 == 0.0 differ
// bitwise and NaN equals nothing. Nor is a dictionary that degraded to one
// entry per row.
bool Codeable(const ColumnVector& c) {
  switch (c.kind) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
    case TypeKind::kNull:
      return true;
    case TypeKind::kString:
      return c.dict_unique;
    case TypeKind::kDouble:
      return false;
  }
  return false;
}

// Folds one key's code (or the NULL tag) into a row's running hash.
inline uint64_t HashStep(uint64_t h, uint64_t code) {
  h = (h ^ code) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 29);
}

// Finishes a hash so its low bits (the slot) depend on every key.
inline uint64_t HashFinish(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

// Row i's slot in a flat open-addressing table of group ids.
struct GroupSlot {
  uint64_t hash = 0;
  int64_t group = -1;  // -1: empty
};

// Groups rows [0, n) by the tuple of the codes of `cols` (all Codeable)
// plus a NULL mask into `rows`: rows[g] holds group g's row indexes,
// ascending. Rows with equal tuples share a group, so groups are the Value
// tuples' IS NOT DISTINCT FROM classes, numbered in first-seen order.
Status GroupByCodes(const std::vector<const ColumnVector*>& cols, int64_t n,
                    ExecState* state,
                    std::vector<std::vector<int64_t>>* rows) {
  // An all-NULL column is the same in every row: it splits nothing.
  struct Key {
    const int64_t* codes;
    const uint64_t* valid;  // null: no NULLs
  };
  std::vector<Key> keys;
  for (const ColumnVector* c : cols) {
    if (c->kind != TypeKind::kNull) keys.push_back({c->ints, c->valid});
  }
  auto is_valid = [](const Key& k, int64_t i) {
    return k.valid == nullptr || ((k.valid[i >> 6] >> (i & 63)) & 1) != 0;
  };
  // Rows a and b of equal hashes: equal tuples? With one key the hash is a
  // bijection of the code (HashStep and HashFinish are), so only the NULL
  // bits can differ, and without NULLs the hash decides.
  const bool hash_is_code = keys.size() == 1;
  const bool hash_decides =
      keys.empty() || (hash_is_code && keys[0].valid == nullptr);
  auto same_tuple = [&](int64_t a, int64_t b) {
    for (const Key& k : keys) {
      const bool valid = is_valid(k, a);
      if (valid != is_valid(k, b) ||
          (valid && !hash_is_code && k.codes[a] != k.codes[b])) {
        return false;
      }
    }
    return true;
  };

  // Slot table of at least twice the groups, re-placing each group by its
  // stored hash as it grows. Its bytes are charged to the guard.
  std::vector<GroupSlot> slots;
  auto allocate = [&](size_t capacity) -> Status {
    MSQL_RETURN_IF_ERROR(
        state->guard.ChargeBytes(capacity * sizeof(GroupSlot)));
    std::vector<GroupSlot> grown(capacity);
    const size_t mask = capacity - 1;
    for (const GroupSlot& s : slots) {
      if (s.group < 0) continue;
      size_t at = s.hash & mask;
      while (grown[at].group >= 0) at = (at + 1) & mask;
      grown[at] = s;
    }
    slots = std::move(grown);
    return Status::Ok();
  };
  MSQL_RETURN_IF_ERROR(allocate(std::bit_ceil(
      std::clamp<size_t>(2 * static_cast<size_t>(n), 16, 256))));

  constexpr uint64_t kNullCode = 0x5bd1e9955bd1e995ULL;
  uint64_t hashes[kRowsPerBatch];
  for (int64_t begin = 0; begin < n; begin += kRowsPerBatch) {
    MSQL_RETURN_IF_ERROR(state->guard.Check());
    const int64_t len = std::min(kRowsPerBatch, n - begin);
    std::fill(hashes, hashes + len, uint64_t{0});
    for (const Key& k : keys) {
      const int64_t* codes = k.codes + begin;
      if (k.valid == nullptr) {
        for (int64_t j = 0; j < len; ++j) {
          hashes[j] = HashStep(hashes[j], static_cast<uint64_t>(codes[j]));
        }
      } else {
        for (int64_t j = 0; j < len; ++j) {
          hashes[j] = HashStep(hashes[j], is_valid(k, begin + j)
                                              ? static_cast<uint64_t>(codes[j])
                                              : kNullCode);
        }
      }
    }
    for (int64_t j = 0; j < len; ++j) {
      const int64_t i = begin + j;
      const uint64_t h = HashFinish(hashes[j]);
      const size_t mask = slots.size() - 1;
      size_t at = h & mask;
      int64_t g;
      for (;;) {
        const GroupSlot& slot = slots[at];
        g = slot.group;
        if (g < 0 ||
            (slot.hash == h &&
             (hash_decides ||
              same_tuple((*rows)[static_cast<size_t>(g)].front(), i)))) {
          break;
        }
        at = (at + 1) & mask;
      }
      if (g < 0) {
        g = static_cast<int64_t>(rows->size());
        slots[at] = {h, g};
        rows->emplace_back();
        if (rows->size() * 2 > slots.size()) {
          // When most rows so far opened a group, the table will likely
          // need room for about every row: grow in fewer, larger steps,
          // up to the room n groups take.
          const bool mostly_new = rows->size() * 2 > static_cast<size_t>(i);
          MSQL_RETURN_IF_ERROR(allocate(
              std::min(slots.size() * (mostly_new ? 8 : 2),
                       std::bit_ceil(2 * static_cast<size_t>(n)))));
        }
      }
      (*rows)[static_cast<size_t>(g)].push_back(i);
    }
  }
  return Status::Ok();
}

}  // namespace

std::vector<int> AllPositions(size_t n) {
  std::vector<int> set(n);
  std::iota(set.begin(), set.end(), 0);
  return set;
}

Status GroupRowsByKey(const std::vector<ColumnPtr>& key_cols,
                      std::span<const Row> key_rows,
                      const std::vector<int>& set, int64_t n, bool keep_map,
                      ExecState* state, RowGroups* out) {
  out->keys.clear();
  out->map.clear();
  out->rows.clear();
  // Group g's key tuple (emitted in group order).
  auto emit_key = [&](Row key, size_t g) {
    if (keep_map) {
      out->map.emplace(std::move(key), g);
    } else {
      out->keys.push_back(std::move(key));
    }
  };

  // The empty key set: one group of every row, nothing to hash.
  if (set.empty()) {
    if (n == 0) return Status::Ok();
    std::vector<int64_t>& all = out->rows.emplace_back();
    all.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      if ((i & (kRowsPerBatch - 1)) == 0) {
        MSQL_RETURN_IF_ERROR(state->guard.Check());
      }
      all[static_cast<size_t>(i)] = i;
    }
    emit_key(Row{}, 0);
    return Status::Ok();
  }

  const bool columnar = !key_cols.empty();
  std::vector<const ColumnVector*> cols;
  if (columnar) {
    for (int k : set) {
      const ColumnVector* c = key_cols[static_cast<size_t>(k)].get();
      if (!Codeable(*c)) {
        cols.clear();
        ++state->exec_row_fallbacks;
        break;
      }
      cols.push_back(c);
    }
  }

  // Code tuples: one hash probe per row; the key Values, row lists and map
  // entries are built once per group.
  if (!cols.empty()) {
    MSQL_RETURN_IF_ERROR(GroupByCodes(cols, n, state, &out->rows));
    const size_t groups = out->rows.size();
    if (keep_map) out->map.reserve(groups);
    for (size_t g = 0; g < groups; ++g) {
      if ((g & (kRowsPerBatch - 1)) == 0) {
        MSQL_RETURN_IF_ERROR(state->guard.Check());
      }
      Row key;
      key.reserve(cols.size());
      for (const ColumnVector* c : cols) key.push_back(c->At(out->rows[g][0]));
      emit_key(std::move(key), g);
    }
    return Status::Ok();
  }

  // Row tuples: keys no code represents (row-evaluated, DOUBLE, or a
  // degraded dictionary), hashed as Values.
  TupleToGroup& map = out->map;
  map.reserve(static_cast<size_t>(n / 4 + 1));
  for (int64_t i = 0; i < n; ++i) {
    MSQL_RETURN_IF_ERROR(state->guard.Check());
    Row key;
    key.reserve(set.size());
    for (int k : set) {
      key.push_back(columnar ? key_cols[static_cast<size_t>(k)]->At(i)
                             : key_rows[static_cast<size_t>(i)][k]);
    }
    auto it = map.find(key);
    if (it == map.end()) {
      it = map.emplace(std::move(key), out->rows.size()).first;
      out->rows.emplace_back();
    }
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
