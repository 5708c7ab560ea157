#include "exec/vector_eval.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/fault_injection.h"
#include "exec/exec_state.h"

namespace msql {

VectorGate VectorizedGate(ExecState* state) {
  if (state->options.exec_mode != ExecMode::kVectorized) {
    return VectorGate::kRowMode;
  }
  if (FaultInjector::Instance().active()) {
    // Degradable checkpoint (same contract as measure.grouped_index_build):
    // an injected fault here forces the row path, never an error.
    if (!FaultInjector::Instance().Checkpoint("exec.vectorized_kernel").ok()) {
      ++state->exec_row_fallbacks;
      return VectorGate::kFaulted;
    }
  }
  return VectorGate::kOk;
}

namespace {

// Mutable column under construction; frozen into a ColumnPtr by Freeze().
struct ColOut {
  std::shared_ptr<ColumnVector> col;
  int64_t* ints = nullptr;
  double* doubles = nullptr;
  uint64_t* valid = nullptr;  // always allocated; dropped if fully set
};

Result<ColOut> NewCol(TypeKind kind, int64_t n,
                      const std::shared_ptr<Arena>& arena) {
  ColOut out;
  out.col = std::make_shared<ColumnVector>();
  out.col->kind = kind;
  out.col->length = n;
  out.col->arena = arena;
  const size_t words = static_cast<size_t>((n + 63) / 64);
  out.valid = arena->AllocateArray<uint64_t>(words == 0 ? 1 : words);
  if (out.valid == nullptr) return arena->status();
  std::memset(out.valid, 0, (words == 0 ? 1 : words) * sizeof(uint64_t));
  if (kind == TypeKind::kDouble) {
    out.doubles = arena->AllocateArray<double>(static_cast<size_t>(n));
    if (out.doubles == nullptr && n > 0) return arena->status();
    if (n > 0) std::memset(out.doubles, 0, static_cast<size_t>(n) * 8);
  } else if (kind != TypeKind::kNull) {
    out.ints = arena->AllocateArray<int64_t>(static_cast<size_t>(n));
    if (out.ints == nullptr && n > 0) return arena->status();
    if (n > 0) std::memset(out.ints, 0, static_cast<size_t>(n) * 8);
  }
  return out;
}

ColumnPtr Freeze(ColOut& out) {
  out.col->ints = out.ints;
  out.col->doubles = out.doubles;
  int64_t n = out.col->length;
  bool all_valid = out.col->kind != TypeKind::kNull;
  for (int64_t i = 0; all_valid && i < n; ++i) {
    if (((out.valid[i >> 6] >> (i & 63)) & 1) == 0) all_valid = false;
  }
  out.col->valid = all_valid ? nullptr : out.valid;
  return out.col;
}

inline void SetValid(uint64_t* valid, int64_t i) {
  valid[i >> 6] |= uint64_t{1} << (i & 63);
}

// Payload accessors mirroring Value::AsDouble / Value::int_val over a
// columnar layout (int_val of a DOUBLE value reads the zero int payload,
// exactly like Value's untouched i_ field).
inline double AsDoubleAt(const ColumnVector& c, int64_t i) {
  switch (c.kind) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return static_cast<double>(c.ints[i]);
    case TypeKind::kDouble:
      return c.doubles[i];
    default:
      return 0;  // strings: AsDouble() reads the untouched numeric payload
  }
}
inline int64_t IntValAt(const ColumnVector& c, int64_t i) {
  switch (c.kind) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return c.ints[i];
    default:
      return 0;  // doubles/strings: int_val() reads the untouched i_ field
  }
}

bool IsIntPayload(TypeKind k) {
  return k == TypeKind::kBool || k == TypeKind::kInt64 || k == TypeKind::kDate;
}
bool IsNumericish(TypeKind k) {
  return IsIntPayload(k) || k == TypeKind::kDouble;
}

Result<ColumnPtr> AllNullColumn(int64_t n,
                                const std::shared_ptr<Arena>& arena) {
  MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(TypeKind::kNull, n, arena));
  return Freeze(out);
}

Result<ColumnPtr> BroadcastLiteral(const Value& v, int64_t n,
                                   const std::shared_ptr<Arena>& arena) {
  if (v.is_null()) return AllNullColumn(n, arena);
  MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(v.kind(), n, arena));
  for (int64_t i = 0; i < n; ++i) SetValid(out.valid, i);
  switch (v.kind()) {
    case TypeKind::kBool:
      for (int64_t i = 0; i < n; ++i) out.ints[i] = v.bool_val() ? 1 : 0;
      break;
    case TypeKind::kInt64:
    case TypeKind::kDate:
      for (int64_t i = 0; i < n; ++i) out.ints[i] = v.int_val();
      break;
    case TypeKind::kDouble:
      for (int64_t i = 0; i < n; ++i) out.doubles[i] = v.double_val();
      break;
    case TypeKind::kString: {
      out.col->dict =
          std::make_shared<std::vector<std::string>>(1, v.str());
      out.col->dict_unique = true;
      break;  // codes already zero-filled
    }
    default:
      return Result<ColumnPtr>(nullptr);
  }
  return Freeze(out);
}

// Builds a single column from the row representation (used when `rel` has
// no columnar sidecar, or that column stayed row-major). Null on mixed
// kinds, an error only on arena/guard exhaustion.
Result<ColumnPtr> ColumnFromRows(const Relation& rel, int column,
                                 const std::shared_ptr<Arena>& arena,
                                 ExecState* state) {
  const std::span<const Row> rows = rel.rows.vec();
  ColumnBuilder builder(arena, static_cast<int64_t>(rows.size()));
  int64_t i = 0;
  for (const Row& row : rows) {
    if ((i++ & (kRowsPerBatch - 1)) == 0) {
      MSQL_RETURN_IF_ERROR(state->guard.Check());
    }
    if (static_cast<size_t>(column) >= row.size() ||
        !builder.Append(row[column])) {
      MSQL_RETURN_IF_ERROR(builder.status());
      return Result<ColumnPtr>(nullptr);
    }
  }
  ColumnPtr col = builder.Finish();
  if (col == nullptr) return builder.status();
  return col;
}

// The string payload of row i; only valid rows of string columns.
inline const std::string& StrAt(const ColumnVector& c, int64_t i) {
  return (*c.dict)[static_cast<size_t>(c.ints[i])];
}

// Pairwise payload equality for valid rows, mirroring Value::NotDistinct's
// non-NULL arm. Returns false via `supported` when the kind combination has
// no kernel.
struct EqKernel {
  const ColumnVector& a;
  const ColumnVector& b;
  bool supported = false;
  bool same_int = false, same_double = false, same_string = false,
       numeric = false;

  EqKernel(const ColumnVector& a_in, const ColumnVector& b_in)
      : a(a_in), b(b_in) {
    if (a.kind == b.kind) {
      same_int = IsIntPayload(a.kind);
      same_double = a.kind == TypeKind::kDouble;
      same_string = a.kind == TypeKind::kString;
      supported = same_int || same_double || same_string;
    } else if ((a.kind == TypeKind::kInt64 || a.kind == TypeKind::kDouble) &&
               (b.kind == TypeKind::kInt64 || b.kind == TypeKind::kDouble)) {
      numeric = true;
      supported = true;
    } else {
      // Different non-numeric kinds: NotDistinct is constant false.
      supported = true;
    }
  }

  bool Equal(int64_t i) const {
    if (same_int) return a.ints[i] == b.ints[i];
    if (same_double) return a.doubles[i] == b.doubles[i];
    if (same_string) return StrAt(a, i) == StrAt(b, i);
    if (numeric) return AsDoubleAt(a, i) == AsDoubleAt(b, i);
    return false;
  }
};

// Value::Compare for valid rows (NULLs were handled by propagation).
struct CmpKernel {
  const ColumnVector& a;
  const ColumnVector& b;
  bool supported = false;
  bool strings = false, same_int = false;

  CmpKernel(const ColumnVector& a_in, const ColumnVector& b_in)
      : a(a_in), b(b_in) {
    strings = a.kind == TypeKind::kString && b.kind == TypeKind::kString;
    same_int = a.kind == b.kind && IsIntPayload(a.kind);
    // Everything else funnels through AsDouble, exactly like
    // Value::Compare (strings mixed with numerics read AsDouble() == 0).
    supported = true;
  }

  int Compare(int64_t i) const {
    if (strings) return StrAt(a, i).compare(StrAt(b, i));
    if (same_int) {
      return a.ints[i] < b.ints[i] ? -1 : a.ints[i] > b.ints[i] ? 1 : 0;
    }
    return Value::CompareDoubles(AsDoubleAt(a, i), AsDoubleAt(b, i));
  }
};

Result<ColumnPtr> EvalVec(const BoundExpr& e, const Relation& rel,
                          const std::shared_ptr<Arena>& arena,
                          ExecState* state);

// Kleene AND/OR over (validity, truth): with t = valid & true and
// f = valid & ~true per side, AND gives t = ta&tb, f = fa|fb and OR gives
// t = ta|tb, f = fa&fb; the result is valid where either bit is set. This
// is EvalScalarFunction's three-valued logic in bitmap form.
Result<ColumnPtr> EvalBoolPair(bool is_and, const ColumnVector& a,
                               const ColumnVector& b, int64_t n,
                               const std::shared_ptr<Arena>& arena,
                               ExecState* state) {
  MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(TypeKind::kBool, n, arena));
  for (int64_t i = 0; i < n; ++i) {
    if ((i & (kRowsPerBatch - 1)) == 0) {
      MSQL_RETURN_IF_ERROR(state->guard.Check());
    }
    const bool av = a.IsValid(i), bv = b.IsValid(i);
    const bool at = av && IntValAt(a, i) != 0;
    const bool bt = bv && IntValAt(b, i) != 0;
    const bool af = av && !at, bf = bv && !bt;
    bool t, f;
    if (is_and) {
      t = at && bt;
      f = af || bf;
    } else {
      t = at || bt;
      f = af && bf;
    }
    if (t || f) {
      SetValid(out.valid, i);
      out.ints[i] = t ? 1 : 0;
    }
  }
  return Freeze(out);
}

bool BoolishKind(TypeKind k) {
  return k == TypeKind::kBool || k == TypeKind::kNull;
}

Result<ColumnPtr> EvalFuncVec(const BoundExpr& e, const Relation& rel,
                              const std::shared_ptr<Arena>& arena,
                              ExecState* state) {
  const int64_t n = rel.rows.size();
  // Evaluate argument columns first (the row path also evaluates every
  // argument before applying the function, so error behavior matches).
  std::vector<ColumnPtr> args;
  args.reserve(e.args.size());
  for (const auto& a : e.args) {
    MSQL_ASSIGN_OR_RETURN(ColumnPtr col, EvalVec(*a, rel, arena, state));
    if (col == nullptr) return Result<ColumnPtr>(nullptr);
    args.push_back(std::move(col));
  }

  switch (e.func) {
    case FunctionId::kOpAnd:
    case FunctionId::kOpOr: {
      if (!BoolishKind(args[0]->kind) || !BoolishKind(args[1]->kind)) {
        return Result<ColumnPtr>(nullptr);
      }
      return EvalBoolPair(e.func == FunctionId::kOpAnd, *args[0], *args[1], n,
                          arena, state);
    }
    case FunctionId::kOpNot: {
      const ColumnVector& a = *args[0];
      if (!BoolishKind(a.kind)) return Result<ColumnPtr>(nullptr);
      if (a.kind == TypeKind::kNull) return AllNullColumn(n, arena);
      MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(TypeKind::kBool, n, arena));
      for (int64_t i = 0; i < n; ++i) {
        if (a.IsValid(i)) {
          SetValid(out.valid, i);
          out.ints[i] = a.ints[i] != 0 ? 0 : 1;
        }
      }
      return Freeze(out);
    }
    case FunctionId::kOpIsDistinctFrom:
    case FunctionId::kOpIsNotDistinctFrom: {
      const ColumnVector& a = *args[0];
      const ColumnVector& b = *args[1];
      const bool want_equal = e.func == FunctionId::kOpIsNotDistinctFrom;
      MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(TypeKind::kBool, n, arena));
      if (a.kind == TypeKind::kNull || b.kind == TypeKind::kNull) {
        for (int64_t i = 0; i < n; ++i) {
          const bool eq = a.IsValid(i) == b.IsValid(i) &&
                          !a.IsValid(i);  // equal only when both NULL
          SetValid(out.valid, i);
          out.ints[i] = (eq == want_equal) ? 1 : 0;
        }
        return Freeze(out);
      }
      EqKernel eq(a, b);
      if (!eq.supported) return Result<ColumnPtr>(nullptr);
      for (int64_t i = 0; i < n; ++i) {
        if ((i & (kRowsPerBatch - 1)) == 0) {
          MSQL_RETURN_IF_ERROR(state->guard.Check());
        }
        const bool av = a.IsValid(i), bv = b.IsValid(i);
        const bool same = (av == bv) && (!av || eq.Equal(i));
        SetValid(out.valid, i);
        out.ints[i] = (same == want_equal) ? 1 : 0;
      }
      return Freeze(out);
    }
    case FunctionId::kOpEq:
    case FunctionId::kOpNe: {
      const ColumnVector& a = *args[0];
      const ColumnVector& b = *args[1];
      if (a.kind == TypeKind::kNull || b.kind == TypeKind::kNull) {
        return AllNullColumn(n, arena);
      }
      EqKernel eq(a, b);
      if (!eq.supported) return Result<ColumnPtr>(nullptr);
      const bool want_equal = e.func == FunctionId::kOpEq;
      MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(TypeKind::kBool, n, arena));
      for (int64_t i = 0; i < n; ++i) {
        if ((i & (kRowsPerBatch - 1)) == 0) {
          MSQL_RETURN_IF_ERROR(state->guard.Check());
        }
        if (a.IsValid(i) && b.IsValid(i)) {
          SetValid(out.valid, i);
          out.ints[i] = (eq.Equal(i) == want_equal) ? 1 : 0;
        }
      }
      return Freeze(out);
    }
    case FunctionId::kOpLt:
    case FunctionId::kOpLe:
    case FunctionId::kOpGt:
    case FunctionId::kOpGe: {
      const ColumnVector& a = *args[0];
      const ColumnVector& b = *args[1];
      if (a.kind == TypeKind::kNull || b.kind == TypeKind::kNull) {
        return AllNullColumn(n, arena);
      }
      CmpKernel cmp(a, b);
      if (!cmp.supported) return Result<ColumnPtr>(nullptr);
      MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(TypeKind::kBool, n, arena));
      for (int64_t i = 0; i < n; ++i) {
        if ((i & (kRowsPerBatch - 1)) == 0) {
          MSQL_RETURN_IF_ERROR(state->guard.Check());
        }
        if (!a.IsValid(i) || !b.IsValid(i)) continue;
        const int c = cmp.Compare(i);
        bool v = false;
        switch (e.func) {
          case FunctionId::kOpLt: v = c < 0; break;
          case FunctionId::kOpLe: v = c <= 0; break;
          case FunctionId::kOpGt: v = c > 0; break;
          default: v = c >= 0; break;
        }
        SetValid(out.valid, i);
        out.ints[i] = v ? 1 : 0;
      }
      return Freeze(out);
    }
    case FunctionId::kOpAdd:
    case FunctionId::kOpSub:
    case FunctionId::kOpMul: {
      const ColumnVector& a = *args[0];
      const ColumnVector& b = *args[1];
      if (a.kind == TypeKind::kNull || b.kind == TypeKind::kNull) {
        return AllNullColumn(n, arena);
      }
      if (!IsNumericish(a.kind) || !IsNumericish(b.kind)) {
        return Result<ColumnPtr>(nullptr);
      }
      // Result-kind dispatch mirroring EvalScalarFunction's promotion.
      TypeKind out_kind;
      enum class Op { kDateInt, kIntDate, kDateDate, kIntInt, kDouble };
      Op op;
      const bool ad = a.kind == TypeKind::kDate, bd = b.kind == TypeKind::kDate;
      const bool ai = a.kind == TypeKind::kInt64, bi = b.kind == TypeKind::kInt64;
      if (e.func == FunctionId::kOpAdd && ad) {
        op = Op::kDateInt; out_kind = TypeKind::kDate;
      } else if (e.func == FunctionId::kOpAdd && bd) {
        op = Op::kIntDate; out_kind = TypeKind::kDate;
      } else if (e.func == FunctionId::kOpSub && ad && bd) {
        op = Op::kDateDate; out_kind = TypeKind::kInt64;
      } else if (e.func == FunctionId::kOpSub && ad) {
        op = Op::kDateInt; out_kind = TypeKind::kDate;
      } else if (e.func != FunctionId::kOpAdd && bd && !ad) {
        // DATE on the right of - or *: the row path falls through to the
        // AsDouble arm (AsDouble of a DATE is its day count).
        op = Op::kDouble; out_kind = TypeKind::kDouble;
      } else if (ai && bi) {
        op = Op::kIntInt; out_kind = TypeKind::kInt64;
      } else {
        op = Op::kDouble; out_kind = TypeKind::kDouble;
      }
      MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(out_kind, n, arena));
      for (int64_t i = 0; i < n; ++i) {
        if ((i & (kRowsPerBatch - 1)) == 0) {
          MSQL_RETURN_IF_ERROR(state->guard.Check());
        }
        if (!a.IsValid(i) || !b.IsValid(i)) continue;
        SetValid(out.valid, i);
        switch (op) {
          case Op::kDateInt:
            out.ints[i] = e.func == FunctionId::kOpAdd
                              ? a.ints[i] + IntValAt(b, i)
                              : a.ints[i] - IntValAt(b, i);
            break;
          case Op::kIntDate:
            out.ints[i] = b.ints[i] + IntValAt(a, i);
            break;
          case Op::kDateDate:
            out.ints[i] = a.ints[i] - b.ints[i];
            break;
          case Op::kIntInt: {
            // Wrapping arithmetic: the row path's int64 + / - / * compile
            // to the same two's-complement result; unsigned math keeps
            // UBSan quiet on adversarial inputs.
            const uint64_t x = static_cast<uint64_t>(a.ints[i]);
            const uint64_t y = static_cast<uint64_t>(b.ints[i]);
            uint64_t r = 0;
            if (e.func == FunctionId::kOpAdd) r = x + y;
            else if (e.func == FunctionId::kOpSub) r = x - y;
            else r = x * y;
            out.ints[i] = static_cast<int64_t>(r);
            break;
          }
          case Op::kDouble: {
            const double x = AsDoubleAt(a, i), y = AsDoubleAt(b, i);
            if (e.func == FunctionId::kOpAdd) out.doubles[i] = x + y;
            else if (e.func == FunctionId::kOpSub) out.doubles[i] = x - y;
            else out.doubles[i] = x * y;
            break;
          }
        }
      }
      return Freeze(out);
    }
    case FunctionId::kOpDiv: {
      const ColumnVector& a = *args[0];
      const ColumnVector& b = *args[1];
      if (a.kind == TypeKind::kNull || b.kind == TypeKind::kNull) {
        return AllNullColumn(n, arena);
      }
      if (!IsNumericish(a.kind) || !IsNumericish(b.kind)) {
        return Result<ColumnPtr>(nullptr);
      }
      MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(TypeKind::kDouble, n, arena));
      for (int64_t i = 0; i < n; ++i) {
        if ((i & (kRowsPerBatch - 1)) == 0) {
          MSQL_RETURN_IF_ERROR(state->guard.Check());
        }
        if (!a.IsValid(i) || !b.IsValid(i)) continue;
        const double divisor = AsDoubleAt(b, i);
        if (divisor == 0) {
          return Status(ErrorCode::kExecution, "division by zero");
        }
        SetValid(out.valid, i);
        out.doubles[i] = AsDoubleAt(a, i) / divisor;
      }
      return Freeze(out);
    }
    case FunctionId::kOpNeg: {
      const ColumnVector& a = *args[0];
      if (a.kind == TypeKind::kNull) return AllNullColumn(n, arena);
      if (!IsNumericish(a.kind)) return Result<ColumnPtr>(nullptr);
      const TypeKind out_kind =
          a.kind == TypeKind::kInt64 ? TypeKind::kInt64 : TypeKind::kDouble;
      MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(out_kind, n, arena));
      for (int64_t i = 0; i < n; ++i) {
        if (!a.IsValid(i)) continue;
        SetValid(out.valid, i);
        if (out_kind == TypeKind::kInt64) {
          out.ints[i] = static_cast<int64_t>(-static_cast<uint64_t>(a.ints[i]));
        } else {
          out.doubles[i] = -AsDoubleAt(a, i);
        }
      }
      return Freeze(out);
    }
    case FunctionId::kYear:
    case FunctionId::kMonth:
    case FunctionId::kDay:
    case FunctionId::kQuarter:
    case FunctionId::kDayOfWeek: {
      const ColumnVector& a = *args[0];
      if (a.kind == TypeKind::kNull) return AllNullColumn(n, arena);
      if (a.kind != TypeKind::kDate) return Result<ColumnPtr>(nullptr);
      MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(TypeKind::kInt64, n, arena));
      // One loop per date part, chosen once for the column.
      auto fill = [&](auto part) -> Status {
        for (int64_t i = 0; i < n; ++i) {
          if ((i & (kRowsPerBatch - 1)) == 0) {
            MSQL_RETURN_IF_ERROR(state->guard.Check());
          }
          if (!a.IsValid(i)) continue;
          SetValid(out.valid, i);
          out.ints[i] = part(a.ints[i]);
        }
        return Status::Ok();
      };
      switch (e.func) {
        case FunctionId::kYear:
          MSQL_RETURN_IF_ERROR(fill([](int64_t d) { return YearOfDate(d); }));
          break;
        case FunctionId::kMonth:
          MSQL_RETURN_IF_ERROR(fill([](int64_t d) { return MonthOfDate(d); }));
          break;
        case FunctionId::kDay:
          MSQL_RETURN_IF_ERROR(fill([](int64_t d) { return DayOfDate(d); }));
          break;
        case FunctionId::kQuarter:
          MSQL_RETURN_IF_ERROR(
              fill([](int64_t d) { return QuarterOfDate(d); }));
          break;
        default:
          MSQL_RETURN_IF_ERROR(fill([](int64_t d) { return DayOfWeek(d); }));
          break;
      }
      return Freeze(out);
    }
    default:
      return Result<ColumnPtr>(nullptr);
  }
}

// x [NOT] IN (c1, ..., ck) when every item is a literal or a bound `?`
// parameter. The row arm evaluates items in order and short-circuits, so a
// non-constant item (which could error or depend on the row) stays on the
// row path; with constant items its result depends only on the operand:
// NULL operand -> NULL; an item NotDistinct from it -> !negated; otherwise
// NULL when some item is NULL, else negated. A string operand whose
// dictionary is no larger than the batch tests each entry once, then reads
// one membership bit per row; a larger dictionary (a gather after a
// selective filter shares its base's) is tested row by row instead.
Result<ColumnPtr> EvalInListVec(const BoundExpr& e, const Relation& rel,
                                const std::shared_ptr<Arena>& arena,
                                ExecState* state) {
  const int64_t n = rel.rows.size();
  std::vector<Value> items;
  bool saw_null = false;
  for (const auto& item : e.args) {
    const Value* v = nullptr;
    if (item->kind == BoundExprKind::kLiteral) {
      v = &item->literal;
    } else if (item->kind == BoundExprKind::kParam &&
               state->params != nullptr && item->param_index >= 0 &&
               static_cast<size_t>(item->param_index) <
                   state->params->size()) {
      v = &(*state->params)[item->param_index];
    } else {
      return Result<ColumnPtr>(nullptr);
    }
    if (v->is_null()) {
      saw_null = true;
    } else {
      items.push_back(*v);
    }
  }
  MSQL_ASSIGN_OR_RETURN(ColumnPtr operand,
                        EvalVec(*e.operand, rel, arena, state));
  if (operand == nullptr) return Result<ColumnPtr>(nullptr);
  const ColumnVector& a = *operand;
  if (a.kind == TypeKind::kNull) return AllNullColumn(n, arena);

  auto is_member = [&](const Value& v) {
    for (const Value& item : items) {
      if (Value::NotDistinct(v, item)) return true;
    }
    return false;
  };
  // NotDistinct(string, item) holds only for a string item with equal
  // text, so dictionary entries compare against the string items alone.
  std::vector<uint8_t> dict_member;
  const bool by_dict = a.kind == TypeKind::kString &&
                       static_cast<int64_t>(a.dict->size()) <= n;
  if (by_dict) {
    dict_member.assign(a.dict->size(), 0);
    for (size_t k = 0; k < a.dict->size(); ++k) {
      for (const Value& item : items) {
        if (item.kind() == TypeKind::kString && item.str() == (*a.dict)[k]) {
          dict_member[k] = 1;
          break;
        }
      }
    }
  }
  MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(TypeKind::kBool, n, arena));
  for (int64_t i = 0; i < n; ++i) {
    if ((i & (kRowsPerBatch - 1)) == 0) {
      MSQL_RETURN_IF_ERROR(state->guard.Check());
    }
    if (!a.IsValid(i)) continue;
    const bool hit = by_dict
                         ? dict_member[static_cast<size_t>(a.ints[i])] != 0
                         : is_member(a.At(i));
    if (hit || !saw_null) {
      SetValid(out.valid, i);
      out.ints[i] = hit != e.negated ? 1 : 0;
    }
  }
  return Freeze(out);
}

Result<ColumnPtr> EvalVec(const BoundExpr& e, const Relation& rel,
                          const std::shared_ptr<Arena>& arena,
                          ExecState* state) {
  const int64_t n = rel.rows.size();
  switch (e.kind) {
    case BoundExprKind::kLiteral:
      return BroadcastLiteral(e.literal, n, arena);
    case BoundExprKind::kParam: {
      if (state->params == nullptr || e.param_index < 0 ||
          static_cast<size_t>(e.param_index) >= state->params->size()) {
        return Result<ColumnPtr>(nullptr);
      }
      return BroadcastLiteral((*state->params)[e.param_index], n, arena);
    }
    case BoundExprKind::kColumnRef: {
      if (e.depth != 0 || e.column < 0) return Result<ColumnPtr>(nullptr);
      if (rel.columns != nullptr &&
          static_cast<size_t>(e.column) < rel.columns->cols.size() &&
          rel.columns->cols[e.column] != nullptr) {
        return rel.columns->cols[e.column];  // zero-copy
      }
      return ColumnFromRows(rel, e.column, arena, state);
    }
    case BoundExprKind::kRowIndex: {
      MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(TypeKind::kInt64, n, arena));
      for (int64_t i = 0; i < n; ++i) {
        SetValid(out.valid, i);
        out.ints[i] = i;
      }
      return Freeze(out);
    }
    case BoundExprKind::kIsNull: {
      MSQL_ASSIGN_OR_RETURN(ColumnPtr operand,
                            EvalVec(*e.operand, rel, arena, state));
      if (operand == nullptr) return Result<ColumnPtr>(nullptr);
      MSQL_ASSIGN_OR_RETURN(ColOut out, NewCol(TypeKind::kBool, n, arena));
      for (int64_t i = 0; i < n; ++i) {
        SetValid(out.valid, i);
        out.ints[i] = (!operand->IsValid(i) != e.negated) ? 1 : 0;
      }
      return Freeze(out);
    }
    case BoundExprKind::kFunc:
      return EvalFuncVec(e, rel, arena, state);
    case BoundExprKind::kInList:
      return EvalInListVec(e, rel, arena, state);
    default:
      // CASE, CAST, LIKE, IN over non-constant items, subqueries, measures,
      // GROUPING: row path.
      return Result<ColumnPtr>(nullptr);
  }
}

}  // namespace

Result<ColumnPtr> EvalVector(const BoundExpr& e, const Relation& rel,
                             const std::shared_ptr<Arena>& arena,
                             ExecState* state) {
  return EvalVec(e, rel, arena, state);
}

}  // namespace msql
