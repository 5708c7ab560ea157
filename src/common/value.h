#ifndef MSQL_COMMON_VALUE_H_
#define MSQL_COMMON_VALUE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace msql {

// A dynamically typed SQL value. Values are small (kind tag + payload) and
// copyable; strings are stored inline. NULL is its own kind so that untyped
// NULLs flow through expressions before coercion.
class Value {
 public:
  Value() : kind_(TypeKind::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.kind_ = TypeKind::kBool;
    v.i_ = b ? 1 : 0;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.kind_ = TypeKind::kInt64;
    v.i_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.kind_ = TypeKind::kDouble;
    v.d_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.kind_ = TypeKind::kString;
    v.s_ = std::move(s);
    return v;
  }
  static Value Date(int64_t days) {
    Value v;
    v.kind_ = TypeKind::kDate;
    v.i_ = days;
    return v;
  }

  TypeKind kind() const { return kind_; }
  bool is_null() const { return kind_ == TypeKind::kNull; }

  bool bool_val() const { return i_ != 0; }
  int64_t int_val() const { return i_; }
  double double_val() const { return d_; }
  const std::string& str() const { return s_; }
  int64_t date_days() const { return i_; }

  // Numeric coercion (INT64 / DOUBLE / BOOL -> double). Callers must have
  // checked is_null() and numeric-ness.
  double AsDouble() const;

  // Casts to the requested kind; SQL CAST semantics (string parsing included).
  Result<Value> CastTo(TypeKind target) const;

  // SQL `IS NOT DISTINCT FROM`: NULL matches NULL; used for group keys and
  // evaluation-context dimension terms (paper footnote 1).
  static bool NotDistinct(const Value& a, const Value& b);

  // Three-valued `=`: returns Null if either side is NULL.
  static Value SqlEquals(const Value& a, const Value& b);

  // Total order for ORDER BY, MIN/MAX, GREATEST/LEAST and `<`-style
  // comparisons: NULLs first, numeric cross-type comparison, NaN after
  // every other non-NULL value and equal to NaN. Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  // Compare's order on doubles (NaN last, equal to NaN), for the
  // vectorized kernels that must agree with it.
  static int CompareDoubles(double x, double y) {
    if (x < y) return -1;
    if (x > y) return 1;
    if (x == y) return 0;
    return static_cast<int>(std::isnan(x)) - static_cast<int>(std::isnan(y));
  }

  // Hash consistent with NotDistinct (for hash aggregation / joins).
  size_t Hash() const;

  // Rendering used in result sets ('NULL', 'Happy', 2023-11-28, 0.47, ...).
  std::string ToString() const;

  // Rendering as a SQL literal (strings quoted, DATE '...' prefix); used by
  // the measure-expansion module when it prints rewritten queries.
  std::string ToSqlLiteral() const;

 private:
  TypeKind kind_;
  int64_t i_ = 0;  // bool / int / date payload
  double d_ = 0;   // double payload
  std::string s_;  // string payload
};

using Row = std::vector<Value>;

// NotDistinct over all values of two equal-length rows.
bool RowsNotDistinct(const Row& a, const Row& b);

// Hash and equality for Row-keyed hash maps under GROUP BY key semantics
// (IS NOT DISTINCT FROM, so NULL keys form a group like any other value).
struct RowKeyHash {
  size_t operator()(const Row& row) const;
};
struct RowKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    return RowsNotDistinct(a, b);
  }
};

}  // namespace msql

#endif  // MSQL_COMMON_VALUE_H_
