#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "common/date.h"
#include "common/string_util.h"

namespace msql {

double Value::AsDouble() const {
  switch (kind_) {
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return static_cast<double>(i_);
    case TypeKind::kDouble:
      return d_;
    default:
      return 0;
  }
}

Result<Value> Value::CastTo(TypeKind target) const {
  if (is_null() || kind_ == target) return *this;
  switch (target) {
    case TypeKind::kInt64:
      switch (kind_) {
        case TypeKind::kBool:
          return Value::Int(i_);
        case TypeKind::kDouble:
          return Value::Int(static_cast<int64_t>(d_));
        case TypeKind::kString: {
          char* end = nullptr;
          long long v = std::strtoll(s_.c_str(), &end, 10);
          if (end == nullptr || *end != '\0' || s_.empty()) {
            return Status(ErrorCode::kExecution,
                          "cannot cast '" + s_ + "' to INTEGER");
          }
          return Value::Int(v);
        }
        case TypeKind::kDate:
          return Value::Int(i_);
        default:
          break;
      }
      break;
    case TypeKind::kDouble:
      switch (kind_) {
        case TypeKind::kBool:
        case TypeKind::kInt64:
          return Value::Double(static_cast<double>(i_));
        case TypeKind::kString: {
          char* end = nullptr;
          double v = std::strtod(s_.c_str(), &end);
          if (end == nullptr || *end != '\0' || s_.empty()) {
            return Status(ErrorCode::kExecution,
                          "cannot cast '" + s_ + "' to DOUBLE");
          }
          return Value::Double(v);
        }
        default:
          break;
      }
      break;
    case TypeKind::kString:
      return Value::String(ToString());
    case TypeKind::kBool:
      switch (kind_) {
        case TypeKind::kInt64:
          return Value::Bool(i_ != 0);
        case TypeKind::kString:
          if (EqualsIgnoreCase(s_, "true")) return Value::Bool(true);
          if (EqualsIgnoreCase(s_, "false")) return Value::Bool(false);
          return Status(ErrorCode::kExecution,
                        "cannot cast '" + s_ + "' to BOOLEAN");
        default:
          break;
      }
      break;
    case TypeKind::kDate:
      if (kind_ == TypeKind::kString) {
        MSQL_ASSIGN_OR_RETURN(int64_t days, ParseDate(s_));
        return Value::Date(days);
      }
      if (kind_ == TypeKind::kInt64) return Value::Date(i_);
      break;
    default:
      break;
  }
  return Status(ErrorCode::kExecution,
                StrCat("cannot cast ", TypeKindName(kind_), " to ",
                       TypeKindName(target)));
}

bool Value::NotDistinct(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.kind_ == b.kind_) {
    switch (a.kind_) {
      case TypeKind::kBool:
      case TypeKind::kInt64:
      case TypeKind::kDate:
        return a.i_ == b.i_;
      case TypeKind::kDouble:
        return a.d_ == b.d_;
      case TypeKind::kString:
        return a.s_ == b.s_;
      default:
        return true;
    }
  }
  // Cross-type numeric equality (INT64 vs DOUBLE).
  if ((a.kind_ == TypeKind::kInt64 || a.kind_ == TypeKind::kDouble) &&
      (b.kind_ == TypeKind::kInt64 || b.kind_ == TypeKind::kDouble)) {
    return a.AsDouble() == b.AsDouble();
  }
  return false;
}

Value Value::SqlEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  return Value::Bool(NotDistinct(a, b));
}

int Value::Compare(const Value& a, const Value& b) {
  if (a.is_null() && b.is_null()) return 0;
  if (a.is_null()) return -1;
  if (b.is_null()) return 1;
  if (a.kind_ == TypeKind::kString && b.kind_ == TypeKind::kString) {
    return a.s_.compare(b.s_);
  }
  if (a.kind_ == b.kind_ &&
      (a.kind_ == TypeKind::kInt64 || a.kind_ == TypeKind::kDate ||
       a.kind_ == TypeKind::kBool)) {
    return a.i_ < b.i_ ? -1 : a.i_ > b.i_ ? 1 : 0;
  }
  return CompareDoubles(a.AsDouble(), b.AsDouble());
}

size_t Value::Hash() const {
  switch (kind_) {
    case TypeKind::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case TypeKind::kBool:
    case TypeKind::kInt64:
    case TypeKind::kDate:
      // Hash ints through double when integral so INT 2 and DOUBLE 2.0
      // agree (NotDistinct treats them as equal).
      return std::hash<double>()(static_cast<double>(i_));
    case TypeKind::kDouble:
      return std::hash<double>()(d_);
    case TypeKind::kString:
      return std::hash<std::string>()(s_);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind_) {
    case TypeKind::kNull:
      return "NULL";
    case TypeKind::kBool:
      return i_ ? "true" : "false";
    case TypeKind::kInt64:
      return StrCat(i_);
    case TypeKind::kDouble:
      return FormatDouble(d_);
    case TypeKind::kString:
      return s_;
    case TypeKind::kDate:
      return FormatDate(i_);
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  switch (kind_) {
    case TypeKind::kString:
      return QuoteSqlString(s_);
    case TypeKind::kDate:
      return "DATE '" + FormatDate(i_) + "'";
    default:
      return ToString();
  }
}

size_t RowKeyHash::operator()(const Row& row) const {
  size_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : row) {
    h ^= v.Hash();
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool RowsNotDistinct(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!Value::NotDistinct(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace msql
