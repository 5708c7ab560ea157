#include "testing/compare.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/string_util.h"

namespace msql {
namespace testing {

namespace {

bool IsNumericKind(TypeKind k) {
  return k == TypeKind::kInt64 || k == TypeKind::kDouble ||
         k == TypeKind::kBool;
}

int64_t DoubleBits(double d) {
  int64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  // Map the sign-magnitude float encoding onto a monotone integer line so
  // ULP distance is a plain subtraction.
  return bits < 0 ? std::numeric_limits<int64_t>::min() - bits : bits;
}

bool DoublesAgree(double a, double b, const CompareOptions& opts) {
  if (a == b) return true;  // covers equal finite values and same-sign inf
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  if (std::isinf(a) || std::isinf(b)) return false;
  // Bias the monotone signed line into unsigned order (flip the sign bit)
  // so the distance between values straddling zero is the plain unsigned
  // difference rather than a wrapped 2^64 - n.
  uint64_t ua = static_cast<uint64_t>(DoubleBits(a)) ^ (1ull << 63);
  uint64_t ub = static_cast<uint64_t>(DoubleBits(b)) ^ (1ull << 63);
  uint64_t ulps = ua > ub ? ua - ub : ub - ua;
  if (ulps <= static_cast<uint64_t>(opts.double_ulps)) return true;
  double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= opts.double_rel_tol * scale;
}

}  // namespace

bool ValuesAgree(const Value& a, const Value& b, const CompareOptions& opts) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.kind() == b.kind()) {
    if (a.kind() == TypeKind::kDouble) {
      return DoublesAgree(a.double_val(), b.double_val(), opts);
    }
    return Value::NotDistinct(a, b);
  }
  if (opts.allow_numeric_kind_mismatch && IsNumericKind(a.kind()) &&
      IsNumericKind(b.kind())) {
    return DoublesAgree(a.AsDouble(), b.AsDouble(), opts);
  }
  return false;
}

std::vector<Row> NormalizedRows(const ResultSet& rs) {
  std::vector<Row> rows = rs.rows();
  std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    size_t n = std::min(x.size(), y.size());
    for (size_t i = 0; i < n; ++i) {
      int c = Value::Compare(x[i], y[i]);
      if (c != 0) return c < 0;
    }
    return x.size() < y.size();
  });
  return rows;
}

std::optional<std::string> DiffResults(const ResultSet& a, const ResultSet& b,
                                       const CompareOptions& opts) {
  if (a.num_columns() != b.num_columns()) {
    return StrCat("column count ", a.num_columns(), " vs ", b.num_columns());
  }
  if (a.num_rows() != b.num_rows()) {
    return StrCat("row count ", a.num_rows(), " vs ", b.num_rows());
  }
  std::vector<Row> ra = opts.ignore_row_order ? NormalizedRows(a) : a.rows();
  std::vector<Row> rb = opts.ignore_row_order ? NormalizedRows(b) : b.rows();
  for (size_t i = 0; i < ra.size(); ++i) {
    for (size_t c = 0; c < ra[i].size() && c < rb[i].size(); ++c) {
      if (!ValuesAgree(ra[i][c], rb[i][c], opts)) {
        return StrCat("row ", i, " column ", c, " (",
                      c < a.column_names().size() ? a.column_names()[c] : "?",
                      "): ", ra[i][c].ToString(), " vs ", rb[i][c].ToString());
      }
    }
  }
  return std::nullopt;
}

}  // namespace testing
}  // namespace msql
