// Unit tests for the oracle's result normalization and comparison
// (src/testing/compare): ULP-tolerant doubles, NULL-as-not-distinct cells,
// row-order-insensitive result diffs, and numeric kind coercion.

#include <cmath>
#include <limits>

#include "gtest/gtest.h"
#include "tests/testing_matchers.h"
#include "testing/compare.h"

namespace msql {
namespace testing {
namespace {

ResultSet MakeResult(std::vector<std::string> names, std::vector<Row> rows) {
  std::vector<DataType> types(names.size());
  return ResultSet(std::move(names), std::move(types), std::move(rows));
}

TEST(ValuesAgreeTest, ExactAndNullCells) {
  CompareOptions opts;
  EXPECT_TRUE(ValuesAgree(Value::Int(7), Value::Int(7), opts));
  EXPECT_FALSE(ValuesAgree(Value::Int(7), Value::Int(8), opts));
  EXPECT_TRUE(ValuesAgree(Value::Null(), Value::Null(), opts));
  EXPECT_FALSE(ValuesAgree(Value::Null(), Value::Int(0), opts));
  EXPECT_TRUE(ValuesAgree(Value::String("x"), Value::String("x"), opts));
  EXPECT_FALSE(ValuesAgree(Value::String("x"), Value::String("y"), opts));
}

TEST(ValuesAgreeTest, DoublesWithinUlpsAgree) {
  CompareOptions opts;
  opts.double_rel_tol = 0;  // isolate the ULP rule
  double a = 0.1 + 0.2;     // 0.30000000000000004
  EXPECT_TRUE(ValuesAgree(Value::Double(a), Value::Double(0.3), opts));

  // A far-apart pair must not agree.
  EXPECT_FALSE(ValuesAgree(Value::Double(1.0), Value::Double(1.001), opts));

  // Exactly representable values agree with themselves at 0 ULPs.
  opts.double_ulps = 0;
  EXPECT_TRUE(ValuesAgree(Value::Double(1.5), Value::Double(1.5), opts));
  EXPECT_FALSE(
      ValuesAgree(Value::Double(1.5),
                  Value::Double(std::nextafter(1.5, 2.0)), opts));
}

TEST(ValuesAgreeTest, UlpComparisonIsMonotoneAcrossZero) {
  CompareOptions opts;
  opts.double_rel_tol = 0;
  opts.double_ulps = 4;
  // Tiny values of opposite sign straddle zero; the monotone bit map must
  // measure their distance through it, not wrap.
  double eps = std::numeric_limits<double>::denorm_min();
  EXPECT_TRUE(ValuesAgree(Value::Double(eps), Value::Double(-eps), opts));
  EXPECT_TRUE(ValuesAgree(Value::Double(0.0), Value::Double(-0.0), opts));
  EXPECT_FALSE(ValuesAgree(Value::Double(1e-300), Value::Double(-1e-300),
                           opts));
}

TEST(ValuesAgreeTest, SpecialDoubles) {
  CompareOptions opts;
  double inf = std::numeric_limits<double>::infinity();
  double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(ValuesAgree(Value::Double(nan), Value::Double(nan), opts));
  EXPECT_TRUE(ValuesAgree(Value::Double(inf), Value::Double(inf), opts));
  EXPECT_FALSE(ValuesAgree(Value::Double(inf), Value::Double(-inf), opts));
  EXPECT_FALSE(ValuesAgree(Value::Double(nan), Value::Double(1.0), opts));
  EXPECT_FALSE(
      ValuesAgree(Value::Double(inf),
                  Value::Double(std::numeric_limits<double>::max()), opts));
}

TEST(ValuesAgreeTest, NumericKindMismatch) {
  CompareOptions opts;
  // The textual expansion can turn an INT64 column into DOUBLE.
  EXPECT_TRUE(ValuesAgree(Value::Int(3), Value::Double(3.0), opts));
  EXPECT_FALSE(ValuesAgree(Value::Int(3), Value::Double(3.5), opts));
  opts.allow_numeric_kind_mismatch = false;
  EXPECT_FALSE(ValuesAgree(Value::Int(3), Value::Double(3.0), opts));
}

TEST(DiffResultsTest, RowOrderIsNormalizedAway) {
  ResultSet a = MakeResult({"k", "v"}, {{Value::Int(1), Value::Int(10)},
                                        {Value::Int(2), Value::Int(20)},
                                        {Value::Null(), Value::Int(30)}});
  ResultSet b = MakeResult({"k", "v"}, {{Value::Null(), Value::Int(30)},
                                        {Value::Int(2), Value::Int(20)},
                                        {Value::Int(1), Value::Int(10)}});
  EXPECT_EQ(DiffResults(a, b), std::nullopt);
  EXPECT_TRUE(ResultsAgree(a, b));
}

TEST(DiffResultsTest, ShapeAndCellMismatchesAreReported) {
  ResultSet a = MakeResult({"k"}, {{Value::Int(1)}});
  ResultSet wide = MakeResult({"k", "v"}, {{Value::Int(1), Value::Int(2)}});
  ResultSet tall = MakeResult({"k"}, {{Value::Int(1)}, {Value::Int(2)}});
  ResultSet off = MakeResult({"k"}, {{Value::Int(3)}});
  ASSERT_TRUE(DiffResults(a, wide).has_value());
  ASSERT_TRUE(DiffResults(a, tall).has_value());
  auto diff = DiffResults(a, off);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("1"), std::string::npos);
  EXPECT_NE(diff->find("3"), std::string::npos);
}

TEST(DiffResultsTest, NormalizedRowsSortTotally) {
  ResultSet rs = MakeResult(
      {"x"}, {{Value::Int(2)}, {Value::Null()}, {Value::Int(1)}});
  std::vector<Row> sorted = NormalizedRows(rs);
  ASSERT_EQ(sorted.size(), 3u);
  // Whatever the engine's NULL placement, the order must be deterministic
  // and totally sorted under Value::Compare.
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(Value::Compare(sorted[i - 1][0], sorted[i][0]), 0);
  }
}

TEST(DiffResultsTest, NaNSortsAfterEveryNumber) {
  // Value::Compare calls NaN equal to every number, so sorting by it alone
  // can leave two orders of one multiset in two different orders.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ResultSet a = MakeResult({"x"}, {{Value::Double(nan)},
                                   {Value::Double(1.0)},
                                   {Value::Double(2.0)}});
  ResultSet b = MakeResult({"x"}, {{Value::Double(2.0)},
                                   {Value::Double(1.0)},
                                   {Value::Double(nan)}});
  EXPECT_EQ(DiffResults(a, b), std::nullopt);
  std::vector<Row> sorted = NormalizedRows(a);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0][0].double_val(), 1.0);
  EXPECT_EQ(sorted[1][0].double_val(), 2.0);
  EXPECT_TRUE(std::isnan(sorted[2][0].double_val()));
}

}  // namespace
}  // namespace testing
}  // namespace msql
