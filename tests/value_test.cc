// Unit tests for the dynamically typed Value, date math and formatting.

#include "common/value.h"

#include "common/date.h"
#include "common/string_util.h"
#include "gtest/gtest.h"

namespace msql {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_TRUE(Value::NotDistinct(Value::Null(), Value::Null()));
  EXPECT_FALSE(Value::NotDistinct(Value::Null(), Value::Int(0)));
  EXPECT_TRUE(Value::SqlEquals(Value::Null(), Value::Int(1)).is_null());
}

TEST(ValueTest, Constructors) {
  EXPECT_EQ(Value::Int(42).int_val(), 42);
  EXPECT_EQ(Value::Bool(true).bool_val(), true);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_val(), 2.5);
  EXPECT_EQ(Value::String("hi").str(), "hi");
  EXPECT_EQ(Value::Date(0).ToString(), "1970-01-01");
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_TRUE(Value::NotDistinct(Value::Int(2), Value::Double(2.0)));
  EXPECT_FALSE(Value::NotDistinct(Value::Int(2), Value::Double(2.5)));
  // Hash must be consistent with NotDistinct.
  EXPECT_EQ(Value::Int(2).Hash(), Value::Double(2.0).Hash());
}

TEST(ValueTest, Compare) {
  EXPECT_LT(Value::Compare(Value::Int(1), Value::Int(2)), 0);
  EXPECT_GT(Value::Compare(Value::String("b"), Value::String("a")), 0);
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
  EXPECT_LT(Value::Compare(Value::Null(), Value::Int(-100)), 0);  // NULL first
  EXPECT_LT(Value::Compare(Value::Int(1), Value::Double(1.5)), 0);
  EXPECT_LT(Value::Compare(Value::Date(10), Value::Date(11)), 0);
}

TEST(ValueTest, CastToInt) {
  EXPECT_EQ(Value::String("123").CastTo(TypeKind::kInt64).value().int_val(),
            123);
  EXPECT_EQ(Value::Double(3.9).CastTo(TypeKind::kInt64).value().int_val(), 3);
  EXPECT_EQ(Value::Bool(true).CastTo(TypeKind::kInt64).value().int_val(), 1);
  EXPECT_FALSE(Value::String("12x").CastTo(TypeKind::kInt64).ok());
  EXPECT_TRUE(Value::Null().CastTo(TypeKind::kInt64).value().is_null());
}

TEST(ValueTest, CastToDouble) {
  EXPECT_DOUBLE_EQ(
      Value::String("2.5").CastTo(TypeKind::kDouble).value().double_val(),
      2.5);
  EXPECT_FALSE(Value::String("").CastTo(TypeKind::kDouble).ok());
}

TEST(ValueTest, CastToString) {
  EXPECT_EQ(Value::Int(7).CastTo(TypeKind::kString).value().str(), "7");
  EXPECT_EQ(Value::Date(0).CastTo(TypeKind::kString).value().str(),
            "1970-01-01");
}

TEST(ValueTest, CastToDate) {
  Value d = Value::String("2023-11-28").CastTo(TypeKind::kDate).value();
  EXPECT_EQ(d.kind(), TypeKind::kDate);
  EXPECT_EQ(YearOfDate(d.date_days()), 2023);
  EXPECT_FALSE(Value::String("2023-02-30").CastTo(TypeKind::kDate).ok());
}

TEST(ValueTest, CastToBool) {
  EXPECT_TRUE(Value::String("TRUE").CastTo(TypeKind::kBool).value().bool_val());
  EXPECT_FALSE(
      Value::String("false").CastTo(TypeKind::kBool).value().bool_val());
  EXPECT_FALSE(Value::String("yep").CastTo(TypeKind::kBool).ok());
}

TEST(ValueTest, SqlLiteralRendering) {
  EXPECT_EQ(Value::String("O'Brien").ToSqlLiteral(), "'O''Brien'");
  EXPECT_EQ(Value::Date(0).ToSqlLiteral(), "DATE '1970-01-01'");
  EXPECT_EQ(Value::Int(-3).ToSqlLiteral(), "-3");
}

TEST(ValueTest, RowHelpers) {
  Row a = {Value::Int(1), Value::String("x"), Value::Null()};
  Row b = {Value::Int(1), Value::String("x"), Value::Null()};
  Row c = {Value::Int(1), Value::String("y"), Value::Null()};
  EXPECT_TRUE(RowsNotDistinct(a, b));
  EXPECT_FALSE(RowsNotDistinct(a, c));
  const RowKeyHash hash;
  EXPECT_EQ(hash(a), hash(b));
  // Consistent with NotDistinct: INT 2 = DOUBLE 2.0 and 0.0 = -0.0.
  EXPECT_EQ(hash({Value::Int(2), Value::Double(0.0)}),
            hash({Value::Double(2.0), Value::Double(-0.0)}));
}

TEST(DateTest, CivilRoundTrip) {
  for (int64_t days : {-719162L, -1L, 0L, 1L, 19689L, 2932896L}) {
    int64_t y;
    unsigned m, d;
    CivilFromDays(days, &y, &m, &d);
    EXPECT_EQ(DaysFromCivil(y, m, d), days);
  }
}

TEST(DateTest, YearOfDateMatchesCivilFromDays) {
  auto civil_year = [](int64_t days) {
    int64_t y;
    unsigned m, d;
    CivilFromDays(days, &y, &m, &d);
    return y;
  };
  // Every day of the years 0000 to 9999 and a margin on both sides, which
  // spans the 32-bit shortcut's range and both its edges.
  const int64_t first = DaysFromCivil(0, 1, 1) - 1000;
  const int64_t last = DaysFromCivil(9999, 12, 31) + 1000;
  ASSERT_LT(first, kFastYearFirstDay);
  ASSERT_GT(last, kFastYearEndDay);
  int64_t mismatches = 0;
  for (int64_t days = first; days <= last; ++days) {
    if (YearOfDate(days) != civil_year(days) && ++mismatches <= 5) {
      ADD_FAILURE() << "day " << days << ": " << YearOfDate(days) << " vs "
                    << civil_year(days);
    }
  }
  EXPECT_EQ(mismatches, 0);
  // A DATE literal's year is any int: the first and last days of the
  // extreme years, and a stride across the days in between.
  const int64_t lo = DaysFromCivil(INT32_MIN, 1, 1);
  const int64_t hi = DaysFromCivil(INT32_MAX, 12, 31);
  for (int64_t edge : {lo, lo + 1, hi - 1, hi, kFastYearFirstDay - 1,
                       kFastYearFirstDay, kFastYearEndDay - 1,
                       kFastYearEndDay}) {
    EXPECT_EQ(YearOfDate(edge), civil_year(edge)) << "day " << edge;
  }
  EXPECT_EQ(YearOfDate(lo), INT32_MIN);
  EXPECT_EQ(YearOfDate(hi), INT32_MAX);
  for (int64_t days = lo; days <= hi; days += 7919 * 1013) {
    ASSERT_EQ(YearOfDate(days), civil_year(days)) << "day " << days;
  }
}

TEST(DateTest, KnownDates) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DaysFromCivil(2023, 11, 28), 19689);
  EXPECT_EQ(FormatDate(19689), "2023-11-28");
  EXPECT_EQ(YearOfDate(19689), 2023);
  EXPECT_EQ(MonthOfDate(19689), 11);
  EXPECT_EQ(DayOfDate(19689), 28);
  EXPECT_EQ(QuarterOfDate(19689), 4);
  // 2023-11-28 was a Tuesday: SQL DAYOFWEEK (1 = Sunday) gives 3.
  EXPECT_EQ(DayOfWeek(19689), 3);
  EXPECT_EQ(DayOfWeek(0), 5);  // 1970-01-01 was a Thursday
}

TEST(DateTest, ParseVariants) {
  EXPECT_EQ(ParseDate("2023-11-28").value(), 19689);
  EXPECT_EQ(ParseDate("2023/11/28").value(), 19689);
  EXPECT_FALSE(ParseDate("2023-11/28").ok());  // mixed separators
  EXPECT_FALSE(ParseDate("2023-13-01").ok());
  EXPECT_FALSE(ParseDate("2023-00-10").ok());
  EXPECT_FALSE(ParseDate("abc").ok());
  EXPECT_FALSE(ParseDate("2023-11-28x").ok());
}

TEST(DateTest, LeapYears) {
  EXPECT_TRUE(ParseDate("2024-02-29").ok());
  EXPECT_FALSE(ParseDate("2023-02-29").ok());
  EXPECT_TRUE(ParseDate("2000-02-29").ok());
  EXPECT_FALSE(ParseDate("1900-02-29").ok());
}

TEST(StringUtilTest, Basics) {
  EXPECT_EQ(ToUpper("aBc"), "ABC");
  EXPECT_EQ(ToLower("aBc"), "abc");
  EXPECT_TRUE(EqualsIgnoreCase("Hello", "hELLO"));
  EXPECT_FALSE(EqualsIgnoreCase("Hello", "Hello!"));
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Split("a,,b", ',').size(), 3u);
  EXPECT_EQ(StrCat("x=", 4, "!"), "x=4!");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(2.0), "2.0");
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(1.0 / 3.0).substr(0, 6), "0.3333");
  EXPECT_EQ(FormatDouble(-7.0), "-7.0");
}

TEST(StringUtilTest, QuoteSqlString) {
  EXPECT_EQ(QuoteSqlString("it's"), "'it''s'");
  EXPECT_EQ(QuoteSqlString(""), "''");
}

TEST(StatusTest, MacroPropagation) {
  auto fails = []() -> Result<int> {
    return Status(ErrorCode::kParse, "boom");
  };
  auto wrapper = [&]() -> Result<int> {
    MSQL_ASSIGN_OR_RETURN(int v, fails());
    return v + 1;
  };
  auto r = wrapper();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kParse);
  EXPECT_EQ(r.status().ToString(), "parse error: boom");
}

TEST(TypesTest, CommonType) {
  EXPECT_EQ(CommonType(DataType::Int64(), DataType::Double()).kind,
            TypeKind::kDouble);
  EXPECT_EQ(CommonType(DataType::Null(), DataType::String()).kind,
            TypeKind::kString);
  EXPECT_EQ(CommonType(DataType::Date(), DataType::String()).kind,
            TypeKind::kNull);  // incompatible
}

TEST(TypesTest, MeasureWrapper) {
  DataType t = DataType::Double().AsMeasure();
  EXPECT_TRUE(t.is_measure);
  EXPECT_EQ(t.ToString(), "DOUBLE MEASURE");
  EXPECT_FALSE(t.ValueType().is_measure);
  EXPECT_EQ(TypeKindFromName("bigint"), TypeKind::kInt64);
  EXPECT_EQ(TypeKindFromName("nope"), TypeKind::kNull);
}

}  // namespace
}  // namespace msql
