// Property tests of the grouping kernel, GroupRowsByKey (exec/agg_eval.h).
// Columns of codeable kinds (BOOL, INT64, DATE, NULL, dedup'd-dictionary
// STRING) group by code tuples; the same keys handed over as rows take the
// Row-tuple path. On random columns both must give identical groups: the
// same first-seen order, the same ascending row lists and the same key
// Values, kind included, with and without the lookup map.

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "exec/agg_eval.h"
#include "exec/column_vector.h"
#include "exec/exec_state.h"
#include "gtest/gtest.h"

namespace msql {
namespace {

enum class KeyKind { kBool, kInt, kDate, kString, kNull, kDouble, kDegraded };

constexpr KeyKind kCodeable[] = {KeyKind::kBool, KeyKind::kInt, KeyKind::kDate,
                                 KeyKind::kString, KeyKind::kNull};

// One random key column: values drawn from a small domain (so tuples
// repeat) or a wide one (about one group per row), NULL at `null_pct`.
std::vector<Value> RandomValues(KeyKind kind, int64_t n, int null_pct,
                                bool wide, std::mt19937* rng) {
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int64_t> small(-2, 2);
  std::uniform_int_distribution<int64_t> big(std::numeric_limits<int64_t>::min(),
                                             std::numeric_limits<int64_t>::max());
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    if (kind == KeyKind::kNull || pct(*rng) < null_pct) {
      out.push_back(Value::Null());
      continue;
    }
    const int64_t x = wide ? (pct(*rng) < 5 ? small(*rng) : big(*rng))
                           : small(*rng);
    switch (kind) {
      case KeyKind::kBool:
        out.push_back(Value::Bool(x > 0));
        break;
      case KeyKind::kInt:
        out.push_back(Value::Int(x));
        break;
      case KeyKind::kDate:
        out.push_back(Value::Date(x % 100000));
        break;
      case KeyKind::kString:
      case KeyKind::kDegraded:
        out.push_back(Value::String(StrCat("s", x)));
        break;
      case KeyKind::kDouble:
        // 0.0 and -0.0 are one key; the Row path must keep them together.
        out.push_back(Value::Double(x == 0 && pct(*rng) < 50
                                        ? -0.0
                                        : static_cast<double>(x) / 4));
        break;
      case KeyKind::kNull:
        break;
    }
  }
  return out;
}

ColumnPtr BuildColumn(const std::vector<Value>& values) {
  auto arena = std::make_shared<Arena>();
  ColumnBuilder b(arena, static_cast<int64_t>(values.size()));
  for (const Value& v : values) EXPECT_TRUE(b.Append(v));
  return b.Finish();
}

// A string column whose dictionary holds one entry per row, as the builder
// leaves it past kMaxDictCodes distinct strings: equal strings have
// different codes.
ColumnPtr DegradedColumn(const std::vector<Value>& values) {
  auto arena = std::make_shared<Arena>();
  auto col = std::make_shared<ColumnVector>();
  const size_t n = values.size();
  col->kind = TypeKind::kString;
  col->length = static_cast<int64_t>(n);
  auto dict = std::make_shared<std::vector<std::string>>();
  int64_t* codes = arena->AllocateArray<int64_t>(std::max<size_t>(n, 1));
  uint64_t* valid =
      arena->AllocateArray<uint64_t>(std::max<size_t>((n + 63) / 64, 1));
  std::memset(valid, 0, std::max<size_t>((n + 63) / 64, 1) * 8);
  for (size_t i = 0; i < n; ++i) {
    codes[i] = static_cast<int64_t>(dict->size());
    dict->push_back(values[i].is_null() ? "" : values[i].str());
    if (!values[i].is_null()) valid[i >> 6] |= uint64_t{1} << (i & 63);
  }
  col->ints = codes;
  col->valid = valid;
  col->dict = std::move(dict);
  col->dict_unique = false;
  col->arena = std::move(arena);
  return col;
}

// Same kind and the same bits: stricter than IS NOT DISTINCT FROM.
void ExpectIdentical(const Row& a, const Row& b, const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].kind(), b[k].kind()) << where << " key " << k;
    switch (a[k].kind()) {
      case TypeKind::kString:
        EXPECT_EQ(a[k].str(), b[k].str()) << where << " key " << k;
        break;
      case TypeKind::kDouble: {
        const double x = a[k].double_val(), y = b[k].double_val();
        EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0) << where << " key " << k;
        break;
      }
      default:
        EXPECT_EQ(a[k].int_val(), b[k].int_val()) << where << " key " << k;
    }
  }
}

void ExpectSameGroups(const RowGroups& got, const RowGroups& want,
                      bool keep_map, const std::string& where) {
  ASSERT_EQ(got.rows, want.rows) << where;
  if (!keep_map) {
    EXPECT_TRUE(got.map.empty()) << where;
    ASSERT_EQ(got.keys.size(), want.keys.size()) << where;
    for (size_t g = 0; g < got.keys.size(); ++g) {
      ExpectIdentical(got.keys[g], want.keys[g], StrCat(where, " group ", g));
    }
    return;
  }
  EXPECT_TRUE(got.keys.empty()) << where;
  ASSERT_EQ(got.map.size(), want.map.size()) << where;
  for (const auto& [key, g] : got.map) {
    auto it = want.map.find(key);
    ASSERT_NE(it, want.map.end()) << where;
    EXPECT_EQ(it->second, g) << where;
    ExpectIdentical(key, it->first, StrCat(where, " group ", g));
  }
}

struct Outcome {
  RowGroups groups;
  uint64_t fallbacks = 0;
};

Outcome Group(const std::vector<ColumnPtr>& cols, const std::vector<Row>& rows,
              const std::vector<int>& set, int64_t n, bool keep_map) {
  ExecState state;
  Outcome out;
  Status st = GroupRowsByKey(cols, rows, set, n, keep_map, &state, &out.groups);
  EXPECT_TRUE(st.ok()) << st.ToString();
  out.fallbacks = state.exec_row_fallbacks;
  return out;
}

class GroupKernelPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(GroupKernelPropertyTest, CodeTuplesMatchRowTuples) {
  std::mt19937 rng(GetParam());
  const int64_t sizes[] = {0, 1, 2, 37, 3 * kRowsPerBatch + 5};
  const int null_pcts[] = {0, 10, 50, 100};
  std::uniform_int_distribution<int> pick(0, 1 << 30);
  for (int trial = 0; trial < 12; ++trial) {
    const int64_t n = sizes[pick(rng) % std::size(sizes)];
    const int width = pick(rng) % 5;  // 0-4 key columns
    const bool wide = pick(rng) % 4 == 0;
    // Every so often one column only the Row path can group.
    const bool uncodeable = width > 0 && pick(rng) % 5 == 0;

    std::vector<ColumnPtr> cols;
    std::vector<Row> rows(static_cast<size_t>(n));
    std::string desc = StrCat("seed ", GetParam(), " trial ", trial, " n ", n);
    for (int c = 0; c < width; ++c) {
      KeyKind kind = kCodeable[pick(rng) % std::size(kCodeable)];
      if (uncodeable && c == 0) {
        kind = pick(rng) % 2 == 0 ? KeyKind::kDouble : KeyKind::kDegraded;
      }
      const int null_pct = null_pcts[pick(rng) % std::size(null_pcts)];
      std::vector<Value> values = RandomValues(kind, n, null_pct, wide, &rng);
      cols.push_back(kind == KeyKind::kDegraded ? DegradedColumn(values)
                                                : BuildColumn(values));
      for (int64_t i = 0; i < n; ++i) rows[i].push_back(values[i]);
      desc += StrCat(" col", c, "=", static_cast<int>(kind), "/", null_pct);
    }

    // A random selection of the key positions, in random order, then the
    // empty set (ROLLUP's grand total).
    std::vector<int> set;
    for (int c = 0; c < width; ++c) {
      if (pick(rng) % 4 != 0) set.push_back(c);
    }
    std::shuffle(set.begin(), set.end(), rng);
    // A DOUBLE column of NULLs only (or of no rows) is a NULL column.
    bool set_uncodeable = false;
    for (int k : set) {
      const ColumnVector& c = *cols[static_cast<size_t>(k)];
      set_uncodeable = set_uncodeable || c.kind == TypeKind::kDouble ||
                       (c.kind == TypeKind::kString && !c.dict_unique);
    }

    for (int pass = 0; pass < 2; ++pass) {
      const std::vector<int> s = pass == 0 ? set : std::vector<int>{};
      for (bool keep_map : {false, true}) {
        const std::string where =
            StrCat(desc, " set size ", s.size(), " keep_map ", keep_map);
        Outcome code = Group(cols, rows, s, n, keep_map);
        Outcome row = Group({}, rows, s, n, keep_map);
        ExpectSameGroups(code.groups, row.groups, keep_map, where);
        EXPECT_EQ(row.fallbacks, 0u) << where;
        EXPECT_EQ(code.fallbacks, pass == 0 && set_uncodeable ? 1u : 0u)
            << where;
        if (HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupKernelPropertyTest,
                         ::testing::Range(0u, 40u));

// NULL is its own key, distinct from every code, 0 included.
TEST(GroupKernelTest, NullIsNotCodeZero) {
  const std::vector<Value> values = {Value::Int(0), Value::Null(),
                                     Value::Int(0), Value::Null()};
  std::vector<Row> rows;
  for (const Value& v : values) rows.push_back({v});
  Outcome out = Group({BuildColumn(values)}, rows, {0}, 4, false);
  ASSERT_EQ(out.groups.rows.size(), 2u);
  EXPECT_EQ(out.groups.rows[0], (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(out.groups.rows[1], (std::vector<int64_t>{1, 3}));
  EXPECT_TRUE(out.groups.keys[1][0].is_null());
}

// Every key of the tuple splits groups, not only the first.
TEST(GroupKernelTest, SecondKeySplitsGroups) {
  const std::vector<Value> a = {Value::String("x"), Value::String("x"),
                                Value::String("x")};
  const std::vector<Value> b = {Value::Int(1), Value::Int(2), Value::Int(1)};
  std::vector<Row> rows;
  for (size_t i = 0; i < a.size(); ++i) rows.push_back({a[i], b[i]});
  Outcome out = Group({BuildColumn(a), BuildColumn(b)}, rows, {0, 1}, 3, false);
  ASSERT_EQ(out.groups.rows.size(), 2u);
  EXPECT_EQ(out.groups.rows[0], (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(out.groups.rows[1], (std::vector<int64_t>{1}));
}

// The empty set is one group of every row, and no group over no rows.
TEST(GroupKernelTest, EmptySetIsOneGroupOfAllRows) {
  Outcome all = Group({}, std::vector<Row>(5), {}, 5, true);
  ASSERT_EQ(all.groups.rows.size(), 1u);
  EXPECT_EQ(all.groups.rows[0], (std::vector<int64_t>{0, 1, 2, 3, 4}));
  ASSERT_EQ(all.groups.map.size(), 1u);
  EXPECT_EQ(all.groups.map.count(Row{}), 1u);
  Outcome none = Group({}, {}, {}, 0, false);
  EXPECT_TRUE(none.groups.rows.empty());
  EXPECT_TRUE(none.groups.keys.empty());
}

}  // namespace
}  // namespace msql
