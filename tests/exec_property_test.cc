// Property-based tests for the relational core on randomized data:
// algebraic identities that must hold regardless of the data (join
// commutativity, outer-join containment, filter/union cardinalities,
// aggregation consistency, sort stability), plus scalar-vs-vectorized
// agreement: the batch kernels (exec/vector_eval.cc) must match the
// row-at-a-time Evaluator bit for bit on randomized nullable batches.

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "binder/bound_expr.h"
#include "common/string_util.h"
#include "engine/engine.h"
#include "exec/column_vector.h"
#include "exec/eval.h"
#include "exec/exec_state.h"
#include "exec/relation.h"
#include "exec/vector_eval.h"
#include "gtest/gtest.h"
#include "tests/paper_fixture.h"
#include "tests/testing_matchers.h"

namespace msql {
namespace {

class ExecPropertyTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> key(0, 9);
    std::uniform_int_distribution<int> val(-50, 50);
    std::uniform_int_distribution<int> null_pct(0, 9);

    MustExecute(&db_, "CREATE TABLE a (k INTEGER, v INTEGER)");
    MustExecute(&db_, "CREATE TABLE b (k INTEGER, w INTEGER)");
    auto insert = [&](const char* table, int rows) {
      std::string sql = StrCat("INSERT INTO ", table, " VALUES ");
      for (int i = 0; i < rows; ++i) {
        if (i > 0) sql += ", ";
        bool null_key = null_pct(rng) == 0;
        sql += StrCat("(", null_key ? "NULL" : StrCat(key(rng)), ", ",
                      val(rng), ")");
      }
      MustExecute(&db_, sql);
    };
    insert("a", 40);
    insert("b", 25);
  }

  int64_t Scalar(const std::string& sql) {
    ResultSet rs = MustQuery(&db_, sql);
    EXPECT_EQ(rs.num_rows(), 1u) << sql;
    return rs.Get(0, 0).is_null() ? 0 : rs.Get(0, 0).int_val();
  }

  Engine db_;
};

TEST_P(ExecPropertyTest, InnerJoinIsCommutative) {
  int64_t ab = Scalar(
      "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k");
  int64_t ba = Scalar(
      "SELECT COUNT(*) FROM b JOIN a ON a.k = b.k");
  EXPECT_EQ(ab, ba);
}

TEST_P(ExecPropertyTest, HashAndNestedLoopJoinsAgree) {
  // `a.k = b.k` takes the hash path; wrapping one side in an arithmetic
  // no-op that still references both sides forces the nested loop.
  int64_t hash = Scalar("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k");
  int64_t nested = Scalar(
      "SELECT COUNT(*) FROM a JOIN b ON a.k <= b.k AND a.k >= b.k");
  EXPECT_EQ(hash, nested);
}

TEST_P(ExecPropertyTest, OuterJoinContainment) {
  int64_t inner = Scalar("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k");
  int64_t left = Scalar("SELECT COUNT(*) FROM a LEFT JOIN b ON a.k = b.k");
  int64_t right = Scalar("SELECT COUNT(*) FROM a RIGHT JOIN b ON a.k = b.k");
  int64_t full = Scalar("SELECT COUNT(*) FROM a FULL JOIN b ON a.k = b.k");
  EXPECT_GE(left, inner);
  EXPECT_GE(right, inner);
  EXPECT_GE(full, left);
  EXPECT_GE(full, right);
  // FULL = INNER + left-unmatched + right-unmatched.
  int64_t na = Scalar("SELECT COUNT(*) FROM a");
  int64_t nb = Scalar("SELECT COUNT(*) FROM b");
  int64_t left_unmatched = left - inner;
  int64_t right_unmatched = right - inner;
  EXPECT_EQ(full, inner + left_unmatched + right_unmatched);
  EXPECT_LE(left_unmatched, na);
  EXPECT_LE(right_unmatched, nb);
}

TEST_P(ExecPropertyTest, CrossJoinCardinality) {
  int64_t na = Scalar("SELECT COUNT(*) FROM a");
  int64_t nb = Scalar("SELECT COUNT(*) FROM b");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM a, b"), na * nb);
}

TEST_P(ExecPropertyTest, FilterPartitionsRows) {
  int64_t all = Scalar("SELECT COUNT(*) FROM a");
  int64_t pos = Scalar("SELECT COUNT(*) FROM a WHERE v > 0");
  int64_t nonpos = Scalar("SELECT COUNT(*) FROM a WHERE v <= 0");
  int64_t null_v = Scalar("SELECT COUNT(*) FROM a WHERE v IS NULL");
  EXPECT_EQ(all, pos + nonpos + null_v);
}

TEST_P(ExecPropertyTest, UnionAllAddsCardinalities) {
  int64_t na = Scalar("SELECT COUNT(*) FROM a");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM "
                   "(SELECT k FROM a UNION ALL SELECT k FROM a) AS u"),
            2 * na);
  // UNION removes duplicates: at most the distinct count.
  int64_t distinct = Scalar("SELECT COUNT(*) FROM "
                            "(SELECT DISTINCT k FROM a) AS d");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM "
                   "(SELECT k FROM a UNION SELECT k FROM a) AS u"),
            distinct);
}

TEST_P(ExecPropertyTest, GroupSumsEqualTotal) {
  ResultSet rs = MustQuery(&db_, "SELECT k, SUM(v) AS s FROM a GROUP BY k");
  int64_t total = 0;
  for (const Row& r : rs.rows()) {
    if (!r[1].is_null()) total += r[1].int_val();
  }
  EXPECT_EQ(total, Scalar("SELECT COALESCE(SUM(v), 0) FROM a"));
}

TEST_P(ExecPropertyTest, HavingIsFilterOverGroups) {
  int64_t groups =
      Scalar("SELECT COUNT(*) FROM (SELECT k FROM a GROUP BY k) AS g");
  int64_t kept = Scalar(
      "SELECT COUNT(*) FROM "
      "(SELECT k FROM a GROUP BY k HAVING COUNT(*) >= 2) AS g");
  EXPECT_LE(kept, groups);
}

TEST_P(ExecPropertyTest, DistinctIdempotent) {
  int64_t once = Scalar(
      "SELECT COUNT(*) FROM (SELECT DISTINCT k, v FROM a) AS d");
  int64_t twice = Scalar(
      "SELECT COUNT(*) FROM (SELECT DISTINCT k, v FROM "
      "(SELECT DISTINCT k, v FROM a) AS d1) AS d2");
  EXPECT_EQ(once, twice);
}

TEST_P(ExecPropertyTest, OrderByIsAPermutation) {
  ResultSet sorted = MustQuery(&db_, "SELECT v FROM a ORDER BY v NULLS LAST");
  ResultSet raw = MustQuery(&db_, "SELECT v FROM a");
  ASSERT_EQ(sorted.num_rows(), raw.num_rows());
  // Sorted is non-decreasing (NULLs at the end).
  for (size_t i = 1; i < sorted.num_rows(); ++i) {
    const Value& prev = sorted.Get(i - 1, 0);
    const Value& cur = sorted.Get(i, 0);
    if (prev.is_null()) {
      EXPECT_TRUE(cur.is_null());
    } else if (!cur.is_null()) {
      EXPECT_LE(prev.int_val(), cur.int_val());
    }
  }
  // Same multiset: equal sums and counts.
  int64_t s1 = 0, s2 = 0;
  for (size_t i = 0; i < raw.num_rows(); ++i) {
    if (!raw.Get(i, 0).is_null()) s1 += raw.Get(i, 0).int_val();
    if (!sorted.Get(i, 0).is_null()) s2 += sorted.Get(i, 0).int_val();
  }
  EXPECT_EQ(s1, s2);
}

TEST_P(ExecPropertyTest, WindowSumMatchesGroupSum) {
  ResultSet win = MustQuery(&db_, R"sql(
    SELECT DISTINCT k, SUM(v) OVER (PARTITION BY k) AS s FROM a
  )sql");
  ResultSet grp = MustQuery(&db_,
      "SELECT k, SUM(v) AS s FROM a GROUP BY k");
  // Row order is unspecified on both sides; the oracle's normalized
  // comparison sorts before matching.
  EXPECT_TRUE(testing::ResultsAgree(win, grp));
}

TEST_P(ExecPropertyTest, SubqueryCacheTransparent) {
  const char* q =
      "SELECT a.k, (SELECT SUM(b.w) FROM b WHERE b.k = a.k) AS s "
      "FROM a ORDER BY a.k NULLS LAST, s NULLS LAST";
  ResultSet cached = MustQuery(&db_, q);
  ASSERT_NE(cached.stats(), nullptr);
  EXPECT_GT(cached.stats()->subquery_cache_hits, 0u);
  db_.options().measure_strategy = MeasureStrategy::kNaive;
  ResultSet fresh = MustQuery(&db_, q);
  ASSERT_NE(fresh.stats(), nullptr);
  EXPECT_EQ(fresh.stats()->subquery_cache_hits, 0u);
  EXPECT_TRUE(testing::ResultsAgree(cached, fresh));
}

TEST_P(ExecPropertyTest, RowAndVectorizedModesAgree) {
  // The vectorized operators must be invisible: every query returns the
  // same rows under ExecMode::kVectorized and ExecMode::kRow, including
  // three-valued WHERE logic and NULL group keys (grouped by IS NOT
  // DISTINCT FROM semantics).
  const char* queries[] = {
      "SELECT k, COUNT(*) AS c, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, "
      "AVG(v) AS m FROM a GROUP BY k",
      "SELECT COUNT(*) FROM a WHERE (v > 0 AND k < 5) OR k IS NULL",
      "SELECT k, (v + 1) * 2 AS e, v / 4.0 AS q FROM a "
      "WHERE v <= 10 OR v IS NULL",
      "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k WHERE a.v < b.w OR b.w < 0",
      "SELECT k FROM a WHERE NOT (v > 0) ORDER BY k NULLS LAST, v NULLS LAST",
  };
  for (const char* q : queries) {
    db_.options().exec_mode = ExecMode::kVectorized;
    ResultSet vec = MustQuery(&db_, q);
    db_.options().exec_mode = ExecMode::kRow;
    ResultSet row = MustQuery(&db_, q);
    db_.options().exec_mode = ExecMode::kVectorized;
    EXPECT_TRUE(testing::ResultsAgree(vec, row)) << q;
    // Row mode is a configuration, not a fallback: it must never count
    // batches. Vectorized mode must actually engage on these shapes.
    ASSERT_NE(row.stats(), nullptr);
    EXPECT_EQ(row.stats()->exec_vectorized_batches, 0u) << q;
    ASSERT_NE(vec.stats(), nullptr);
    EXPECT_GT(vec.stats()->exec_vectorized_batches, 0u) << q;
  }
}

// `x [NOT] IN (c1, ..., ck)` has a batch kernel when every item is a
// literal or a bound `?` parameter. Each case runs under both exec modes
// and must agree with the row path cell for cell, including the three-
// valued results (a NULL operand, or a NULL item with no match, is NULL).
class InListKernelTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int> small(0, 5);
    const char* names[] = {"'alpha'", "'beta'", "'gamma'", "''"};
    const char* dates[] = {"DATE '2024-01-01'", "DATE '2024-02-01'",
                           "DATE '2024-03-01'"};
    MustExecute(&db_,
                "CREATE TABLE t (name VARCHAR, d DATE, x DOUBLE, k INTEGER)");
    auto maybe = [&](std::string v) { return pct(rng) < 15 ? "NULL" : v; };
    std::string sql = "INSERT INTO t VALUES ";
    for (int64_t i = 0; i < kRowsPerBatch + 300; ++i) {
      if (i > 0) sql += ", ";
      sql += StrCat("(", maybe(names[small(rng) % 4]), ", ",
                    maybe(dates[small(rng) % 3]), ", ",
                    maybe(StrCat(small(rng) * 0.5)), ", ",
                    maybe(StrCat(small(rng))), ")");
    }
    MustExecute(&db_, sql);
  }

  // Runs `sql` under both exec modes; returns the vectorized run's stats.
  std::shared_ptr<const QueryStats> ExpectModesAgree(const std::string& sql) {
    db_.options().exec_mode = ExecMode::kVectorized;
    ResultSet vec = MustQuery(&db_, sql);
    db_.options().exec_mode = ExecMode::kRow;
    ResultSet row = MustQuery(&db_, sql);
    db_.options().exec_mode = ExecMode::kVectorized;
    EXPECT_TRUE(testing::ResultsAgree(vec, row)) << sql;
    EXPECT_GT(vec.num_rows(), 0u) << sql;
    return vec.stats();
  }

  // The kernel ran: batches processed, no operator fell back to rows.
  void ExpectKernel(const std::string& sql) {
    auto stats = ExpectModesAgree(sql);
    ASSERT_NE(stats, nullptr);
    EXPECT_GT(stats->exec_vectorized_batches, 0u) << sql;
    EXPECT_EQ(stats->exec_row_fallbacks, 0u) << sql;
  }

  Engine db_;
};

TEST_P(InListKernelTest, NullOperandAndNullItems) {
  // NULL operand rows (15% of `name`) project NULL under every list.
  ExpectKernel("SELECT k, name, name IN ('alpha', 'gamma') AS r FROM t");
  // A NULL item with no match: NULL for every non-matching row.
  ExpectKernel("SELECT k, name, name IN ('zeta', NULL) AS r FROM t");
  ExpectKernel("SELECT k, name, name IN ('alpha', NULL) AS r FROM t");
  // NOT IN with a NULL item: FALSE on a match, NULL otherwise.
  ExpectKernel("SELECT k, name, name NOT IN ('alpha', NULL) AS r FROM t");
  ExpectKernel("SELECT k, name, name NOT IN ('beta', '') AS r FROM t");
  // In a WHERE, NULL and FALSE both drop the row.
  ExpectKernel("SELECT k, name FROM t WHERE name NOT IN ('alpha', NULL) "
               "OR k IN (1, NULL)");
  ExpectKernel("SELECT k, name FROM t WHERE name IN ('beta', 'gamma') "
               "AND k NOT IN (0, 5)");
}

TEST_P(InListKernelTest, NumericAndDateKinds) {
  // INT operand against INT and DOUBLE items (cross-kind numeric equality).
  ExpectKernel("SELECT k, k IN (1, 2.0, 3.5) AS r FROM t");
  // DOUBLE operand against INT items.
  ExpectKernel("SELECT x, x IN (1, 2.5, NULL) AS r FROM t");
  ExpectKernel("SELECT x, x NOT IN (0, 1.5) AS r FROM t");
  // DATE operands: equal only to DATE items, never to numbers.
  ExpectKernel("SELECT d, d IN (DATE '2024-01-01', DATE '2024-03-01') AS r "
               "FROM t");
  ExpectKernel("SELECT d, d IN (1, 2) AS r, d NOT IN ('2024-01-01') AS s "
               "FROM t");
}

TEST_P(InListKernelTest, ParametersThroughPrepareExecute) {
  const std::string sql =
      "SELECT k, name, name IN (?, ?) AS r, k NOT IN (?, 3) AS s FROM t";
  const std::vector<Row> bindings = {
      {Value::String("alpha"), Value::String("beta"), Value::Int(1)},
      {Value::String("gamma"), Value::Null(), Value::Null()},
      {Value::Null(), Value::Null(), Value::Int(4)},
  };
  for (const Row& params : bindings) {
    ResultSet results[2];
    for (int mode = 0; mode < 2; ++mode) {
      db_.options().exec_mode = mode == 0 ? ExecMode::kVectorized
                                          : ExecMode::kRow;
      auto prepared = db_.PrepareSelect(
          sql, {TypeKind::kString, TypeKind::kString, TypeKind::kInt64});
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      auto r = db_.QueryPlanned(prepared.value(), params);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      results[mode] = std::move(r.value());
    }
    db_.options().exec_mode = ExecMode::kVectorized;
    EXPECT_TRUE(testing::ResultsAgree(results[0], results[1]));
    ASSERT_NE(results[0].stats(), nullptr);
    EXPECT_EQ(results[0].stats()->exec_row_fallbacks, 0u);
  }
}

TEST_P(InListKernelTest, DegradedDictionaryStringColumn) {
  // Past ColumnBuilder::kMaxDictCodes distinct strings the dictionary
  // degrades to one inline entry per row: codes stop being comparable, so
  // membership must be tested per entry, never per code.
  MustExecute(&db_, "CREATE TABLE wide (name VARCHAR, k INTEGER)");
  const int64_t distinct =
      static_cast<int64_t>(ColumnBuilder::kMaxDictCodes) + 1000;
  for (int64_t begin = 0; begin < distinct; begin += 4000) {
    std::string sql = "INSERT INTO wide VALUES ";
    for (int64_t i = begin; i < std::min(distinct, begin + 4000); ++i) {
      if (i > begin) sql += ", ";
      sql += i % 97 == 0 ? std::string("(NULL, 0)")
                         : StrCat("('n", i % (distinct - 50), "', ", i, ")");
    }
    MustExecute(&db_, sql);
  }
  ExpectKernel("SELECT k, name FROM wide "
               "WHERE name IN ('n5', 'n16000', 'n3')");
  ExpectKernel("SELECT k, name NOT IN ('n1', NULL, 'n16001') AS r "
               "FROM wide WHERE k < 20 OR k > 16500");

  const auto entry = db_.catalog().Find("wide");
  ASSERT_NE(entry, nullptr);
  const auto cols = entry->table->ColumnsFor(entry->table->snapshot());
  ASSERT_NE(cols, nullptr);
  EXPECT_FALSE(cols->cols[0]->dict_unique);
}

TEST_P(InListKernelTest, NonConstantItemStaysOnRowPath) {
  // An item that reads the row could error or short-circuit differently
  // per row, so the filter keeps the row arm (and still agrees).
  auto stats = ExpectModesAgree("SELECT k, x FROM t WHERE k IN (x, 3)");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->exec_row_fallbacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InListKernelTest,
                         ::testing::Values(5u, 2718u));

// Direct kernel-vs-Evaluator agreement on hand-built columnar batches. The
// batch spans several 1024-row boundaries and every column carries NULLs.
class VectorKernelTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int> small(-6, 6);
    std::uniform_int_distribution<int> word(0, 3);
    const char* words[] = {"alpha", "beta", "gamma", ""};

    rel_ = std::make_shared<Relation>();
    rel_->schema = Schema({Column("p", DataType::Bool()),
                           Column("q", DataType::Bool()),
                           Column("x", DataType::Int64()),
                           Column("y", DataType::Int64()),
                           Column("d", DataType::Double()),
                           Column("s", DataType::String()),
                           Column("t", DataType::String())});
    const int64_t n = 2 * kRowsPerBatch + 37;
    std::vector<Row> rows;
    auto maybe = [&](Value v) { return pct(rng) < 20 ? Value::Null() : v; };
    for (int64_t i = 0; i < n; ++i) {
      Row r;
      r.push_back(maybe(Value::Bool(pct(rng) < 50)));
      r.push_back(maybe(Value::Bool(pct(rng) < 50)));
      r.push_back(maybe(Value::Int(small(rng))));
      r.push_back(maybe(Value::Int(small(rng))));
      r.push_back(maybe(Value::Double(small(rng) * 0.5)));
      r.push_back(maybe(Value::String(words[word(rng)])));
      r.push_back(maybe(Value::String(words[word(rng)])));
      rows.push_back(std::move(r));
    }
    auto built = ColumnarizeRows(rel_->schema.size(), rows,
                                 std::make_shared<Arena>());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    rel_->columns = built.take();
    ASSERT_TRUE(rel_->columns->Complete());
    rel_->rows = std::move(rows);
  }

  BoundExprPtr Col(int i) {
    return BColumnRef(0, i, rel_->schema.column(i).name,
                      rel_->schema.column(i).type);
  }

  // Evaluates `e` both ways and requires bit-for-bit agreement on every row.
  void ExpectAgreement(const BoundExpr& e) {
    ExecState state;
    ASSERT_EQ(VectorizedGate(&state), VectorGate::kOk);
    auto col = EvalVector(e, *rel_, std::make_shared<Arena>(), &state);
    ASSERT_TRUE(col.ok()) << e.ToString() << ": " << col.status().ToString();
    ColumnPtr c = col.take();
    ASSERT_NE(c, nullptr) << e.ToString() << ": no kernel covered this";

    Evaluator scalar(&state);
    for (size_t i = 0; i < rel_->rows.size(); ++i) {
      RowStack stack = {
          Frame{&rel_->rows[i], static_cast<int64_t>(i), rel_.get()}};
      auto want = scalar.Eval(e, stack);
      ASSERT_TRUE(want.ok()) << e.ToString();
      const Value got = c->At(static_cast<int64_t>(i));
      EXPECT_TRUE(Value::NotDistinct(want.value(), got))
          << e.ToString() << " row " << i << ": scalar "
          << want.value().ToString() << " vs vector " << got.ToString();
      if (!want.value().is_null()) {
        EXPECT_EQ(static_cast<int>(want.value().kind()),
                  static_cast<int>(got.kind()))
            << e.ToString() << " row " << i << ": result kind drifted";
      }
    }
  }

  BoundExprPtr Fn(FunctionId id, const char* name, DataType type,
                  BoundExprPtr a, BoundExprPtr b = nullptr) {
    std::vector<BoundExprPtr> args;
    args.push_back(std::move(a));
    if (b != nullptr) args.push_back(std::move(b));
    return BFunc(id, name, type, std::move(args));
  }

  std::shared_ptr<Relation> rel_;
};

TEST_P(VectorKernelTest, KleeneAndOrNotAgreeWithScalarEvaluator) {
  ExpectAgreement(
      *Fn(FunctionId::kOpAnd, "AND", DataType::Bool(), Col(0), Col(1)));
  ExpectAgreement(
      *Fn(FunctionId::kOpOr, "OR", DataType::Bool(), Col(0), Col(1)));
  ExpectAgreement(*Fn(FunctionId::kOpNot, "NOT", DataType::Bool(), Col(0)));
  // Nested: NOT(p AND q) OR p exercises validity-bit plumbing through trees.
  ExpectAgreement(*Fn(
      FunctionId::kOpOr, "OR", DataType::Bool(),
      Fn(FunctionId::kOpNot, "NOT", DataType::Bool(),
         Fn(FunctionId::kOpAnd, "AND", DataType::Bool(), Col(0), Col(1))),
      Col(0)));
}

TEST_P(VectorKernelTest, DistinctFromAgreesWithScalarEvaluator) {
  for (auto [a, b] : {std::pair<int, int>{2, 3},   // int vs int
                      std::pair<int, int>{2, 4},   // int vs double
                      std::pair<int, int>{5, 6},   // string vs string
                      std::pair<int, int>{0, 1},   // bool vs bool
                      std::pair<int, int>{5, 2}})  // string vs int
  {
    ExpectAgreement(*Fn(FunctionId::kOpIsNotDistinctFrom,
                        "IS NOT DISTINCT FROM", DataType::Bool(), Col(a),
                        Col(b)));
    ExpectAgreement(*Fn(FunctionId::kOpIsDistinctFrom, "IS DISTINCT FROM",
                        DataType::Bool(), Col(a), Col(b)));
  }
}

TEST_P(VectorKernelTest, ComparisonsAgreeWithScalarEvaluator) {
  for (auto [a, b] : {std::pair<int, int>{2, 3}, std::pair<int, int>{2, 4},
                      std::pair<int, int>{5, 6}}) {
    ExpectAgreement(
        *Fn(FunctionId::kOpEq, "=", DataType::Bool(), Col(a), Col(b)));
    ExpectAgreement(
        *Fn(FunctionId::kOpNe, "<>", DataType::Bool(), Col(a), Col(b)));
    ExpectAgreement(
        *Fn(FunctionId::kOpLt, "<", DataType::Bool(), Col(a), Col(b)));
    ExpectAgreement(
        *Fn(FunctionId::kOpGe, ">=", DataType::Bool(), Col(a), Col(b)));
  }
}

TEST_P(VectorKernelTest, ArithmeticAgreesWithScalarEvaluator) {
  ExpectAgreement(
      *Fn(FunctionId::kOpAdd, "+", DataType::Int64(), Col(2), Col(3)));
  ExpectAgreement(
      *Fn(FunctionId::kOpSub, "-", DataType::Int64(), Col(2), Col(3)));
  ExpectAgreement(
      *Fn(FunctionId::kOpMul, "*", DataType::Double(), Col(2), Col(4)));
  ExpectAgreement(*Fn(FunctionId::kOpNeg, "-", DataType::Int64(), Col(2)));
}

// The operators that group rows (DISTINCT, UNION / EXCEPT / INTERSECT, the
// window PARTITION BY, DISTINCT aggregates and the hash-join build) share
// one semantics, IS NOT DISTINCT FROM: NULL equals NULL, NaN equals
// nothing, 0.0 equals -0.0, INT 2 equals DOUBLE 2.0, and dictionary strings
// compare by content. Every query runs under both exec modes, over a
// columnar child (a vectorized Filter) and a row child (rows out of a
// LIMIT); all four runs must return the same rows in the same order, since
// each operator emits its groups in first-seen order.
class GroupingOperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&db_,
                "CREATE TABLE g (i INTEGER, x DOUBLE, s VARCHAR, v INTEGER)");
    MustExecute(&db_,
                "INSERT INTO g VALUES (NULL, NULL, NULL, 1), "
                "(0, 0.0, 'a', 2), (0, CAST('-0.0' AS DOUBLE), 'a', 3), "
                "(1, CAST('nan' AS DOUBLE), 'b', 4), "
                "(1, CAST('nan' AS DOUBLE), 'b', 5), (2, 2.0, '', 6), "
                "(2, 2.0, NULL, 7), (NULL, 1.0, 'a', 8)");
    MustExecute(&db_,
                "CREATE TABLE h (i INTEGER, x DOUBLE, s VARCHAR, v INTEGER)");
    MustExecute(&db_,
                "INSERT INTO h VALUES (2, 0.0, 'a', 1), "
                "(NULL, NULL, NULL, 2), (5, CAST('nan' AS DOUBLE), 'c', 3), "
                "(0, CAST('-0.0' AS DOUBLE), 'c', 4), (3, 2.0, '', 5)");
  }

  // Runs `sql` with {g} and {h} standing for each child form under each
  // exec mode; expects all runs to agree row for row and returns the rows.
  ResultSet Agreed(const std::string& sql) {
    const char* forms[] = {"(SELECT * FROM # WHERE v > 0)",
                           "(SELECT * FROM # LIMIT 100)"};
    std::vector<ResultSet> runs;
    for (const char* form : forms) {
      std::string text = sql;
      for (const char* table : {"g", "h"}) {
        std::string child = form;
        child.replace(child.find('#'), 1, table);
        const std::string slot = StrCat("{", table, "}");
        for (size_t at; (at = text.find(slot)) != std::string::npos;) {
          text.replace(at, slot.size(), child);
        }
      }
      for (ExecMode mode : {ExecMode::kVectorized, ExecMode::kRow}) {
        db_.options().exec_mode = mode;
        runs.push_back(MustQuery(&db_, text));
        testing::CompareOptions in_order;
        in_order.ignore_row_order = false;
        EXPECT_TRUE(testing::ResultsAgree(runs.front(), runs.back(), in_order))
            << text << " under "
            << (mode == ExecMode::kRow ? "row" : "vectorized") << " mode";
      }
    }
    db_.options().exec_mode = ExecMode::kVectorized;
    // The columnar form really ran vectorized.
    EXPECT_GT(runs.front().stats()->exec_vectorized_batches, 0u) << sql;
    return std::move(runs.front());
  }

  Engine db_;
};

TEST_F(GroupingOperatorTest, TheDataHoldsNegativeZeroAndNaN) {
  ResultSet rs = MustQuery(&db_, "SELECT x FROM g WHERE v IN (3, 4)");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_TRUE(std::signbit(rs.Get(0, 0).double_val()));
  EXPECT_TRUE(std::isnan(rs.Get(1, 0).double_val()));
}

TEST_F(GroupingOperatorTest, Distinct) {
  // NULL, 0.0 (= -0.0), NaN, NaN, 2.0, 1.0.
  ResultSet x = Agreed("SELECT DISTINCT x FROM {g}");
  ASSERT_EQ(x.num_rows(), 6u);
  EXPECT_TRUE(x.Get(0, 0).is_null());
  EXPECT_TRUE(std::isnan(x.Get(2, 0).double_val()));
  EXPECT_TRUE(std::isnan(x.Get(3, 0).double_val()));
  EXPECT_EQ(Agreed("SELECT DISTINCT s FROM {g}").num_rows(), 4u);
  EXPECT_EQ(Agreed("SELECT DISTINCT i, s FROM {g}").num_rows(), 6u);
  EXPECT_EQ(Agreed("SELECT DISTINCT i, x, s FROM {g}").num_rows(), 7u);
}

TEST_F(GroupingOperatorTest, DistinctAggregatesDedupeLikeSelectDistinct) {
  // NaN is distinct from every value, NaN included: five non-NULL values.
  ResultSet counted = Agreed("SELECT COUNT(DISTINCT x) AS c FROM {g}");
  ResultSet listed = Agreed(
      "SELECT COUNT(*) AS c FROM "
      "(SELECT DISTINCT x FROM {g} WHERE x IS NOT NULL) AS d");
  EXPECT_EQ(counted.Get(0, 0).int_val(), listed.Get(0, 0).int_val());
  EXPECT_EQ(counted.Get(0, 0).int_val(), 5);

  ResultSet r = Agreed(
      "SELECT COUNT(DISTINCT i) AS ci, SUM(DISTINCT i) AS si, "
      "COUNT(DISTINCT s) AS cs, SUM(DISTINCT x) AS sx FROM {g}");
  EXPECT_EQ(r.Get(0, 0).int_val(), 3);
  EXPECT_EQ(r.Get(0, 1).int_val(), 3);
  EXPECT_EQ(r.Get(0, 2).int_val(), 3);
  EXPECT_TRUE(std::isnan(r.Get(0, 3).double_val()));
  // 0.0 and -0.0 are one value; 0.0 + 2.0 + 1.0 in first-seen order.
  ResultSet finite =
      Agreed("SELECT SUM(DISTINCT x) AS sx FROM {g} WHERE x < 100");
  EXPECT_EQ(finite.Get(0, 0).double_val(), 3.0);
  ResultSet grouped = Agreed(
      "SELECT s, COUNT(DISTINCT x) AS c FROM {g} GROUP BY s");
  ASSERT_EQ(grouped.num_rows(), 4u);
  EXPECT_EQ(grouped.Get(1, 1).int_val(), 2);  // 'a': 0.0, 1.0
  EXPECT_EQ(grouped.Get(2, 1).int_val(), 2);  // 'b': NaN, NaN
}

TEST_F(GroupingOperatorTest, SetOperations) {
  // g.x then h.x: NULL, 0.0, NaN, NaN, 2.0, 1.0, and h's NaN.
  EXPECT_EQ(Agreed("SELECT x FROM {g} UNION SELECT x FROM {h}").num_rows(),
            7u);
  // NaN matches nothing in h: NaN, NaN, 1.0.
  EXPECT_EQ(Agreed("SELECT x FROM {g} EXCEPT SELECT x FROM {h}").num_rows(),
            3u);
  // NULL, 0.0, 2.0.
  EXPECT_EQ(
      Agreed("SELECT x FROM {g} INTERSECT SELECT x FROM {h}").num_rows(), 3u);
  // INTEGER beside DOUBLE: 0 = 0.0 = -0.0 and 2 = 2.0.
  EXPECT_EQ(Agreed("SELECT i FROM {g} UNION SELECT x FROM {h}").num_rows(),
            5u);
  EXPECT_EQ(Agreed("SELECT i FROM {g} EXCEPT SELECT x FROM {h}").num_rows(),
            1u);
  EXPECT_EQ(
      Agreed("SELECT i FROM {g} INTERSECT SELECT x FROM {h}").num_rows(), 3u);
  // Dictionary strings.
  EXPECT_EQ(Agreed("SELECT s FROM {g} EXCEPT SELECT s FROM {h}").num_rows(),
            1u);
  EXPECT_EQ(
      Agreed("SELECT s FROM {g} INTERSECT SELECT s FROM {h}").num_rows(), 3u);
  EXPECT_EQ(Agreed("SELECT i, s FROM {g} UNION SELECT i, s FROM {h}")
                .num_rows(),
            10u);
}

TEST_F(GroupingOperatorTest, WindowPartitions) {
  ResultSet r = Agreed(
      "SELECT v, COUNT(*) OVER (PARTITION BY x) AS c, "
      "SUM(v) OVER (PARTITION BY i, s) AS t, "
      "ROW_NUMBER() OVER (PARTITION BY s ORDER BY v) AS n FROM {g}");
  ASSERT_EQ(r.num_rows(), 8u);
  // Partitions by x: {1}, {2, 3}, {4}, {5}, {6, 7}, {8}.
  const int64_t by_x[] = {1, 2, 2, 1, 1, 2, 2, 1};
  // Partitions by s: NULL {1, 7}, 'a' {2, 3, 8}, 'b' {4, 5}, '' {6}.
  const int64_t by_s[] = {1, 1, 2, 1, 2, 1, 2, 3};
  for (size_t row = 0; row < 8; ++row) {
    EXPECT_EQ(r.Get(row, 1).int_val(), by_x[row]) << "v=" << row + 1;
    EXPECT_EQ(r.Get(row, 3).int_val(), by_s[row]) << "v=" << row + 1;
  }
  EXPECT_EQ(r.Get(1, 2).int_val(), 5);  // (0, 'a'): v 2 + 3
}

TEST_F(GroupingOperatorTest, EquiJoins) {
  // 0.0 and -0.0 meet both of h's zeros; NaN and NULL meet nothing.
  EXPECT_EQ(Agreed("SELECT a.v, b.v FROM {g} AS a JOIN {h} AS b "
                   "ON a.x = b.x")
                .num_rows(),
            6u);
  // INTEGER keys probing DOUBLE ones.
  EXPECT_EQ(Agreed("SELECT a.v, b.v FROM {g} AS a JOIN {h} AS b "
                   "ON a.i = b.x")
                .num_rows(),
            6u);
  EXPECT_EQ(Agreed("SELECT a.v, b.v FROM {g} AS a JOIN {h} AS b "
                   "ON a.s = b.s")
                .num_rows(),
            4u);
  EXPECT_EQ(Agreed("SELECT a.v, b.v FROM {g} AS a JOIN {h} AS b "
                   "ON a.x = b.x AND b.s = a.s")
                .num_rows(),
            3u);
  // Unmatched rows of either side, NULL keys included.
  EXPECT_EQ(Agreed("SELECT a.v, b.v FROM {g} AS a FULL JOIN {h} AS b "
                   "ON a.x = b.x")
                .num_rows(),
            6u + 4u + 2u);
}

// ORDER BY, the window ORDER BY and MIN/MAX share Value::Compare's total
// order, in which NaN sorts after every number and equal to NaN, under
// both exec modes (MIN/MAX over the columnar scan run the vectorized
// kernel).
TEST(NaNOrderTest, SortWindowAndExtremesAgree) {
  Engine db;
  MustExecute(&db, "CREATE TABLE n (v INTEGER, x DOUBLE)");
  MustExecute(&db,
              "INSERT INTO n VALUES (1, CAST('nan' AS DOUBLE)), (2, 3.0), "
              "(3, 1.0), (4, CAST('nan' AS DOUBLE)), (5, 2.0), (6, 0.5)");
  for (ExecMode mode : {ExecMode::kVectorized, ExecMode::kRow}) {
    SCOPED_TRACE(mode == ExecMode::kRow ? "row" : "vectorized");
    db.options().exec_mode = mode;
    const double asc[] = {0.5, 1.0, 2.0, 3.0};
    ResultSet up = MustQuery(&db, "SELECT x FROM n ORDER BY x");
    ASSERT_EQ(up.num_rows(), 6u);
    for (size_t i = 0; i < 4; ++i) EXPECT_EQ(up.Get(i, 0).double_val(), asc[i]);
    EXPECT_TRUE(std::isnan(up.Get(4, 0).double_val()));
    EXPECT_TRUE(std::isnan(up.Get(5, 0).double_val()));

    ResultSet down = MustQuery(&db, "SELECT x FROM n ORDER BY x DESC");
    ASSERT_EQ(down.num_rows(), 6u);
    EXPECT_TRUE(std::isnan(down.Get(0, 0).double_val()));
    EXPECT_TRUE(std::isnan(down.Get(1, 0).double_val()));
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(down.Get(i + 2, 0).double_val(), asc[3 - i]);
    }

    // By v: NaN, 3.0, 1.0, NaN, 2.0, 0.5; the two NaNs take 5 and 6.
    ResultSet numbered = MustQuery(
        &db, "SELECT v, ROW_NUMBER() OVER (ORDER BY x) AS rn FROM n "
             "ORDER BY v");
    ASSERT_EQ(numbered.num_rows(), 6u);
    EXPECT_EQ(numbered.Get(1, 1).int_val(), 4);
    EXPECT_EQ(numbered.Get(2, 1).int_val(), 2);
    EXPECT_EQ(numbered.Get(4, 1).int_val(), 3);
    EXPECT_EQ(numbered.Get(5, 1).int_val(), 1);
    EXPECT_EQ(numbered.Get(0, 1).int_val() + numbered.Get(3, 1).int_val(),
              11);
    EXPECT_GE(numbered.Get(0, 1).int_val(), 5);

    ResultSet extremes = MustQuery(&db, "SELECT MIN(x), MAX(x) FROM n");
    EXPECT_EQ(extremes.Get(0, 0).double_val(), 0.5);
    EXPECT_TRUE(std::isnan(extremes.Get(0, 1).double_val()));
    if (mode == ExecMode::kVectorized) {
      EXPECT_GT(extremes.stats()->exec_vectorized_batches, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorKernelTest,
                         ::testing::Values(7u, 42u, 4096u));

INSTANTIATE_TEST_SUITE_P(Seeds, ExecPropertyTest,
                         ::testing::Values(3u, 17u, 2024u));

}  // namespace
}  // namespace msql
