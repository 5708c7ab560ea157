// Unit tests for the msqlcheck case generator and the script round-trip
// (src/testing/generator, src/testing/case_spec): cross-platform seed
// determinism, well-formed setup on every seed, option plumbing, and
// ToSql() <-> ParseScript() stability.

#include <set>

#include "engine/engine.h"
#include "gtest/gtest.h"
#include "testing/generator.h"

namespace msql {
namespace testing {
namespace {

TEST(GeneratorTest, SameSeedSameCase) {
  for (uint64_t seed : {0ull, 1ull, 7ull, 123456789ull}) {
    CaseSpec a = GenerateCase(seed);
    CaseSpec b = GenerateCase(seed);
    EXPECT_EQ(a.ToSql(), b.ToSql()) << "seed " << seed;
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  // Not a hard guarantee per pair, but across a window every seed
  // colliding would mean the seed is ignored.
  std::set<std::string> cases;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    cases.insert(GenerateCase(seed).ToSql());
  }
  EXPECT_GT(cases.size(), 15u);
}

TEST(GeneratorTest, SetupRunsOnAFreshEngine) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    CaseSpec spec = GenerateCase(seed);
    Engine db;
    for (const std::string& stmt : spec.SetupStatements()) {
      Status st = db.Execute(stmt);
      ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << stmt << "\n"
                           << st.ToString();
    }
  }
}

TEST(GeneratorTest, OptionsAreRespected) {
  GeneratorOptions opts;
  opts.max_rows = 8;
  opts.num_queries = 2;
  opts.metamorphic = false;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    CaseSpec spec = GenerateCase(seed, opts);
    int differential_queries = 0;
    for (const Check& c : spec.checks) {
      EXPECT_EQ(c.kind, CheckKind::kDifferential) << "seed " << seed;
      differential_queries += static_cast<int>(c.queries.size());
    }
    EXPECT_LE(differential_queries, opts.num_queries) << "seed " << seed;
    EXPECT_GT(differential_queries, 0) << "seed " << seed;
    for (const TableSpec& t : spec.tables) {
      EXPECT_LE(t.rows.size(), static_cast<size_t>(opts.max_rows))
          << "seed " << seed << " table " << t.name;
    }
  }
}

TEST(GeneratorTest, MetamorphicChecksAppearAcrossSeeds) {
  std::set<CheckKind> seen;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    for (const Check& c : GenerateCase(seed).checks) seen.insert(c.kind);
  }
  EXPECT_TRUE(seen.count(CheckKind::kDifferential));
  EXPECT_TRUE(seen.count(CheckKind::kEqualPair));
  EXPECT_TRUE(seen.count(CheckKind::kTlp));
}

TEST(GeneratorTest, AdversarialShapesAppearAcrossSeeds) {
  // The generator must keep producing the inputs the paper's semantics
  // make tricky: NULL dimension values, duplicate rows, empty tables.
  bool any_null = false, any_dup = false, any_empty = false;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    for (const TableSpec& t : GenerateCase(seed).tables) {
      if (t.rows.empty()) any_empty = true;
      std::set<std::vector<std::string>> distinct;
      for (const auto& row : t.rows) {
        if (!distinct.insert(row).second) any_dup = true;
        for (const std::string& cell : row) {
          if (cell == "NULL") any_null = true;
        }
      }
    }
  }
  EXPECT_TRUE(any_null);
  EXPECT_TRUE(any_dup);
  EXPECT_TRUE(any_empty);
}

TEST(GeneratorTest, RowGroupingShapesAppearAcrossSeeds) {
  // Plain queries through the operators that group whole rows, so the row
  // and vectorized legs compare both grouping arms on them. The expansion
  // leg skips a set operation under a named reason.
  std::set<std::string> seen;
  Engine db;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    for (const Check& c : GenerateCase(seed).checks) {
      for (const std::string& q : c.queries) {
        for (const char* shape : {"SELECT DISTINCT", " UNION ", " EXCEPT ",
                                  " INTERSECT ", "COUNT(DISTINCT v1)"}) {
          if (q.find(shape) != std::string::npos) seen.insert(shape);
        }
        if (q.find(" UNION ") == std::string::npos &&
            q.find(" EXCEPT ") == std::string::npos &&
            q.find(" INTERSECT ") == std::string::npos) {
          continue;
        }
        auto expanded = db.ExpandSql(q);
        ASSERT_FALSE(expanded.ok()) << q;
        EXPECT_EQ(expanded.status().code(), ErrorCode::kNotImplemented) << q;
        EXPECT_NE(expanded.status().message().find("set operations"),
                  std::string::npos)
            << expanded.status().ToString();
      }
    }
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(GeneratorTest, FilterPushdownShapesAppearAcrossSeeds) {
  // Filters the planner moves into the view's Project (y2 atoms, over
  // grouped and row-grain measure references whose AT (ALL), SET and
  // VISIBLE contexts must still see the right rows), and filters it must
  // leave alone: a WHERE atom that can raise, and a view column that does.
  std::set<std::string> seen;
  bool view_raises = false;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const CaseSpec spec = GenerateCase(seed);
    bool has_r0 = false;
    for (const std::string& stmt : spec.SetupStatements()) {
      if (stmt.find("100 / (v0 - ") != std::string::npos) has_r0 = true;
    }
    Engine db;
    if (has_r0) {
      seen.insert("raising view column");
      for (const std::string& stmt : spec.SetupStatements()) {
        ASSERT_TRUE(db.Execute(stmt).ok()) << stmt;
      }
      auto rs = db.Query("SELECT COUNT(*) AS n FROM V0");
      if (!rs.ok() &&
          rs.status().message().find("division by zero") != std::string::npos) {
        view_raises = true;
      }
    }
    for (const Check& c : spec.checks) {
      for (const std::string& q : c.queries) {
        const size_t where = q.find(" WHERE ");
        if (where == std::string::npos) continue;
        const std::string filter = q.substr(where);
        for (const char* atom : {"y2 = ", "y2 >= ", "y2 IN ("}) {
          if (filter.find(atom) != std::string::npos) seen.insert(atom);
        }
        if (q.find(" JOIN ") == std::string::npos &&
            filter.find(" AND 100 / v0 > 1") != std::string::npos) {
          seen.insert("raising WHERE atom");
        }
        if (filter.rfind(" WHERE y2", 0) != 0) continue;
        for (const char* context :
             {" AT (ALL)", " AT (SET y2 = ", " AT (VISIBLE)"}) {
          if (q.find(context) != std::string::npos) seen.insert(context);
        }
        seen.insert(q.find(" GROUP BY ") == std::string::npos
                        ? "row-grain y2 filter"
                        : "grouped y2 filter");
      }
    }
  }
  for (const char* shape :
       {"y2 = ", "y2 >= ", "y2 IN (", "raising WHERE atom", " AT (ALL)",
        " AT (SET y2 = ", " AT (VISIBLE)", "row-grain y2 filter",
        "grouped y2 filter", "raising view column"}) {
    EXPECT_TRUE(seen.count(shape)) << shape;
  }
  EXPECT_TRUE(view_raises);
}

TEST(CaseSpecTest, ScriptRoundTripPreservesTheCase) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    CaseSpec spec = GenerateCase(seed);
    std::string script = spec.ToSql();
    auto reparsed = ParseScript(script);
    ASSERT_TRUE(reparsed.ok()) << "seed " << seed << ": "
                               << reparsed.status().ToString();
    const CaseSpec& r = reparsed.value();
    EXPECT_EQ(r.seed, seed);
    // ParseScript flattens tables into setup statements; the executable
    // statement sequence must be identical.
    EXPECT_EQ(r.SetupStatements(), spec.SetupStatements()) << "seed " << seed;
    ASSERT_EQ(r.checks.size(), spec.checks.size()) << "seed " << seed;
    for (size_t i = 0; i < r.checks.size(); ++i) {
      EXPECT_EQ(r.checks[i].kind, spec.checks[i].kind);
      EXPECT_EQ(r.checks[i].agg, spec.checks[i].agg);
      EXPECT_EQ(r.checks[i].queries, spec.checks[i].queries);
    }
    // And the round-trip is a fixpoint: rendering the reparsed spec gives
    // a script that parses to the same statements again.
    auto again = ParseScript(r.ToSql());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().SetupStatements(), spec.SetupStatements());
  }
}

TEST(CaseSpecTest, ParseScriptHandlesPlainSqlFiles) {
  // A hand-written file with no directives: every SELECT becomes its own
  // differential check.
  auto spec = ParseScript(
      "CREATE TABLE t (x INTEGER);\n"
      "INSERT INTO t VALUES (1), (2);\n"
      "SELECT x FROM t;\n"
      "SELECT COUNT(*) FROM t;\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().SetupStatements().size(), 2u);
  ASSERT_EQ(spec.value().checks.size(), 2u);
  EXPECT_EQ(spec.value().checks[0].kind, CheckKind::kDifferential);
}

}  // namespace
}  // namespace testing
}  // namespace msql
