// Unit tests for the delta-debugging shrinker (src/testing/shrinker) and
// the msqlcheck harness around it. The central property, required by the
// testing subsystem's charter: an injected discrepancy is minimized to a
// near-minimal case while still reproducing, and the shrinker can never
// "simplify" a failure into a case whose setup no longer runs.

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "testing/generator.h"
#include "testing/harness.h"
#include "testing/oracle.h"
#include "testing/shrinker.h"

namespace msql {
namespace testing {
namespace {

// A deliberately bloated case: two tables, two setup statements, three
// checks. Only fragments of it are relevant to the injected failure.
CaseSpec BloatedCase() {
  CaseSpec spec;
  spec.seed = 99;
  TableSpec t0;
  t0.name = "t0";
  t0.columns = {{"d0", "VARCHAR"}, {"d1", "INTEGER"}, {"v0", "INTEGER"}};
  t0.rows = {{"'A'", "1", "10"}, {"'B'", "2", "20"}, {"'C'", "3", "42"},
             {"'D'", "4", "30"}, {"'E'", "5", "40"}, {"'F'", "6", "50"},
             {"NULL", "7", "60"}, {"'H'", "8", "70"}};
  TableSpec t1;
  t1.name = "t1";
  t1.columns = {{"k", "INTEGER"}};
  t1.rows = {{"1"}, {"2"}};
  spec.tables = {t0, t1};
  spec.setup = {
      "CREATE VIEW V0 AS SELECT *, COUNT(*) AS MEASURE m0 FROM t0",
      "CREATE VIEW V1 AS SELECT k FROM t1",
  };
  Check c0;
  c0.label = "irrelevant";
  c0.queries = {"SELECT k FROM t1", "SELECT COUNT(*) FROM t1"};
  Check c1;
  c1.label = "interesting";
  c1.queries = {"SELECT d0, m0 AT (ALL) AS x FROM V0 WHERE d1 >= 0 "
                "GROUP BY d0 ORDER BY d0 LIMIT 7",
                "SELECT d1 FROM t0"};
  Check c2;
  c2.label = "also irrelevant";
  c2.queries = {"SELECT 1"};
  spec.checks = {c0, c1, c2};
  return spec;
}

// The injected discrepancy: the bug "reproduces" whenever some query still
// says `AT (ALL)` and table t0 still holds the cell 42.
bool InjectedFailure(const CaseSpec& spec) {
  bool query_hit = false;
  for (const Check& c : spec.checks) {
    for (const std::string& q : c.queries) {
      if (q.find("AT (ALL)") != std::string::npos) query_hit = true;
    }
  }
  if (!query_hit) return false;
  for (const TableSpec& t : spec.tables) {
    if (t.name != "t0") continue;
    for (const auto& row : t.rows) {
      for (const std::string& cell : row) {
        if (cell == "42") return true;
      }
    }
  }
  return false;
}

TEST(ShrinkerTest, MinimizesInjectedDiscrepancy) {
  CaseSpec spec = BloatedCase();
  ASSERT_TRUE(InjectedFailure(spec));

  ShrinkStats stats;
  CaseSpec minimal = Shrink(std::move(spec), InjectedFailure,
                            /*max_predicate_calls=*/500, &stats);

  // Still reproduces, and got materially smaller.
  EXPECT_TRUE(InjectedFailure(minimal));
  EXPECT_GT(stats.accepted_edits, 0);

  // Exactly the failing query survives.
  int total_queries = 0;
  for (const Check& c : minimal.checks) {
    total_queries += static_cast<int>(c.queries.size());
  }
  EXPECT_EQ(total_queries, 1);
  ASSERT_EQ(minimal.checks.size(), 1u);
  EXPECT_NE(minimal.checks[0].queries[0].find("AT (ALL)"), std::string::npos);

  // The irrelevant table, the setup statements, the seven irrelevant rows,
  // and the two irrelevant columns are all gone.
  ASSERT_EQ(minimal.tables.size(), 1u);
  EXPECT_EQ(minimal.tables[0].name, "t0");
  ASSERT_EQ(minimal.tables[0].rows.size(), 1u);
  ASSERT_EQ(minimal.tables[0].columns.size(), 1u);
  EXPECT_EQ(minimal.tables[0].rows[0][0], "42");
  EXPECT_TRUE(minimal.setup.empty());

  // The query itself was simplified: the clauses the predicate does not
  // depend on (WHERE / ORDER BY / LIMIT) are gone.
  const std::string& q = minimal.checks[0].queries[0];
  EXPECT_EQ(q.find("ORDER BY"), std::string::npos) << q;
  EXPECT_EQ(q.find("LIMIT"), std::string::npos) << q;
  EXPECT_EQ(q.find("WHERE"), std::string::npos) << q;
}

TEST(ShrinkerTest, RespectsThePredicateBudget) {
  CaseSpec spec = BloatedCase();
  ShrinkStats stats;
  Shrink(std::move(spec), InjectedFailure, /*max_predicate_calls=*/25,
         &stats);
  EXPECT_LE(stats.predicate_calls, 25);
}

TEST(ShrinkerTest, ReturnsInputWhenNothingCanBeRemoved) {
  CaseSpec spec;
  spec.seed = 1;
  Check c;
  c.queries = {"SELECT 1"};
  spec.checks = {c};
  ShrinkStats stats;
  CaseSpec minimal =
      Shrink(std::move(spec), [](const CaseSpec&) { return true; },
             /*max_predicate_calls=*/200, &stats);
  ASSERT_EQ(minimal.checks.size(), 1u);
  EXPECT_EQ(minimal.checks[0].queries, std::vector<std::string>{"SELECT 1"});
}

TEST(ShrinkerTest, QuerySimplificationsCoverTheMajorClauses) {
  std::vector<std::string> cands = QuerySimplifications(
      "SELECT d0, m0 AT (ALL d0 VISIBLE) AS x FROM V0 WHERE d1 > 2 "
      "GROUP BY d0, d1 ORDER BY d0 LIMIT 5");
  ASSERT_FALSE(cands.empty());
  auto any = [&](auto pred) {
    return std::any_of(cands.begin(), cands.end(), pred);
  };
  // Remove WHERE entirely.
  EXPECT_TRUE(any([](const std::string& s) {
    return s.find("WHERE") == std::string::npos;
  }));
  // Remove ORDER BY / LIMIT.
  EXPECT_TRUE(any([](const std::string& s) {
    return s.find("ORDER BY") == std::string::npos;
  }));
  EXPECT_TRUE(any([](const std::string& s) {
    return s.find("LIMIT") == std::string::npos;
  }));
  // Collapse the AT expression to its bare measure.
  EXPECT_TRUE(any([](const std::string& s) {
    return s.find("AT (") == std::string::npos &&
           s.find("m0") != std::string::npos;
  }));
  // Drop one GROUP BY item (each candidate applies a single mutation, so
  // `d1` still appears in the untouched WHERE clause).
  EXPECT_TRUE(any([](const std::string& s) {
    return s.find("GROUP BY d0") != std::string::npos &&
           s.find("GROUP BY d0, d1") == std::string::npos;
  }));
  // Malformed input yields no candidates rather than an error.
  EXPECT_TRUE(QuerySimplifications("SELEC nonsense FROM").empty());
}

TEST(OracleTest, SetupFailureIsFlaggedNotMinimized) {
  CaseSpec broken;
  broken.setup = {"CREATE VIEW V0 AS SELECT * FROM no_such_table"};
  Check c;
  c.queries = {"SELECT 1"};
  broken.checks = {c};
  CaseOutcome outcome = RunCase(broken);
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.setup_failed);

  // The harness predicate built on this flag refuses such candidates, so a
  // shrink of a healthy-setup failure can never drift into one.
  CaseSpec healthy;
  Check pair;
  pair.kind = CheckKind::kEqualPair;
  pair.queries = {"SELECT 17", "SELECT 18"};  // injected real discrepancy
  healthy.checks = {pair};
  healthy.tables = BloatedCase().tables;
  healthy.setup = BloatedCase().setup;
  auto still_fails = [](const CaseSpec& cand) {
    CaseOutcome o = RunCase(cand);
    return !o.ok() && !o.setup_failed;
  };
  ASSERT_TRUE(still_fails(healthy));
  CaseSpec minimal = Shrink(std::move(healthy), still_fails, 400);
  EXPECT_TRUE(still_fails(minimal));
  // Everything irrelevant to the pair mismatch is gone.
  EXPECT_TRUE(minimal.tables.empty());
  EXPECT_TRUE(minimal.setup.empty());
  ASSERT_EQ(minimal.checks.size(), 1u);
  EXPECT_EQ(minimal.checks[0].queries.size(), 2u);
}

TEST(HarnessTest, SeedRunsAreDeterministic) {
  HarnessOptions options;
  options.generator.max_rows = 16;
  options.generator.num_queries = 2;
  options.shrink_failures = false;
  SeedReport a = RunSeed(3, options);
  SeedReport b = RunSeed(3, options);
  EXPECT_EQ(a.outcome.ok(), b.outcome.ok());
  EXPECT_EQ(a.outcome.queries_run, b.outcome.queries_run);
  EXPECT_EQ(a.outcome.expansion_skips, b.outcome.expansion_skips);
}

TEST(HarnessTest, SmokeWindowIsGreen) {
  // A small always-on differential window; the full sweep runs as
  // `msqlcheck --seeds=200 --smoke` in CI.
  HarnessOptions options;
  options.generator.max_rows = 16;
  options.generator.num_queries = 2;
  RunSummary summary = RunSeeds(0, 10, options, nullptr);
  EXPECT_EQ(summary.seeds_run, 10);
  for (const SeedReport& f : summary.failures) {
    ADD_FAILURE() << "seed " << f.seed << " failed:\n" << f.repro_sql;
  }
}

TEST(HarnessTest, ACrashingSeedIsNamedAndLeavesARepro) {
  HarnessOptions options;
  options.generator.max_rows = 8;
  options.generator.num_queries = 1;
  options.shrink_budget = 40;
  options.repro_dir = ::testing::TempDir() + "msqlcheck_crash_repros";
  // Seed 2's case takes the process down; the other seeds pass.
  options.run_case = [](const CaseSpec& spec, const OracleOptions&) {
    if (spec.seed == 2) std::abort();
    return CaseOutcome{};
  };
  std::ostringstream progress;
  RunSummary summary = RunSeeds(1, 3, options, &progress);
  EXPECT_EQ(summary.seeds_run, 3);
  ASSERT_EQ(summary.seeds_failed, 1);
  const SeedReport& crash = summary.failures[0];
  EXPECT_EQ(crash.seed, 2u);
  ASSERT_EQ(crash.outcome.failures.size(), 1u);
  EXPECT_EQ(crash.outcome.failures[0].label, "crash");
  EXPECT_NE(crash.outcome.failures[0].detail.find(
                "signal " + std::to_string(SIGABRT)),
            std::string::npos)
      << crash.outcome.failures[0].detail;
  EXPECT_NE(progress.str().find("FAIL seed 2 "), std::string::npos)
      << progress.str();

  // The repro on disk is the seed's case, shrunk by candidates that each
  // crashed a child of their own.
  ASSERT_FALSE(crash.repro_path.empty());
  std::ifstream in(crash.repro_path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), crash.repro_sql);
  EXPECT_NE(crash.repro_sql.find("seed=2"), std::string::npos);
  EXPECT_GT(crash.shrink_stats.accepted_edits, 0);
  EXPECT_LT(crash.repro_sql.size(),
            GenerateCase(2, options.generator).ToSql().size());
}

TEST(HarnessTest, ReplayScriptRunsACorpusStyleCase) {
  auto outcome = ReplayScript(
      "-- msqlcheck case seed=7\n"
      "CREATE TABLE t0 (d0 VARCHAR, v0 INTEGER);\n"
      "INSERT INTO t0 VALUES ('A', 1), ('A', 2), (NULL, 3);\n"
      "CREATE VIEW V0 AS SELECT *, SUM(v0) AS MEASURE m0 FROM t0;\n"
      "-- check: differential (grouped)\n"
      "SELECT d0, m0 FROM V0 GROUP BY d0;\n"
      "-- check: equal (visible pair)\n"
      "SELECT AGGREGATE(m0) AS x FROM V0 GROUP BY d0;\n"
      "SELECT m0 AT (VISIBLE) AS x FROM V0 GROUP BY d0;\n",
      OracleOptions{});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome.value().ok());
  EXPECT_EQ(outcome.value().queries_run, 3);
}

}  // namespace
}  // namespace testing
}  // namespace msql
