#ifndef MSQL_TESTING_CASE_SPEC_H_
#define MSQL_TESTING_CASE_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace msql {
namespace testing {

// A generated (or replayed) test case in structured form. The structure —
// tables as column lists plus literal row matrices, setup statements, and
// checks holding query text — is what the delta-debugging shrinker mutates:
// dropping a row, a column, a table, a statement, or a query is a cheap
// edit here, and `ToSql()` re-renders the whole case as a self-contained
// .sql script for the corpus.

struct ColumnSpec {
  std::string name;
  std::string type;  // DDL spelling: INTEGER, DOUBLE, VARCHAR, DATE, BOOLEAN
};

struct TableSpec {
  std::string name;
  std::vector<ColumnSpec> columns;
  // Each cell is a SQL literal ("'A'", "42", "DATE '2024-02-29'", "NULL").
  std::vector<std::vector<std::string>> rows;

  std::string CreateSql() const;
  // One INSERT of rows [begin, end); empty string when that range is empty.
  std::string InsertSql(size_t begin, size_t end) const;
};

// What relation the oracle enforces over a check's queries.
enum class CheckKind {
  // Every query runs under all four evaluation paths plus the textual
  // expansion; all runs must agree per query.
  kDifferential,
  // Exactly two queries; their (normalized) results must be identical.
  // Used for the paper identities AGGREGATE(m) == m AT (VISIBLE) and the
  // AT (ALL d SET d = CURRENT d) round-trip.
  kEqualPair,
  // Exactly four single-value queries: total, WHERE p, WHERE NOT p,
  // WHERE p IS NULL. The three partition results must recombine (per the
  // aggregate in `agg`) into the total — ternary-logic partitioning.
  kTlp,
};

const char* CheckKindName(CheckKind kind);

struct Check {
  CheckKind kind = CheckKind::kDifferential;
  std::string agg;    // kTlp only: SUM / COUNT / MIN / MAX
  std::string label;  // human-readable tag for reports
  std::vector<std::string> queries;
};

struct CaseSpec {
  uint64_t seed = 0;
  std::vector<TableSpec> tables;
  // Statements run after the tables exist (CREATE VIEW, extra DML).
  std::vector<std::string> setup;
  std::vector<Check> checks;

  // DDL + INSERTs + setup, in execution order.
  std::vector<std::string> SetupStatements() const;

  // The same statements split in two for the oracle's grown leg: `before`
  // is the DDL, each table's first half of rows and the setup; `after`
  // inserts each table's second half, one INSERT per table.
  void SplitSetupStatements(std::vector<std::string>* before,
                            std::vector<std::string>* after) const;

  // Self-contained script: setup statements, then each check introduced by
  // a `-- check: <kind> [agg]` directive followed by its queries. Round-
  // trips through ParseScript.
  std::string ToSql() const;
};

// Loads a .sql script (a corpus file or a shrunk repro) back into a
// CaseSpec. Tables are not re-structured — all non-SELECT statements become
// `setup` entries, which is all replay needs. SELECT statements with no
// preceding directive each become their own differential check.
Result<CaseSpec> ParseScript(const std::string& text);

}  // namespace testing
}  // namespace msql

#endif  // MSQL_TESTING_CASE_SPEC_H_
