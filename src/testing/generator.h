#ifndef MSQL_TESTING_GENERATOR_H_
#define MSQL_TESTING_GENERATOR_H_

#include <cstdint>

#include "testing/case_spec.h"

namespace msql {
namespace testing {

struct GeneratorOptions {
  // Upper bound on fact-table rows (the generator also produces empty
  // tables and duplicate dimension tuples on purpose).
  int max_rows = 60;
  // Number of differential queries generated per case.
  int num_queries = 5;
  // Also emit the metamorphic checks (visible-pair, TLP, ALL/SET
  // round-trip) alongside the differential ones.
  bool metamorphic = true;
};

// Deterministically generates a full test case from a seed: a randomized
// star-ish schema (NULL-heavy dimension columns, optional date dimension,
// optional join table, extreme numerics, sometimes an empty table), a
// measure view over the fact table (sometimes with a second-level view
// whose measure composes a first-level one, sometimes with a column that
// raises on some rows), and a batch of queries exercising AT modifiers
// (ALL / ALL dim / SET / VISIBLE / WHERE), CURRENT dim, joins, inline
// measure providers, filters on the view's derived YEAR column (grouped
// and at row grain), WHERE atoms that can raise, and GROUP BY, plus plain
// queries through the row-grouping operators (SELECT DISTINCT, UNION /
// EXCEPT / INTERSECT, COUNT(DISTINCT) and SUM(DISTINCT)). The same (seed,
// options) pair always produces the identical CaseSpec on every platform.
CaseSpec GenerateCase(uint64_t seed, const GeneratorOptions& options = {});

}  // namespace testing
}  // namespace msql

#endif  // MSQL_TESTING_GENERATOR_H_
