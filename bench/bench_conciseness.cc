// Paper section 5.7: conciseness. A measure query referencing k evaluation
// contexts stays O(k) tokens, while its plain-SQL expansion repeats a
// correlated subquery (with the full formula and filter set) per context.
// This bench reports the sizes side by side and times the expansion
// itself. Shape claim: expanded/measure size ratio grows roughly linearly
// in k and with the formula length. A correctness check (every run, exit
// 1 on failure) asserts both forms return the same row count.
//
// Sizes: {contexts}.

#include <string>

#include "harness.h"
#include "parser/lexer.h"
#include "workload.h"

namespace msql::bench {
namespace {

size_t CountTokens(const std::string& sql) {
  Lexer lexer(sql);
  auto tokens = lexer.Tokenize();
  return tokens.ok() ? tokens.value().size() - 1 : 0;  // minus EOF
}

// A query family: compare this year's revenue to each of the k previous
// years (k distinct evaluation contexts).
std::string MakeMeasureQuery(int contexts) {
  std::string q = "SELECT prodName, orderYear, AGGREGATE(sumRevenue) AS rev";
  for (int k = 1; k <= contexts; ++k) {
    q += ", sumRevenue AT (SET orderYear = CURRENT orderYear - " +
         std::to_string(k) + ") AS rev_minus_" + std::to_string(k);
  }
  q += " FROM EO GROUP BY prodName, orderYear";
  return q;
}

// Both forms of the family must agree.
bool ExpansionAgrees() {
  Engine db;
  LoadOrders(&db, 500, 8, 8);
  const std::string measure_query = MakeMeasureQuery(2);
  const std::string expanded =
      CheckResult(db.ExpandSql(measure_query), "expansion");
  const size_t native =
      CheckResult(db.Query(measure_query), "native").num_rows();
  const size_t plain = CheckResult(db.Query(expanded), "plain").num_rows();
  std::printf("expansion check: native %zu rows, expanded %zu rows\n", native,
              plain);
  return native == plain;
}

constexpr int kContexts[] = {1, 2, 4, 8, 16};

int Main(int argc, char** argv) {
  Harness h("conciseness", argc, argv, /*rounds=*/5, /*smoke_rounds=*/1);
  h.Check("expansion returns the measure query's row count",
          ExpansionAgrees());
  Engine db;
  LoadOrders(&db, 100, 8, 8);
  Comparison& c = h.Compare("ExpandSql", "ms");
  for (const int k : h.Sweep(kContexts)) {
    c.Add("contexts=" + std::to_string(k),
          [&db, query = MakeMeasureQuery(k)](Leg& leg) {
            std::string expanded;
            const double seconds = SecondsOf([&] {
              expanded = CheckResult(db.ExpandSql(query), "expansion");
            });
            const double measure_tokens = CountTokens(query);
            const double expanded_tokens = CountTokens(expanded);
            leg.Counter("measure_chars", static_cast<double>(query.size()));
            leg.Counter("expanded_chars", static_cast<double>(expanded.size()));
            leg.Counter("measure_tokens", measure_tokens);
            leg.Counter("expanded_tokens", expanded_tokens);
            leg.Counter("token_ratio", expanded_tokens / measure_tokens);
            return seconds * 1000.0;
          });
  }
  c.Run(h.rounds());
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
