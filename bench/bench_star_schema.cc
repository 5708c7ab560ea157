// End-to-end dashboard workload over a star schema published as a wide
// measure view (paper section 5.3's recommended practice). Measures a
// realistic mixed query set — top-line KPIs, grouped breakdowns with shares,
// subtotal reports, and period comparisons — at growing fact sizes, and the
// cost of the semantic layer relative to hand-written SQL over the base
// tables: one round of a leg is one refresh of all four queries.
//
// Sizes: {fact_rows}.

#include <string>

#include "harness.h"
#include "workload.h"

namespace msql::bench {
namespace {

void LoadStarSchema(Engine* db, int fact_rows) {
  Check(db->Execute(R"sql(
    CREATE TABLE Products (productId INTEGER, category VARCHAR,
                           brand VARCHAR);
    CREATE TABLE Stores (storeId INTEGER, region VARCHAR, city VARCHAR);
    CREATE TABLE Sales (productId INTEGER, storeId INTEGER, saleDate DATE,
                        units INTEGER, amount INTEGER);
  )sql"),
        "create star schema");

  const int kProducts = 200, kStores = 40;
  std::vector<Row> products;
  for (int p = 0; p < kProducts; ++p) {
    products.push_back({Value::Int(p),
                        Value::String(StrCat("cat", p % 12)),
                        Value::String(StrCat("brand", p % 30))});
  }
  Check(db->InsertRows("Products", std::move(products)), "load Products");
  std::vector<Row> stores;
  for (int s = 0; s < kStores; ++s) {
    stores.push_back({Value::Int(s),
                      Value::String(StrCat("region", s % 5)),
                      Value::String(StrCat("city", s))});
  }
  Check(db->InsertRows("Stores", std::move(stores)), "load Stores");

  std::mt19937 rng(99);
  std::uniform_int_distribution<int> product(0, kProducts - 1);
  std::uniform_int_distribution<int> store(0, kStores - 1);
  std::uniform_int_distribution<int64_t> day(DaysFromCivil(2023, 1, 1),
                                             DaysFromCivil(2024, 12, 31));
  std::uniform_int_distribution<int> units(1, 20);
  std::uniform_int_distribution<int> price(3, 80);
  std::vector<Row> facts;
  facts.reserve(fact_rows);
  for (int i = 0; i < fact_rows; ++i) {
    int u = units(rng);
    facts.push_back({Value::Int(product(rng)), Value::Int(store(rng)),
                     Value::Date(day(rng)), Value::Int(u),
                     Value::Int(u * price(rng))});
  }
  Check(db->InsertRows("Sales", std::move(facts)), "load Sales");

  Check(db->Execute(R"sql(
    CREATE VIEW FactSales AS
      SELECT *, SUM(amount) AS MEASURE revenue,
             SUM(units) AS MEASURE totalUnits,
             COUNT(*) AS MEASURE txns,
             YEAR(saleDate) AS saleYear
      FROM Sales;
    CREATE VIEW Mart AS
      SELECT f.saleDate, f.saleYear, f.units, f.amount,
             f.revenue, f.totalUnits, f.txns,
             p.category, p.brand, s.region, s.city
      FROM FactSales AS f
      JOIN Products AS p ON f.productId = p.productId
      JOIN Stores AS s ON f.storeId = s.storeId;
  )sql"),
        "create mart");
}

const char* kDashboardQueries[] = {
    // KPI strip.
    "SELECT AGGREGATE(revenue) AS rev, AGGREGATE(totalUnits) AS units, "
    "AGGREGATE(txns) AS txns FROM Mart",
    // Breakdown with share-of-total.
    "SELECT region, AGGREGATE(revenue) AS rev, "
    "revenue * 1.0 / revenue AT (ALL region) AS share "
    "FROM Mart GROUP BY region ORDER BY rev DESC",
    // Subtotal report.
    "SELECT category, region, AGGREGATE(revenue) AS rev "
    "FROM Mart GROUP BY ROLLUP(category, region)",
    // Period comparison escaping the dashboard filter.
    "SELECT category, AGGREGATE(revenue) AS rev2024, "
    "revenue AT (SET saleYear = 2023) AS rev2023 "
    "FROM Mart WHERE saleYear = 2024 GROUP BY category",
};

// The same four questions hand-written against the base tables (what a user
// without the semantic layer must maintain).
const char* kHandwrittenQueries[] = {
    "SELECT SUM(amount) AS rev, SUM(units) AS units, COUNT(*) AS txns "
    "FROM Sales",
    "SELECT s.region, SUM(f.amount) AS rev, "
    "SUM(f.amount) * 1.0 / (SELECT SUM(amount) FROM Sales) AS share "
    "FROM Sales AS f JOIN Stores AS s ON f.storeId = s.storeId "
    "GROUP BY s.region ORDER BY rev DESC",
    "SELECT p.category, s.region, SUM(f.amount) AS rev "
    "FROM Sales AS f JOIN Products AS p ON f.productId = p.productId "
    "JOIN Stores AS s ON f.storeId = s.storeId "
    "GROUP BY ROLLUP(p.category, s.region)",
    "SELECT p.category, "
    "SUM(f.amount) FILTER (WHERE YEAR(f.saleDate) = 2024) AS rev2024, "
    "SUM(f.amount) FILTER (WHERE YEAR(f.saleDate) = 2023) AS rev2023 "
    "FROM Sales AS f JOIN Products AS p ON f.productId = p.productId "
    "GROUP BY p.category",
};

constexpr int kFactRows[] = {2000, 16000, 64000};

int Main(int argc, char** argv) {
  Harness h("star_schema", argc, argv, /*rounds=*/5, /*smoke_rounds=*/1);
  for (const int fact_rows : h.Sweep(kFactRows)) {
    Engine db;
    LoadStarSchema(&db, fact_rows);
    auto refresh = [&db](std::span<const char* const> queries) {
      return [&db, queries](Leg&) {
        ResultSet rs;
        double ms = 0;
        for (const char* q : queries) ms += TimeQueryMs(&db, q, &rs);
        return ms;
      };
    };
    Comparison& c = h.Compare("fact_rows=" + std::to_string(fact_rows), "ms");
    c.Add("dashboard_over_mart", refresh(kDashboardQueries));
    c.Add("dashboard_handwritten", refresh(kHandwrittenQueries));
    c.Run(h.rounds());
    c.Ratio("mart_over_handwritten", "dashboard_over_mart",
            "dashboard_handwritten");
  }
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
