#include "inputs.h"

#include <algorithm>

#include "common/date.h"
#include "common/string_util.h"

namespace msql::e2e {
namespace {

constexpr int kFirstYear = 2022;
constexpr int kLastYear = 2024;

// `n` values in [0, k), each appearing n / k times (rounded down or up),
// in seeded order.
std::vector<int64_t> Balanced(Rng* rng, int n, int64_t k) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i * k / n;
  rng->Shuffle(&v);
  return v;
}

// `n` orders. Products, customers and order days are spread evenly and
// shuffled independently, so every seed gives tables with the same group
// sizes — and queries with the same costs — while the rows differ.
std::vector<Row> MakeOrders(Rng* rng, int n, const Sizes& sizes) {
  const int64_t first_day = DaysFromCivil(kFirstYear, 1, 1);
  const int64_t days = DaysFromCivil(kLastYear, 12, 31) - first_day + 1;
  const std::vector<int64_t> products = Balanced(rng, n, sizes.products);
  const std::vector<int64_t> customers = Balanced(rng, n, sizes.customers);
  const std::vector<int64_t> order_days = Balanced(rng, n, days);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    const int64_t revenue = rng->Uniform(2, 500);
    const int64_t cost = revenue * rng->Uniform(20, 90) / 100 + 1;
    rows.push_back({Value::String(StrCat("P", products[i])),
                    Value::String(StrCat("C", customers[i])),
                    Value::Date(first_day + order_days[i]), Value::Int(revenue),
                    Value::Int(cost)});
  }
  return rows;
}

int64_t SumRevenue(const std::vector<Row>& rows) {
  int64_t sum = 0;
  for (const Row& row : rows) sum += row[3].int_val();
  return sum;
}

// Parameters of one template variant.
struct Params {
  int year = kLastYear;
  std::string products;  // SQL IN-list body: 'P3', 'P17', ...
  int limit = 0;         // 0 = no LIMIT clause
};

std::string Limit(const Params& p) {
  return p.limit > 0 ? StrCat(" LIMIT ", p.limit) : std::string();
}

// Each renderer returns {measure form, plain twin}. `f` is the fact view
// the measure form reads (EO, or the top of the view stack).
using Render = std::pair<std::string, std::string> (*)(const std::string& f,
                                                       const Params& p);

// Listing 4: profit margin per product (AGGREGATE).
std::pair<std::string, std::string> MarginPerProduct(const std::string& f,
                                                     const Params& p) {
  return {StrCat("SELECT prodName, AGGREGATE(margin) AS m, "
                 "AGGREGATE(orderCount) AS n FROM ", f,
                 " WHERE prodName IN (", p.products,
                 ") GROUP BY prodName ORDER BY prodName", Limit(p)),
          StrCat("SELECT prodName, (SUM(revenue) - SUM(cost)) * 1.0 / "
                 "SUM(revenue) AS m, COUNT(*) AS n FROM Orders "
                 "WHERE prodName IN (", p.products,
                 ") GROUP BY prodName ORDER BY prodName", Limit(p))};
}

// Listing 6: each product's share of its year via AT (ALL prodName).
std::pair<std::string, std::string> ShareOfYear(const std::string& f,
                                                const Params& p) {
  return {StrCat("SELECT prodName, orderYear, sumRevenue AS r, "
                 "sumRevenue / sumRevenue AT (ALL prodName) AS share FROM ", f,
                 " WHERE orderYear = ", p.year,
                 " GROUP BY prodName, orderYear ORDER BY prodName", Limit(p)),
          StrCat("SELECT prodName, YEAR(orderDate) AS orderYear, "
                 "SUM(revenue) AS r, SUM(revenue) / (SELECT SUM(revenue) "
                 "FROM Orders WHERE YEAR(orderDate) = ", p.year,
                 ") AS share FROM Orders WHERE YEAR(orderDate) = ", p.year,
                 " GROUP BY prodName, YEAR(orderDate) ORDER BY prodName",
                 Limit(p))};
}

// Listing 10: year over year via AT (SET orderYear = CURRENT orderYear - 1),
// against a CTE self-join.
std::pair<std::string, std::string> YearOverYear(const std::string& f,
                                                 const Params& p) {
  return {StrCat("SELECT prodName, orderYear, sumRevenue AS r, "
                 "sumRevenue AT (SET orderYear = CURRENT orderYear - 1) "
                 "AS prev FROM ", f, " WHERE orderYear = ", p.year,
                 " GROUP BY prodName, orderYear ORDER BY prodName", Limit(p)),
          StrCat("WITH y AS (SELECT prodName, YEAR(orderDate) AS orderYear, "
                 "SUM(revenue) AS r FROM Orders "
                 "GROUP BY prodName, YEAR(orderDate)) "
                 "SELECT c.prodName, c.orderYear, c.r, p.r AS prev "
                 "FROM y AS c LEFT JOIN y AS p ON p.prodName = c.prodName "
                 "AND p.orderYear = c.orderYear - 1 WHERE c.orderYear = ",
                 p.year, " ORDER BY c.prodName", Limit(p))};
}

// Listing 8: ROLLUP totals, with the VISIBLE form of the measure.
std::pair<std::string, std::string> Rollup(const std::string& f,
                                           const Params& p) {
  return {StrCat("SELECT prodName, AGGREGATE(sumRevenue) AS r, "
                 "sumRevenue AT (VISIBLE) AS rv, COUNT(*) AS c FROM ", f,
                 " WHERE orderYear = ", p.year, " AND prodName IN (",
                 p.products, ") GROUP BY ROLLUP(prodName) ORDER BY prodName",
                 Limit(p)),
          StrCat("SELECT prodName, SUM(revenue) AS r, SUM(revenue) AS rv, "
                 "COUNT(*) AS c FROM Orders WHERE YEAR(orderDate) = ", p.year,
                 " AND prodName IN (", p.products,
                 ") GROUP BY ROLLUP(prodName) ORDER BY prodName", Limit(p))};
}

// Bare measures grouped by the high-cardinality custName.
std::pair<std::string, std::string> PerCustomer(const std::string& f,
                                                const Params& p) {
  return {StrCat("SELECT custName, sumRevenue AS r, orderCount AS c FROM ", f,
                 " GROUP BY custName ORDER BY custName", Limit(p)),
          StrCat("SELECT custName, SUM(revenue) AS r, COUNT(*) AS c "
                 "FROM Orders GROUP BY custName ORDER BY custName",
                 Limit(p))};
}

// Listing 9: join with Customers at the customer grain (VISIBLE), against
// a DISTINCT dedup.
std::pair<std::string, std::string> CustomerGrain(const std::string&,
                                                  const Params& p) {
  return {StrCat("SELECT o.prodName, c.avgAge AT (VISIBLE) AS age, "
                 "AGGREGATE(c.custCount) AS n "
                 "FROM Orders AS o JOIN EC AS c USING (custName) "
                 "WHERE o.prodName IN (", p.products,
                 ") GROUP BY o.prodName ORDER BY o.prodName", Limit(p)),
          StrCat("SELECT d.prodName, AVG(c.custAge) AS age, COUNT(*) AS n "
                 "FROM (SELECT DISTINCT prodName, custName FROM Orders "
                 "WHERE prodName IN (", p.products, ")) AS d "
                 "JOIN Customers AS c ON d.custName = c.custName "
                 "GROUP BY d.prodName ORDER BY d.prodName", Limit(p))};
}

// A year-filtered AGGREGATE.
std::pair<std::string, std::string> YearFiltered(const std::string& f,
                                                 const Params& p) {
  return {StrCat("SELECT prodName, AGGREGATE(sumRevenue) AS r, "
                 "AGGREGATE(margin) AS m FROM ", f, " WHERE orderYear = ",
                 p.year, " GROUP BY prodName ORDER BY prodName", Limit(p)),
          StrCat("SELECT prodName, SUM(revenue) AS r, (SUM(revenue) - "
                 "SUM(cost)) * 1.0 / SUM(revenue) AS m FROM Orders "
                 "WHERE YEAR(orderDate) = ", p.year,
                 " GROUP BY prodName ORDER BY prodName", Limit(p))};
}

// A KPI strip: one row, no GROUP BY.
std::pair<std::string, std::string> KpiStrip(const std::string& f,
                                             const Params& p) {
  return {StrCat("SELECT AGGREGATE(sumRevenue) AS r, AGGREGATE(orderCount) "
                 "AS c, AGGREGATE(margin) AS m FROM ", f,
                 " WHERE orderYear = ", p.year, " AND prodName IN (",
                 p.products, ")", Limit(p)),
          StrCat("SELECT SUM(revenue) AS r, COUNT(*) AS c, (SUM(revenue) - "
                 "SUM(cost)) * 1.0 / SUM(revenue) AS m FROM Orders "
                 "WHERE YEAR(orderDate) = ", p.year, " AND prodName IN (",
                 p.products, ")", Limit(p))};
}

struct Template {
  const char* name;
  Render render;
  int first_year;     // YoY needs a previous year inside the data
  bool limited;       // takes a LIMIT parameter
  bool per_customer;  // LIMIT scales with customers, not products
};

const Template kFamily[kTemplates] = {
    {"margin_per_product", MarginPerProduct, kFirstYear, true, false},
    {"share_of_year", ShareOfYear, kFirstYear, true, false},
    {"year_over_year", YearOverYear, kFirstYear + 1, true, false},
    {"rollup", Rollup, kFirstYear, false, false},
    {"per_customer", PerCustomer, kFirstYear, true, true},
    {"customer_grain", CustomerGrain, kFirstYear, false, false},
    {"year_filtered", YearFiltered, kFirstYear, true, false},
    {"kpi_strip", KpiStrip, kFirstYear, false, false},
};

}  // namespace

const char* TemplateName(int tmpl) { return kFamily[tmpl].name; }

Dataset GenerateData(uint64_t seed, const Sizes& sizes) {
  Rng rng(seed);
  Dataset data;
  data.orders = MakeOrders(&rng, sizes.orders, sizes);
  data.orders_revenue = SumRevenue(data.orders);
  for (int i = 0; i < sizes.customers; ++i) {
    data.customers.push_back({Value::String(StrCat("C", i)),
                              Value::Int(rng.Uniform(16, 80)),
                              Value::String(i % 3 == 0 ? "retail" : "pro")});
  }
  const std::vector<Row> added =
      MakeOrders(&rng, sizes.batches * sizes.batch_rows, sizes);
  for (int b = 0; b < sizes.batches; ++b) {
    const auto first = added.begin() + b * sizes.batch_rows;
    data.new_orders.emplace_back(first, first + sizes.batch_rows);
    data.batch_revenue.push_back(SumRevenue(data.new_orders.back()));
  }
  return data;
}

std::vector<std::string> SchemaDdl() {
  return {
      "CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR, "
      "orderDate DATE, revenue INTEGER, cost INTEGER)",
      "CREATE TABLE Customers (custName VARCHAR, custAge INTEGER, "
      "segment VARCHAR)",
  };
}

std::vector<std::string> ViewDdl(int view_stack) {
  std::vector<std::string> ddl = {
      "CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE sumRevenue, "
      "(SUM(revenue) - SUM(cost)) * 1.0 / SUM(revenue) AS MEASURE margin, "
      "COUNT(*) AS MEASURE orderCount, YEAR(orderDate) AS orderYear "
      "FROM Orders",
      "CREATE VIEW EC AS SELECT *, AVG(custAge) AS MEASURE avgAge, "
      "COUNT(*) AS MEASURE custCount FROM Customers",
  };
  for (int level = 1; level <= view_stack; ++level) {
    ddl.push_back(StrCat("CREATE VIEW L", level, " AS SELECT * FROM ",
                         level == 1 ? std::string("EO") : StrCat("L", level - 1)));
  }
  return ddl;
}

std::vector<Pair> MakePairs(uint64_t seed, int variants, const Sizes& sizes,
                            const std::string& fact_view, bool with_limit) {
  Rng rng(seed ^ 0x7E3Dull);
  const double kLimitShares[4] = {0.1, 0.25, 0.5, 1.0};
  const int subset = std::max(1, sizes.products / 20);
  std::vector<int> all_products(static_cast<size_t>(sizes.products));
  for (int i = 0; i < sizes.products; ++i) all_products[i] = i;

  std::vector<Pair> pairs;
  // Per-template rotations: every seed uses the same four LIMIT shares and
  // cycles through the years, starting at a different variant.
  int year_offset[kTemplates], limit_offset[kTemplates];
  for (int t = 0; t < kTemplates; ++t) {
    year_offset[t] = static_cast<int>(rng.Uniform(0, 2));
    limit_offset[t] = static_cast<int>(rng.Uniform(0, 3));
  }
  for (int v = 0; v < variants; ++v) {
    for (int t = 0; t < kTemplates; ++t) {
      const Template& tmpl = kFamily[t];
      Params p;
      const int years = kLastYear - tmpl.first_year + 1;
      p.year = tmpl.first_year + (v + year_offset[t]) % years;
      rng.Shuffle(&all_products);
      for (int i = 0; i < subset; ++i) {
        p.products += StrCat(i > 0 ? ", " : "", "'P", all_products[i], "'");
      }
      if (with_limit && tmpl.limited) {
        const int groups = tmpl.per_customer ? sizes.customers : sizes.products;
        p.limit = std::max(
            1, static_cast<int>(groups * kLimitShares[(v + limit_offset[t]) % 4]));
      }
      auto [measure, plain] = tmpl.render(fact_view, p);
      pairs.push_back({{std::move(measure), t, true}, {std::move(plain), t, false}});
    }
  }
  return pairs;
}

}  // namespace msql::e2e
