#include "testing/generator.h"

#include <iterator>

#include "common/string_util.h"
#include "testing/rng.h"

namespace msql {
namespace testing {

namespace {

struct MeasureDef {
  std::string name;
  std::string agg;  // SUM / COUNT / MIN / MAX / AVG
  std::string arg;  // "" for COUNT(*)
};

// Everything the query generator needs to know about the schema it built.
struct SchemaInfo {
  bool has_d2 = false;    // DATE dimension on the fact table
  bool has_v1 = false;    // DOUBLE value column
  bool has_y2 = false;    // derived YEAR(d2) dimension in the view
  bool has_join = false;  // dim table t1(d0, attr) exists
  bool has_level2 = false;  // view V1 over V0, measure n0 composing m0
  bool has_r0 = false;    // derived r0 in the view that can raise
  bool empty_fact = false;  // t0 has no rows
  int d0_domain = 3;      // 'A'.. up to 'E'
  int d1_domain = 3;      // 0 .. d1_domain
  std::vector<MeasureDef> measures;
  std::vector<std::string> dims;  // group-able dims exposed by the view
};

const char* kDates[] = {"DATE '2023-01-15'", "DATE '2023-06-01'",
                        "DATE '2024-02-29'", "DATE '2024-12-31'"};
// 0.0 and -0.0 are one group key (IS NOT DISTINCT FROM) but differ bitwise.
const char* kDoubles[] = {"0.5",   "1.5",        "-2.25", "0.125", "1000.25",
                          "-0.75", "123456.789", "1e100", "0.0",   "-0.0"};
const char* kExtremeInts[] = {"1099511627776", "-1099511627776", "2147483647",
                              "-2147483648"};

class Generator {
 public:
  Generator(uint64_t seed, const GeneratorOptions& opts)
      : rng_(seed), opts_(opts) {}

  CaseSpec Generate(uint64_t seed) {
    CaseSpec spec;
    spec.seed = seed;
    BuildSchema(&spec);
    for (int i = 0; i < opts_.num_queries; ++i) {
      Check c;
      c.kind = CheckKind::kDifferential;
      c.label = StrCat("q", i);
      c.queries.push_back(
          i == 0 && info_.empty_fact        ? GenScalarAggQuery()
          : rng_.Chance(20)                 ? GenRowGroupingQuery()
          : info_.has_y2 && rng_.Chance(25) ? GenYearFilteredQuery()
                                            : GenQuery());
      spec.checks.push_back(std::move(c));
    }
    // The metamorphic checks compare answers, and r0 can make every query
    // over the view raise.
    if (opts_.metamorphic && !info_.has_r0) {
      AddVisiblePair(&spec);
      AddTlp(&spec);
      AddAllSetRoundtrip(&spec);
    }
    return spec;
  }

 private:
  // ---- literals -----------------------------------------------------------

  std::string D0Lit(bool allow_null = true) {
    if (allow_null && rng_.Chance(25)) return "NULL";
    if (rng_.Chance(4)) return "'it''s'";  // exercises quote escaping
    return StrCat("'", static_cast<char>('A' + rng_.Range(0, info_.d0_domain)),
                  "'");
  }
  std::string D1Lit(bool allow_null = true) {
    if (allow_null && rng_.Chance(25)) return "NULL";
    return StrCat(rng_.Range(0, info_.d1_domain));
  }
  std::string D2Lit(bool allow_null = true) {
    if (allow_null && rng_.Chance(25)) return "NULL";
    return kDates[rng_.Range(0, 3)];
  }
  std::string V0Lit() {
    if (rng_.Chance(15)) return "NULL";
    if (rng_.Chance(10)) return kExtremeInts[rng_.Range(0, 3)];
    return StrCat(rng_.Range(-100, 100));
  }
  std::string V1Lit() {
    if (rng_.Chance(15)) return "NULL";
    return kDoubles[rng_.Range(0, std::size(kDoubles) - 1)];
  }

  // ---- schema -------------------------------------------------------------

  void BuildSchema(CaseSpec* spec) {
    info_.d0_domain = static_cast<int>(rng_.Range(1, 4));
    info_.d1_domain = static_cast<int>(rng_.Range(1, 4));
    info_.has_d2 = rng_.Chance(60);
    info_.has_v1 = rng_.Chance(60);
    info_.has_join = rng_.Chance(40);

    TableSpec fact;
    fact.name = "t0";
    fact.columns.push_back({"d0", "VARCHAR"});
    fact.columns.push_back({"d1", "INTEGER"});
    if (info_.has_d2) fact.columns.push_back({"d2", "DATE"});
    fact.columns.push_back({"v0", "INTEGER"});
    if (info_.has_v1) fact.columns.push_back({"v1", "DOUBLE"});

    int n = rng_.Chance(8) ? 0 : static_cast<int>(rng_.Range(1, opts_.max_rows));
    info_.empty_fact = n == 0;
    for (int i = 0; i < n; ++i) {
      if (!fact.rows.empty() && rng_.Chance(15)) {
        // Exact duplicate row: duplicate dimension tuples must group and
        // probe identically on every path.
        fact.rows.push_back(fact.rows[static_cast<size_t>(
            rng_.Range(0, fact.rows.size() - 1))]);
        continue;
      }
      std::vector<std::string> row;
      row.push_back(D0Lit());
      row.push_back(D1Lit());
      if (info_.has_d2) row.push_back(D2Lit());
      row.push_back(V0Lit());
      if (info_.has_v1) row.push_back(V1Lit());
      fact.rows.push_back(std::move(row));
    }
    spec->tables.push_back(std::move(fact));

    if (info_.has_join) {
      TableSpec dim;
      dim.name = "t1";
      dim.columns.push_back({"d0", "VARCHAR"});
      dim.columns.push_back({"attr", "INTEGER"});
      int dn = static_cast<int>(rng_.Range(0, info_.d0_domain + 3));
      for (int i = 0; i < dn; ++i) {
        // Keys drawn from the fact domain plus NULLs and an unmatched
        // straggler; duplicate keys make the join fan out.
        std::string key = rng_.Chance(12) ? "'ZZ'" : D0Lit();
        dim.rows.push_back({key, D1Lit(false)});
      }
      spec->tables.push_back(std::move(dim));
    }

    // Measure view over the fact table.
    int nm = static_cast<int>(rng_.Range(1, 3));
    std::vector<std::string> defs;
    for (int i = 0; i < nm; ++i) {
      MeasureDef m;
      m.name = StrCat("m", i);
      m.agg = rng_.PickStr({"SUM", "COUNT", "MIN", "MAX", "AVG"});
      if (m.agg == "COUNT" && rng_.Chance(50)) {
        m.arg = "*";
      } else {
        m.arg = info_.has_v1 && rng_.Chance(35) ? "v1" : "v0";
        if (m.agg == "SUM" && rng_.Chance(20)) m.arg = "v0 + v0";
      }
      defs.push_back(StrCat(m.agg, "(", m.arg, ") AS MEASURE ", m.name));
      info_.measures.push_back(std::move(m));
    }
    info_.has_y2 = info_.has_d2 && rng_.Chance(50);
    std::string view = "CREATE VIEW V0 AS SELECT *, " + Join(defs, ", ");
    if (info_.has_y2) view += ", YEAR(d2) AS y2";
    // A derived column that divides by zero on the rows whose v0 is k: the
    // view then raises for every query over it, whatever the WHERE keeps,
    // so no filter may move into its Project.
    info_.has_r0 = rng_.Chance(6);
    if (info_.has_r0) {
      std::string k = StrCat(rng_.Range(-100, 100));
      if (!spec->tables[0].rows.empty() && rng_.Chance(70)) {
        const auto& row = rng_.Pick(spec->tables[0].rows);
        const std::string& v0 = row[info_.has_d2 ? 3 : 2];
        if (v0 != "NULL") k = v0;
      }
      view += StrCat(", 100 / (v0 - ", k, ") AS r0");
    }
    view += " FROM t0";
    spec->setup.push_back(std::move(view));

    // Paper section 5.4 composition: a measure whose formula references a
    // measure of its input view.
    info_.has_level2 = rng_.Chance(30);
    if (info_.has_level2) {
      spec->setup.push_back(
          "CREATE VIEW V1 AS SELECT *, m0 - SUM(v0) AS MEASURE n0 FROM V0");
    }

    info_.dims = {"d0", "d1"};
    if (info_.has_d2) info_.dims.push_back("d2");
    if (info_.has_y2) info_.dims.push_back("y2");
  }

  // ---- predicates ---------------------------------------------------------

  std::string DimLitFor(const std::string& dim) {
    if (dim == "d0") return D0Lit(false);
    if (dim == "d1") return D1Lit(false);
    if (dim == "d2") return D2Lit(false);
    return StrCat(rng_.Range(2022, 2025));  // y2
  }

  // `d0 [NOT] IN (...)` over string literals, NULL items included, so every
  // oracle leg checks the IN kernel's three-valued logic against the row
  // path: a NULL item that nothing matches makes the test NULL, not FALSE.
  std::string D0InList(const std::string& q) {
    std::vector<std::string> items;
    const int64_t k = rng_.Range(1, 3);
    for (int64_t i = 0; i < k; ++i) items.push_back(D0Lit());
    return StrCat(q, "d0 ", rng_.Chance(40) ? "NOT IN (" : "IN (",
                  Join(items, ", "), ")");
  }

  // `y2 = k`, `y2 >= k` or `y2 IN (...)` over the view's derived YEAR(d2).
  std::string Y2Atom(const std::string& q) {
    switch (rng_.Range(0, 2)) {
      case 0: return StrCat(q, "y2 = ", DimLitFor("y2"));
      case 1: return StrCat(q, "y2 >= ", DimLitFor("y2"));
      default:
        return StrCat(q, "y2 IN (", DimLitFor("y2"), ", ", DimLitFor("y2"),
                      ")");
    }
  }

  // `over_view`: the atom filters a query over V0 or V1, so it may read the
  // view's derived y2 (AT WHERE predicates and plain queries read t0).
  std::string PredAtom(const std::string& q, bool over_view) {
    if (over_view && info_.has_y2 && rng_.Chance(25)) return Y2Atom(q);
    switch (rng_.Range(0, 7)) {
      case 0: return StrCat(q, "d0 = ", D0Lit(false));
      case 1: return StrCat(q, "d0 <> 'A'");
      case 2: return StrCat(q, "d0 IS NULL");
      case 3: return StrCat(q, "d1 >= ", D1Lit(false));
      case 4: return StrCat(q, "d1 IN (", rng_.Range(0, 2), ", ",
                            rng_.Range(2, 4), ")");
      case 5: return StrCat(q, "v0 > ", rng_.Range(-50, 50));
      case 6: return D0InList(q);
      default:
        if (info_.has_d2 && rng_.Chance(50)) {
          return StrCat(q, "d2 >= ", kDates[rng_.Range(0, 3)]);
        }
        return StrCat(q, "v0 <= ", rng_.Range(-20, 80));
    }
  }

  std::string Pred(const std::string& q = "", bool over_view = false) {
    std::string p = PredAtom(q, over_view);
    if (rng_.Chance(35)) {
      p = StrCat(p, rng_.Chance(50) ? " AND " : " OR ",
                 PredAtom(q, over_view));
    }
    if (rng_.Chance(15)) p = "NOT (" + p + ")";
    return p;
  }

  // An atom over the dim table `c` of a join query; under a LEFT join its
  // columns are NULL on padded rows.
  std::string DimTableAtom() {
    switch (rng_.Range(0, 3)) {
      case 0: return StrCat("c.attr >= ", D1Lit(false));
      case 1: return "c.d0 IS NULL";
      case 2: return "c.attr IS NULL";
      default: return StrCat("c.d0 = ", D0Lit(false));
    }
  }

  // WHERE of a join query. Besides fact-side predicates it mixes in dim
  // table atoms, AND-ed conjunctions of both sides, an OR across the sides
  // (which must stay above the join), and an atom that can raise: division
  // by zero on a fact row the join drops must not become an error.
  std::string JoinPred() {
    switch (rng_.Range(0, 5)) {
      case 0: return Pred("o.", true);
      case 1: return DimTableAtom();
      case 2: return StrCat(PredAtom("o.", true), " AND ", DimTableAtom());
      case 3: return StrCat(PredAtom("o.", true), " OR ", DimTableAtom());
      case 4: return "100 / o.v0 > 1";
      default:
        return StrCat(DimTableAtom(), " AND ", PredAtom("o.", true),
                      rng_.Chance(50) ? " AND 100 / o.v0 > 1" : "");
    }
  }

  // ---- AT modifiers -------------------------------------------------------

  // `q` prefixes every dimension reference ("o." in join queries);
  // `group_dims` are the dims of the surrounding GROUP BY (CURRENT is only
  // generated for those).
  std::string AtModifiers(const std::string& q,
                          const std::vector<std::string>& group_dims) {
    int count = rng_.Chance(25) ? 2 : 1;
    std::vector<std::string> mods;
    for (int i = 0; i < count; ++i) {
      switch (rng_.Range(0, 4)) {
        case 0:
          mods.push_back("ALL");
          break;
        case 1: {
          std::string m = "ALL";
          int nd = static_cast<int>(rng_.Range(1, 2));
          for (int d = 0; d < nd; ++d) {
            m += " " + q + rng_.Pick(info_.dims);
          }
          mods.push_back(std::move(m));
          break;
        }
        case 2: {
          std::string dim = rng_.Pick(info_.dims);
          bool in_group = false;
          for (const auto& g : group_dims) in_group = in_group || g == dim;
          std::string value;
          if (in_group && rng_.Chance(60)) {
            value = "CURRENT " + dim;
            if (dim == "d1" && rng_.Chance(50)) value += " - 1";
            if (dim == "y2" && rng_.Chance(50)) value += " - 1";
          } else {
            value = DimLitFor(dim);
          }
          mods.push_back(StrCat("SET ", q, dim, " = ", value));
          break;
        }
        case 3:
          mods.push_back("VISIBLE");
          break;
        default:
          mods.push_back("WHERE " + Pred(q));
          break;
      }
    }
    return Join(mods, " ");
  }

  // ---- queries ------------------------------------------------------------

  std::string MeasureItem(const std::string& q, const std::string& m,
                          const std::vector<std::string>& group_dims,
                          int alias_no) {
    std::string expr;
    switch (rng_.Range(0, 4)) {
      case 0:
        expr = StrCat("AGGREGATE(", q, m, ")");
        break;
      case 1:
        expr = q + m;
        break;
      case 2:
        expr = StrCat(q, m, " AT (", AtModifiers(q, group_dims), ")");
        break;
      case 3:
        expr = StrCat(q, m, " - ", q, m, " AT (", AtModifiers(q, group_dims),
                      ")");
        break;
      default: {
        // VISIBLE beside SET of a group key: only VISIBLE alone may drop
        // the call site's group-key terms (the inline fast path), and here
        // CURRENT reads them.
        std::string mods = "VISIBLE";
        if (!group_dims.empty()) {
          const std::string& dim = rng_.Pick(group_dims);
          const std::string set = StrCat("SET ", q, dim, " = CURRENT ", dim);
          mods = rng_.Chance(50) ? set + " VISIBLE" : "VISIBLE " + set;
        }
        expr = StrCat(q, m, " AT (", mods, ")");
        break;
      }
    }
    return StrCat(expr, " AS x", alias_no);
  }

  // A differential query over the measure view (sometimes over the
  // second-level view, joined to the dim table, or over an inline measure
  // provider).
  std::string GenQuery() {
    bool join = info_.has_join && rng_.Chance(30);
    bool inline_provider = !join && rng_.Chance(15);

    std::string from;
    std::string q;  // qualifier for fact/view columns
    std::vector<std::string> measures;
    if (join) {
      from = rng_.Chance(30) ? "V0 AS o LEFT JOIN t1 AS c ON o.d0 = c.d0"
                             : "V0 AS o JOIN t1 AS c ON o.d0 = c.d0";
      q = "o.";
      for (const auto& m : info_.measures) measures.push_back(m.name);
    } else if (inline_provider) {
      from = "(SELECT *, SUM(v0) AS MEASURE q0, COUNT(*) AS MEASURE q1 "
             "FROM t0) AS s";
      measures = {"q0", "q1"};
    } else {
      const bool level2 = info_.has_level2 && rng_.Chance(40);
      from = level2 ? "V1" : "V0";
      if (level2) measures.push_back("n0");
      for (const auto& m : info_.measures) measures.push_back(m.name);
    }

    // Group dims: a subset of the view dims (joined queries may also group
    // by the dim-table attribute).
    std::vector<std::string> group_dims;
    std::vector<std::string> group_exprs;
    int ng = static_cast<int>(rng_.Range(0, 2));
    for (int i = 0; i < ng; ++i) {
      std::string dim = rng_.Pick(info_.dims);
      if (inline_provider && (dim == "y2")) dim = "d0";
      bool dup = false;
      for (const auto& g : group_dims) dup = dup || g == dim;
      if (dup) continue;
      group_dims.push_back(dim);
      group_exprs.push_back(q + dim);
    }
    if (join && rng_.Chance(40)) {
      group_exprs.push_back("c.attr");
    }
    // A DOUBLE key (0.0 and -0.0 must share a group) or a BOOL expression
    // key beside the dims: the two key kinds grouping treats apart.
    if (!group_exprs.empty() && rng_.Chance(10)) {
      group_exprs.push_back(info_.has_v1 && rng_.Chance(50) ? q + "v1"
                                                           : q + "v0 > 0");
    }

    std::vector<std::string> items = group_exprs;
    int nm = static_cast<int>(rng_.Range(1, 3));
    for (int i = 0; i < nm; ++i) {
      items.push_back(
          MeasureItem(q, rng_.Pick(measures), group_dims, i));
    }
    // A correlated scalar subquery keyed on a d0/d1 group key of `o`: the
    // key repeats across the rows it is evaluated for and may be NULL, so
    // memoized and fresh evaluation must agree on both.
    std::vector<std::string> keys;
    for (const auto& g : group_dims) {
      if (g == "d0" || g == "d1") keys.push_back(g);
    }
    if (!inline_provider && !keys.empty() && rng_.Chance(15)) {
      const std::string& key = rng_.Pick(keys);
      items.push_back(StrCat("(SELECT ",
                             rng_.Chance(50) ? "SUM(b.v0)" : "COUNT(*)",
                             " FROM t0 AS b WHERE b.", key, " = o.", key,
                             ") AS s0"));
      if (!join) from += " AS o";
    }

    std::string sql = "SELECT " + Join(items, ", ") + " FROM " + from;
    if (join) {
      if (rng_.Chance(50)) sql += " WHERE " + JoinPred();
    } else if (rng_.Chance(50)) {
      // Now and then beside an atom that divides by zero where v0 = 0: no
      // conjunct may then move, or a dropped row could hide the error.
      sql += " WHERE " + Pred(q, !inline_provider);
      if (rng_.Chance(15)) sql += StrCat(" AND 100 / ", q, "v0 > 1");
    }
    if (!group_exprs.empty()) sql += " GROUP BY " + Join(group_exprs, ", ");
    if (!group_exprs.empty() && rng_.Chance(15)) {
      sql += StrCat(" HAVING AGGREGATE(", q, measures[0], ")",
                    rng_.Chance(50) ? " IS NOT NULL"
                                    : StrCat(" > ", rng_.Range(-20, 20)));
    }
    if (!group_exprs.empty() && rng_.Chance(30)) {
      std::vector<std::string> obs;
      for (const auto& g : group_exprs) obs.push_back(g + " NULLS LAST");
      sql += " ORDER BY " + Join(obs, ", ");
    }
    return sql;
  }

  // A filter on the view's derived y2 beside the contexts that must still
  // read the rows it removes: AT (ALL) and SET reopen them, VISIBLE and the
  // bare measure keep to the WHERE. Without GROUP BY every reference is per
  // row (row grain): VISIBLE reads the row's own source row through its
  // hidden row id.
  std::string GenYearFilteredQuery() {
    const bool level2 = info_.has_level2 && rng_.Chance(30);
    std::vector<std::string> measures;
    if (level2) measures.push_back("n0");
    for (const auto& m : info_.measures) measures.push_back(m.name);
    const bool grouped = rng_.Chance(60);
    std::vector<std::string> dims;
    if (grouped) {
      dims.push_back("y2");
      if (rng_.Chance(50)) dims.push_back(rng_.Chance(50) ? "d0" : "d1");
    } else {
      dims = {"d0", "y2"};
      if (rng_.Chance(50)) dims.push_back("d2");
    }
    std::vector<std::string> items = dims;
    const std::string set_value = grouped && rng_.Chance(60)
                                      ? "CURRENT y2 - 1"
                                      : DimLitFor("y2");
    const std::vector<std::string> contexts = {
        " AT (ALL)", " AT (SET y2 = " + set_value + ")", " AT (VISIBLE)",
        " AT (ALL y2)", ""};
    // AT (ALL) first, then SET or VISIBLE, then any context.
    const int64_t n = rng_.Range(2, 4);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t c = i == 0   ? 0
                        : i == 1 ? rng_.Range(1, 2)
                                 : rng_.Range(0, 4);
      items.push_back(StrCat(rng_.Pick(measures), contexts[c], " AS x", i));
    }
    std::string sql = StrCat("SELECT ", Join(items, ", "), " FROM ",
                             level2 ? "V1" : "V0", " WHERE ", Y2Atom(""));
    if (rng_.Chance(30)) sql += " AND " + PredAtom("", true);
    if (grouped) sql += " GROUP BY " + Join(dims, ", ");
    return sql;
  }

  // Aggregates with no GROUP BY over the empty fact table: one group of
  // no rows, so COUNT reads 0 and every other aggregate NULL.
  std::string GenScalarAggQuery() {
    return StrCat("SELECT COUNT(*) AS c0, SUM(v0) AS c1, MAX(d0) AS c2, "
                  "AGGREGATE(", rng_.Pick(info_.measures).name,
                  ") AS x0 FROM V0",
                  rng_.Chance(50) ? " WHERE " + Pred("", true) : "");
  }

  // A query over t0's base columns through an operator that groups whole
  // rows: SELECT DISTINCT, UNION / EXCEPT / INTERSECT of two SELECTs, or
  // DISTINCT aggregates over the DOUBLE column (0.0 and -0.0 are one
  // value). The row leg groups these by Value tuples, the vectorized one by
  // code tuples where the columns allow.
  std::string GenRowGroupingQuery() {
    std::vector<std::string> base = {"d0", "d1", "v0"};
    if (info_.has_d2) base.push_back("d2");
    if (info_.has_v1) base.push_back("v1");
    std::vector<std::string> cols;
    for (const auto& c : base) {
      if (rng_.Chance(35)) cols.push_back(c);
    }
    if (cols.empty()) cols.push_back(rng_.Pick(base));
    const std::string select = "SELECT " + Join(cols, ", ") + " FROM t0";
    auto where = [&] { return rng_.Chance(50) ? " WHERE " + Pred() : ""; };
    switch (rng_.Range(0, 2)) {
      case 0:
        return StrCat("SELECT DISTINCT", select.substr(6), where());
      case 1: {
        // One draw per statement: argument evaluation order is unspecified.
        const std::string lhs = select + where();
        const std::string op = rng_.PickStr({"UNION", "EXCEPT", "INTERSECT"});
        return StrCat(lhs, " ", op, " ", select, where());
      }
      default: {
        const std::string v = info_.has_v1 ? "v1" : "v0";
        const bool grouped = rng_.Chance(50);
        const bool sum = rng_.Chance(50);
        return StrCat("SELECT ", grouped ? "d0, " : "", "COUNT(DISTINCT ", v,
                      ") AS c0", sum ? StrCat(", SUM(DISTINCT ", v, ") AS c1")
                                     : "",
                      " FROM t0", where(), grouped ? " GROUP BY d0" : "");
      }
    }
  }

  // ---- metamorphic checks -------------------------------------------------

  // Pick 1-2 distinct group dims for a metamorphic query.
  std::vector<std::string> PickGroupDims() {
    std::vector<std::string> dims;
    dims.push_back(rng_.Pick(info_.dims));
    if (rng_.Chance(40)) {
      std::string second = rng_.Pick(info_.dims);
      if (second != dims[0]) dims.push_back(second);
    }
    return dims;
  }

  // Paper section 3.5: AGGREGATE(m) is sugar for EVAL(m AT (VISIBLE)).
  void AddVisiblePair(CaseSpec* spec) {
    const MeasureDef& m = rng_.Pick(info_.measures);
    std::vector<std::string> dims = PickGroupDims();
    std::string where = rng_.Chance(50) ? " WHERE " + Pred("", true) : "";
    std::string tail =
        StrCat(" FROM V0", where, " GROUP BY ", Join(dims, ", "));
    Check c;
    c.kind = CheckKind::kEqualPair;
    c.label = "aggregate-equals-at-visible";
    c.queries.push_back(StrCat("SELECT ", Join(dims, ", "), ", AGGREGATE(",
                               m.name, ") AS x", tail));
    c.queries.push_back(StrCat("SELECT ", Join(dims, ", "), ", ", m.name,
                               " AT (VISIBLE) AS x", tail));
    spec->checks.push_back(std::move(c));
  }

  // TLP (ternary logic partitioning): the grand total must equal the
  // recombination of the three WHERE partitions p / NOT p / p IS NULL.
  void AddTlp(CaseSpec* spec) {
    const MeasureDef* m = nullptr;
    for (const auto& cand : info_.measures) {
      if (cand.agg != "AVG") {
        m = &cand;
        break;
      }
    }
    if (m == nullptr) return;  // AVG does not recombine; skip
    std::string p = Pred("", true);
    std::string head = StrCat("SELECT AGGREGATE(", m->name, ") AS x FROM V0");
    Check c;
    c.kind = CheckKind::kTlp;
    c.agg = m->agg;
    c.label = "tlp-" + m->agg;
    c.queries.push_back(head);
    c.queries.push_back(StrCat(head, " WHERE ", p));
    c.queries.push_back(StrCat(head, " WHERE NOT (", p, ")"));
    c.queries.push_back(StrCat(head, " WHERE (", p, ") IS NULL"));
    spec->checks.push_back(std::move(c));
  }

  // AT (ALL d) reopens dimension d, SET d = CURRENT d pins it back to the
  // group's value: the round trip must be the identity.
  void AddAllSetRoundtrip(CaseSpec* spec) {
    const MeasureDef& m = rng_.Pick(info_.measures);
    std::vector<std::string> dims = PickGroupDims();
    const std::string& d = dims[0];
    std::string tail = StrCat(" FROM V0 GROUP BY ", Join(dims, ", "));
    Check c;
    c.kind = CheckKind::kEqualPair;
    c.label = "all-set-roundtrip";
    c.queries.push_back(
        StrCat("SELECT ", Join(dims, ", "), ", ", m.name, " AS x", tail));
    c.queries.push_back(StrCat("SELECT ", Join(dims, ", "), ", ", m.name,
                               " AT (ALL ", d, " SET ", d, " = CURRENT ", d,
                               ") AS x", tail));
    spec->checks.push_back(std::move(c));
  }

  Rng rng_;
  GeneratorOptions opts_;
  SchemaInfo info_;
};

}  // namespace

CaseSpec GenerateCase(uint64_t seed, const GeneratorOptions& options) {
  Generator gen(seed, options);
  return gen.Generate(seed);
}

}  // namespace testing
}  // namespace msql
