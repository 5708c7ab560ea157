#include "testing/oracle.h"

#include <iterator>
#include <memory>

#include "common/string_util.h"
#include "engine/engine.h"

namespace msql {
namespace testing {

namespace {

struct Leg {
  const char* name;
  MeasureStrategy strategy;
  int parallelism;
  ExecMode exec_mode;
};

struct QueryRun {
  Status status;
  ResultSet rs;
};

// Runs setup + one query on a fresh engine with the given options, so no
// cross-query or cross-strategy cache state can mask a divergence.
QueryRun RunOn(const EngineOptions& options,
               const std::vector<std::string>& setup,
               const std::string& query, Status* setup_error) {
  QueryRun run;
  Engine db(options);
  for (const auto& stmt : setup) {
    Status st = db.Execute(stmt);
    if (!st.ok()) {
      if (setup_error != nullptr) *setup_error = st;
      run.status = st;
      return run;
    }
  }
  auto result = db.Query(query);
  run.status = result.status();
  if (result.ok()) run.rs = result.take();
  return run;
}

Value CombineTlp(const std::string& agg, const std::vector<Value>& parts) {
  if (agg == "COUNT") {
    int64_t total = 0;
    for (const auto& p : parts) {
      if (!p.is_null()) total += p.int_val();
    }
    return Value::Int(total);
  }
  if (agg == "SUM") {
    bool any = false, any_double = false;
    int64_t isum = 0;
    double dsum = 0;
    for (const auto& p : parts) {
      if (p.is_null()) continue;
      any = true;
      if (p.kind() == TypeKind::kDouble) any_double = true;
      if (p.kind() == TypeKind::kInt64) isum += p.int_val();
      dsum += p.AsDouble();
    }
    if (!any) return Value::Null();
    return any_double ? Value::Double(dsum) : Value::Int(isum);
  }
  // MIN / MAX: fold with the engine's total order.
  Value best;
  for (const auto& p : parts) {
    if (p.is_null()) continue;
    if (best.is_null()) {
      best = p;
    } else if (agg == "MIN" ? Value::Compare(p, best) < 0
                            : Value::Compare(p, best) > 0) {
      best = p;
    }
  }
  return best;
}

}  // namespace

CaseOutcome RunCase(const CaseSpec& spec, const OracleOptions& options) {
  CaseOutcome outcome;
  const std::vector<std::string> setup = spec.SetupStatements();

  const int workers = options.measure_workers > 1 ? options.measure_workers : 4;
  // Full strategy matrix under both execution modes, 6 legs. The base leg
  // is the naive strategy on the row-at-a-time interpreter — the literal
  // evaluation — so every optimization (plan rewrite, memoization, value
  // tables, the inline fast path, parallelism, vectorized kernels) is
  // differentially checked against it bit for bit.
  const Leg legs[] = {
      {"naive-row", MeasureStrategy::kNaive, 1, ExecMode::kRow},
      {"naive-vec", MeasureStrategy::kNaive, 1, ExecMode::kVectorized},
      {"grouped-row", MeasureStrategy::kGrouped, 1, ExecMode::kRow},
      {"grouped-vec", MeasureStrategy::kGrouped, 1, ExecMode::kVectorized},
      {"grouped-parallel-row", MeasureStrategy::kGrouped, workers,
       ExecMode::kRow},
      {"grouped-parallel-vec", MeasureStrategy::kGrouped, workers,
       ExecMode::kVectorized},
  };
  // The metamorphic relations are checked on the default engine config:
  // the first (serial) leg with the default strategy and exec mode.
  const EngineOptions defaults;
  size_t default_leg = 0;
  while (legs[default_leg].strategy != defaults.measure_strategy ||
         legs[default_leg].exec_mode != defaults.exec_mode) {
    ++default_leg;
  }

  for (size_t ci = 0; ci < spec.checks.size(); ++ci) {
    const Check& check = spec.checks[ci];
    auto fail = [&](std::string detail) {
      outcome.failures.push_back(
          {ci, check.label.empty() ? CheckKindName(check.kind) : check.label,
           std::move(detail)});
    };

    // Results of each query on the default engine config, for the
    // metamorphic relations below.
    std::vector<QueryRun> reference;
    bool differential_failed = false;

    for (const auto& query : check.queries) {
      ++outcome.queries_run;
      std::vector<QueryRun> runs;
      for (const Leg& leg : legs) {
        EngineOptions eopts;
        eopts.measure_strategy = leg.strategy;
        eopts.measure_parallelism = leg.parallelism;
        eopts.exec_mode = leg.exec_mode;
        Status setup_error;
        runs.push_back(RunOn(eopts, setup, query, &setup_error));
        if (!setup_error.ok()) {
          outcome.setup_failed = true;
          fail(StrCat("setup failed on leg ", leg.name, ": ",
                      setup_error.ToString()));
          return outcome;
        }
      }
      reference.push_back(runs[default_leg]);

      const QueryRun& base = runs[0];
      for (size_t li = 1; li < std::size(legs); ++li) {
        const QueryRun& other = runs[li];
        if (base.status.ok() != other.status.ok()) {
          fail(StrCat(legs[0].name, " vs ", legs[li].name, ": ",
                      base.status.ok() ? "ok" : base.status.ToString(), " vs ",
                      other.status.ok() ? "ok" : other.status.ToString(),
                      "\n  query: ", query));
          differential_failed = true;
          continue;
        }
        if (!base.status.ok()) {
          if (base.status.code() != other.status.code()) {
            fail(StrCat(legs[0].name, " vs ", legs[li].name,
                        ": different error codes: ", base.status.ToString(),
                        " vs ", other.status.ToString(), "\n  query: ", query));
            differential_failed = true;
          }
          continue;
        }
        if (auto diff = DiffResults(base.rs, other.rs, options.compare)) {
          fail(StrCat(legs[0].name, " vs ", legs[li].name, ": ", *diff,
                      "\n  query: ", query));
          differential_failed = true;
        }
      }

      // Expansion leg: rewrite to plain SQL, then execute on a fresh engine.
      if (options.include_expansion && base.status.ok()) {
        EngineOptions eopts;
        Engine db(eopts);
        bool setup_ok = true;
        for (const auto& stmt : setup) {
          if (!db.Execute(stmt).ok()) setup_ok = false;
        }
        if (setup_ok) {
          auto expanded = db.ExpandSql(query);
          if (!expanded.ok()) {
            if (expanded.status().code() == ErrorCode::kNotImplemented) {
              ++outcome.expansion_skips;  // joins / composition: unsupported
            } else {
              fail(StrCat("expansion rewrite failed: ",
                          expanded.status().ToString(), "\n  query: ", query));
              differential_failed = true;
            }
          } else {
            auto plain = db.Query(expanded.value());
            if (!plain.ok()) {
              fail(StrCat("expanded SQL failed to execute: ",
                          plain.status().ToString(), "\n  query: ", query,
                          "\n  expanded: ", expanded.value()));
              differential_failed = true;
            } else if (auto diff =
                           DiffResults(base.rs, plain.value(), options.compare)) {
              fail(StrCat(legs[0].name, " vs expansion: ", *diff,
                          "\n  query: ", query,
                          "\n  expanded: ", expanded.value()));
              differential_failed = true;
            }
          }
        }
      }
    }

    if (differential_failed) continue;  // relation would double-report

    if (check.kind == CheckKind::kEqualPair && check.queries.size() == 2) {
      const QueryRun& a = reference[0];
      const QueryRun& b = reference[1];
      if (!a.status.ok() || !b.status.ok()) {
        fail(StrCat("equal-pair query failed: ",
                    (!a.status.ok() ? a.status : b.status).ToString(),
                    "\n  query: ",
                    !a.status.ok() ? check.queries[0] : check.queries[1]));
      } else if (auto diff = DiffResults(a.rs, b.rs, options.compare)) {
        fail(StrCat("metamorphic pair disagrees: ", *diff, "\n  query A: ",
                    check.queries[0], "\n  query B: ", check.queries[1]));
      }
    } else if (check.kind == CheckKind::kTlp && check.queries.size() == 4) {
      bool all_ok = true;
      for (const auto& r : reference) all_ok = all_ok && r.status.ok();
      if (!all_ok) {
        for (size_t i = 0; i < reference.size(); ++i) {
          if (!reference[i].status.ok()) {
            fail(StrCat("tlp query failed: ", reference[i].status.ToString(),
                        "\n  query: ", check.queries[i]));
            break;
          }
        }
      } else {
        Value total = reference[0].rs.Get(0, 0);
        Value combined = CombineTlp(
            check.agg, {reference[1].rs.Get(0, 0), reference[2].rs.Get(0, 0),
                        reference[3].rs.Get(0, 0)});
        if (!ValuesAgree(total, combined, options.compare)) {
          fail(StrCat("tlp partitions do not recombine: total ",
                      total.ToString(), " vs parts ", combined.ToString(),
                      " (", reference[1].rs.Get(0, 0).ToString(), " / ",
                      reference[2].rs.Get(0, 0).ToString(), " / ",
                      reference[3].rs.Get(0, 0).ToString(), ")",
                      "\n  total query: ", check.queries[0]));
        }
      }
    }
  }
  return outcome;
}

}  // namespace testing
}  // namespace msql
