#include "testing/oracle.h"

#include <memory>
#include <utility>

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
  // Run with the plan cache on, the query a second time on the same engine
  // as leg `<name>-warm`, and the grown sequence as leg `<name>-grown`.
  bool warm = false;
};

EngineOptions LegOptions(const Leg& leg) {
  EngineOptions eopts;
  eopts.measure_strategy = leg.strategy;
  eopts.measure_parallelism = leg.parallelism;
  eopts.exec_mode = leg.exec_mode;
  eopts.enable_plan_cache = leg.warm;
  return eopts;
}

struct QueryRun {
  Status status;
  ResultSet rs;
};

QueryRun ToRun(Result<ResultSet> result) {
  QueryRun run;
  run.status = result.status();
  if (result.ok()) run.rs = result.take();
  return run;
}

// Runs `setup`, then the query, on a fresh engine with the given options,
// so no cross-query or cross-strategy cache state can mask a divergence.
// Each entry of `reruns` then runs its statements on the same engine and
// the query again: an empty entry is the warm rerun, the grown leg's entry
// inserts each table's second half.
std::vector<QueryRun> RunOn(const EngineOptions& options,
                            const std::vector<std::string>& setup,
                            const std::vector<std::vector<std::string>>& reruns,
                            const std::string& query, Status* setup_error) {
  Engine db(options);
  auto execute = [&](const std::vector<std::string>& stmts) {
    for (const auto& stmt : stmts) {
      Status st = db.Execute(stmt);
      if (!st.ok()) {
        *setup_error = st;
        return false;
      }
    }
    return true;
  };
  if (!execute(setup)) return {};
  std::vector<QueryRun> runs;
  runs.push_back(ToRun(db.Query(query)));
  for (const auto& stmts : reruns) {
    if (!execute(stmts)) return {};
    runs.push_back(ToRun(db.Query(query)));
  }
  return runs;
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
  std::vector<std::string> grown_before, grown_after;
  spec.SplitSetupStatements(&grown_before, &grown_after);
  std::vector<std::string> grown_all = grown_before;
  grown_all.insert(grown_all.end(), grown_after.begin(), grown_after.end());

  const int workers = options.measure_workers > 1 ? options.measure_workers : 4;
  // Full strategy matrix under both execution modes, 6 legs, plus the
  // grouped-vec engine's warm rerun and grown sequence. The base leg is the
  // naive strategy on the row-at-a-time interpreter — the literal
  // evaluation — so every optimization (plan rewrite, memoization, value
  // tables, the inline fast path, parallelism, vectorized kernels, the plan
  // cache, column images extended by later writes) is differentially
  // checked against it bit for bit.
  const Leg legs[] = {
      {"naive-row", MeasureStrategy::kNaive, 1, ExecMode::kRow},
      {"naive-vec", MeasureStrategy::kNaive, 1, ExecMode::kVectorized},
      {"grouped-row", MeasureStrategy::kGrouped, 1, ExecMode::kRow},
      {"grouped-vec", MeasureStrategy::kGrouped, 1, ExecMode::kVectorized,
       /*warm=*/true},
      {"grouped-parallel-row", MeasureStrategy::kGrouped, workers,
       ExecMode::kRow},
      {"grouped-parallel-vec", MeasureStrategy::kGrouped, workers,
       ExecMode::kVectorized},
  };
  // The metamorphic relations are checked on the default engine config:
  // the cold run of the first (serial) leg with the default strategy and
  // exec mode.
  const EngineOptions defaults;
  const Leg* default_leg = legs;
  while (default_leg->strategy != defaults.measure_strategy ||
         default_leg->exec_mode != defaults.exec_mode) {
    ++default_leg;
  }
  const Leg* warm_leg = legs;
  while (!warm_leg->warm) ++warm_leg;
  const std::vector<std::vector<std::string>> kNoReruns, kOneRerun = {{}};

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
      // Every run of the query, labelled by leg; runs[0] is the base leg.
      std::vector<std::pair<std::string, QueryRun>> runs;
      for (const Leg& leg : legs) {
        Status setup_error;
        std::vector<QueryRun> leg_runs =
            RunOn(LegOptions(leg), setup, leg.warm ? kOneRerun : kNoReruns,
                  query, &setup_error);
        if (!setup_error.ok()) {
          outcome.setup_failed = true;
          fail(StrCat("setup failed on leg ", leg.name, ": ",
                      setup_error.ToString()));
          return outcome;
        }
        if (&leg == default_leg) reference.push_back(leg_runs[0]);
        runs.emplace_back(leg.name, std::move(leg_runs[0]));
        if (!leg.warm) continue;
        // A statement that ran cleanly published its plan, so the rerun of
        // the same text must be served from the plan cache.
        const QueryRun& cold = runs.back().second;
        const QueryRun& rerun = leg_runs[1];
        if (cold.status.ok() && rerun.status.ok() &&
            (rerun.rs.stats() == nullptr ||
             rerun.rs.stats()->plan_cache !=
                 QueryStats::PlanCacheOutcome::kHit)) {
          fail(StrCat(leg.name, "-warm: the rerun missed the plan cache",
                      "\n  query: ", query));
          differential_failed = true;
        }
        runs.emplace_back(StrCat(leg.name, "-warm"), std::move(leg_runs[1]));
      }

      // Each run against the base run of its sequence.
      auto compare = [&](const std::string& base_name, const QueryRun& base,
                         const std::string& name, const QueryRun& other) {
        if (base.status.ok() != other.status.ok()) {
          fail(StrCat(base_name, " vs ", name, ": ",
                      base.status.ok() ? "ok" : base.status.ToString(), " vs ",
                      other.status.ok() ? "ok" : other.status.ToString(),
                      "\n  query: ", query));
          differential_failed = true;
          return;
        }
        if (!base.status.ok()) {
          if (base.status.code() != other.status.code()) {
            fail(StrCat(base_name, " vs ", name,
                        ": different error codes: ", base.status.ToString(),
                        " vs ", other.status.ToString(), "\n  query: ", query));
            differential_failed = true;
          }
          return;
        }
        if (auto diff = DiffResults(base.rs, other.rs, options.compare)) {
          fail(StrCat(base_name, " vs ", name, ": ", *diff,
                      "\n  query: ", query));
          differential_failed = true;
        }
      };
      const std::string& base_name = runs[0].first;
      const QueryRun& base = runs[0].second;
      for (size_t ri = 1; ri < runs.size(); ++ri) {
        compare(base_name, base, runs[ri].first, runs[ri].second);
      }

      // Grown leg: the warm leg's engine runs the query over each table's
      // first half, which warms the plan cache, the shared measure cache and
      // the column images, then again after one INSERT per table adds the
      // second half. Its reference is the base leg's engine running the
      // same statements without the intermediate query.
      if (!grown_after.empty()) {
        Status setup_error;
        std::vector<QueryRun> ref = RunOn(LegOptions(legs[0]), grown_all,
                                          kNoReruns, query, &setup_error);
        std::vector<QueryRun> grown;
        if (setup_error.ok()) {
          grown = RunOn(LegOptions(*warm_leg), grown_before, {grown_after},
                        query, &setup_error);
        }
        if (!setup_error.ok()) {
          outcome.setup_failed = true;
          fail(StrCat("setup failed on the grown leg: ",
                      setup_error.ToString()));
          return outcome;
        }
        compare(StrCat(legs[0].name, "-grown"), ref[0],
                StrCat(warm_leg->name, "-grown"), grown[1]);
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
              fail(StrCat(base_name, " vs expansion: ", *diff,
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
