#ifndef MSQL_BINDER_BINDER_H_
#define MSQL_BINDER_BINDER_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "binder/bound_expr.h"
#include "catalog/catalog.h"
#include "catalog/system_tables.h"
#include "common/status.h"
#include "parser/ast.h"
#include "plan/plan.h"

namespace msql {

// Resolves a parsed SELECT into a logical plan: name resolution across
// nested scopes (with correlation depths), type checking, view and CTE
// inlining (with definer's-rights security), measure binding (kMeasureEval
// nodes and PlanMeasure descriptors), aggregate extraction and grouping-set
// construction.
class Binder {
 public:
  // `max_recursion_depth` drives the view-expansion depth guard; it is the
  // same EngineOptions::max_recursion_depth that bounds plan execution and
  // measure evaluation, so every layer trips the same kResourceExhausted.
  // `system_tables` (optional) resolves the reserved `msql_system.` name
  // space; null (the default, and whenever
  // EngineOptions::enable_system_tables is off) keeps those names ordinary
  // catalog misses.
  Binder(const Catalog* catalog, std::string user,
         int max_recursion_depth = 64,
         const SystemTableRegistry* system_tables = nullptr)
      : catalog_(catalog),
        user_(std::move(user)),
        max_recursion_depth_(max_recursion_depth),
        system_tables_(system_tables) {}

  // Binds a full query (WITH / set ops / ORDER BY / LIMIT).
  Result<PlanPtr> Bind(const SelectStmt& stmt);

  // Binds INSERT ... VALUES rows, each `width` scalar expressions over no
  // input (scalar subqueries allowed), into one kValues plan.
  Result<PlanPtr> BindValues(const std::vector<std::vector<ExprPtr>>& rows,
                             size_t width);

  // Declares the types of the statement's positional `?` parameters, in
  // ordinal order. Without a declaration, any `?` in the statement is a
  // bind error (ad-hoc Engine::Query has no parameter row to read from).
  void set_param_types(std::vector<TypeKind> types) {
    param_types_ = std::move(types);
    has_param_types_ = true;
  }

  // Highest parameter ordinal seen during Bind() + 1 (0 when the statement
  // has no parameters).
  int param_count() const { return param_count_; }

  // Tracing hook (docs/OBSERVABILITY.md): accumulates microseconds spent in
  // measure binding/expansion (PlanMeasure construction, AT-modifier
  // binding) into `*us`. The caller initializes `*us` to a negative
  // sentinel; it stays negative when no measure work happened, so the
  // trace only gets a measure-expand span for queries that expand measures.
  void set_measure_expand_accumulator(int64_t* us) {
    measure_expand_us_ = us;
  }

  // True when this bind (including nested view expansion) scanned a
  // msql_system table. Such plans embed a point-in-time data snapshot that
  // the catalog generation does not version, so the engine must keep them
  // out of the bound-plan and shared-measure caches.
  bool used_system_tables() const { return used_system_tables_; }

 private:
  // One name-resolution scope: the FROM relation of a SELECT (or a pseudo
  // scope for AT-modifier dimension binding).
  struct Scope {
    Scope* parent = nullptr;
    const Schema* schema = nullptr;
    const std::vector<PlanMeasure>* measures = nullptr;
    std::vector<std::string> using_cols;  // ambiguity exemption (USING)
  };

  struct FreeVarRec {
    Scope* boundary;  // the scope the subquery was bound against
    // Raw matches: (scope, column) pairs resolved outside the subquery.
    std::vector<std::tuple<Scope*, int, std::string, DataType>> vars;
  };

  // --- statements / relations ---
  Result<PlanPtr> BindSelectStmt(const SelectStmt& stmt, Scope* outer);
  Result<PlanPtr> BindSelectCore(const SelectStmt& stmt, Scope* outer);
  Result<PlanPtr> BindTableRef(const TableRef& ref, Scope* outer);
  Result<PlanPtr> BindBaseTable(const std::string& name,
                                const std::string& alias, Scope* outer);

  // --- expressions ---
  Result<BoundExprPtr> BindExpr(const Expr& e, Scope* scope);
  Result<BoundExprPtr> ResolveColumn(const std::vector<std::string>& parts,
                                     Scope* scope);
  Result<BoundExprPtr> BindFuncCall(const Expr& e, Scope* scope);
  Result<BoundExprPtr> BindAt(const Expr& e, Scope* scope);
  Result<std::vector<BoundAtModifier>> BindAtModifiers(
      const std::vector<AtModifier>& mods, Scope* scope);
  // Binds an AT dimension: a column of the measure provider, or a select
  // alias of the current SELECT used as an ad-hoc dimension (listing 10's
  // `SET orderYear = ...` where orderYear aliases YEAR(orderDate)).
  Result<BoundExprPtr> BindAtDim(const Expr& ast, Scope* dims_scope);
  Result<BoundExprPtr> BindSubqueryExpr(const Expr& e, Scope* scope,
                                        BoundExprKind kind);

  // Validates an AS MEASURE formula: depth-0 column references only inside
  // aggregate arguments; no subqueries.
  Status ValidateMeasureFormula(const BoundExpr& e, const std::string& name);

  // Translation of an expression through a provenance map at bind time
  // (composing provenance across projections). Fails when the expression
  // touches non-dimension columns, correlations, aggregates or measures.
  static Result<BoundExprPtr> RewriteThroughProvenance(
      const BoundExpr& e,
      const std::unordered_map<int, std::shared_ptr<BoundExpr>>& map);

  // True if the expression can serve as provenance (pure scalar over
  // depth-0 columns).
  static bool IsPureScalar(const BoundExpr& e);

  // --- aggregation support ---
  struct AggState {
    std::vector<BoundExprPtr> group_exprs;
    std::vector<std::string> group_names;
    std::vector<DataType> group_types;
    std::vector<std::string> group_prints;
    std::vector<std::vector<int>> grouping_sets;
    std::vector<AggCallDef> agg_calls;
    std::vector<std::string> agg_prints;
    std::vector<MeasureEvalDef> measure_evals;
    std::vector<std::string> meval_prints;
  };

  // First pass: collect aggregate calls and depth-0 measure evaluations.
  Status CollectAggregates(const BoundExpr& e, AggState* st);
  // Second pass: rewrite an expression over the Aggregate node's output.
  Result<BoundExprPtr> TransformForAggregate(const BoundExpr& e,
                                             const AggState& st);

  Status BindGroupBy(const SelectStmt& stmt, Scope* scope, AggState* st);

  // --- helpers ---
  // RAII accumulator feeding the measure-expand trace span: adds the scope's
  // elapsed microseconds to `*out` on destruction, clearing the negative
  // "never ran" sentinel first. Null-safe, so untraced binds pay only the
  // null check.
  class ExpandTimer {
   public:
    explicit ExpandTimer(int64_t* out)
        : out_(out),
          start_(out == nullptr ? std::chrono::steady_clock::time_point()
                                : std::chrono::steady_clock::now()) {}
    ~ExpandTimer() {
      if (out_ == nullptr) return;
      if (*out_ < 0) *out_ = 0;
      *out_ += std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
    }
    ExpandTimer(const ExpandTimer&) = delete;
    ExpandTimer& operator=(const ExpandTimer&) = delete;

   private:
    int64_t* out_;
    std::chrono::steady_clock::time_point start_;
  };

  Status CheckAccessAndGet(const std::string& name, const CatalogEntry** out);

  const Catalog* catalog_;
  std::string user_;

  // Catalog entries resolved during this bind, pinned so the raw pointers
  // handed around the binder stay valid even if a concurrent DROP/REPLACE
  // republishes the registry mid-bind (entries are immutable snapshots).
  std::vector<Catalog::EntryPtr> pinned_entries_;

  // CTEs visible during binding, innermost last.
  std::vector<std::map<std::string, const SelectStmt*>> cte_stack_;

  // Correlation recorders for subquery free-variable analysis.
  std::vector<FreeVarRec> recorders_;

  // Set while binding the expressions of one SELECT core: did we see an
  // aggregate function (incl. AGGREGATE), making the query an aggregate
  // query?
  bool saw_agg_ = false;

  // Dimension scope for CURRENT binding inside AT modifiers.
  Scope* at_dims_scope_ = nullptr;

  // Measures defined earlier in the same SELECT (peer inlining); only
  // consulted while binding another measure formula.
  std::map<std::string, const BoundExpr*> peer_measures_;
  bool in_measure_formula_ = false;

  // View-expansion depth guard, bounded by max_recursion_depth_.
  int max_recursion_depth_ = 64;
  int view_depth_ = 0;

  // USING column names collected while binding the current FROM clause.
  std::vector<std::string> pending_using_;

  // Select aliases of the SELECT cores currently being bound (innermost
  // last); consulted for ad-hoc dimensions in AT modifiers.
  std::vector<std::map<std::string, const Expr*>> select_alias_stack_;

  // Measure-expansion time accumulator; null unless the engine is tracing
  // this bind.
  int64_t* measure_expand_us_ = nullptr;

  // Reserved-namespace resolver (null = feature off) and whether this bind
  // touched it.
  const SystemTableRegistry* system_tables_ = nullptr;
  bool used_system_tables_ = false;

  // Declared positional parameter types (prepared statements) and the
  // number of distinct ordinals actually bound.
  std::vector<TypeKind> param_types_;
  bool has_param_types_ = false;
  int param_count_ = 0;

  // Window calls collected while binding the current SELECT core.
  std::vector<WindowDef> pending_windows_;
  std::vector<std::string> window_prints_;
  int window_base_visible_ = 0;
};

}  // namespace msql

#endif  // MSQL_BINDER_BINDER_H_
