#include "binder/binder.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/string_util.h"

namespace msql {

namespace {

// Derives a display name for an unaliased select item.
std::string DeriveName(const Expr& e, size_t position) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return e.parts.back();
    case ExprKind::kFuncCall:
      return ToLower(e.func_name);
    case ExprKind::kCurrent:
      return e.current_dim;
    case ExprKind::kAt:
      return DeriveName(*e.left, position);
    default:
      return StrCat("col", position + 1);
  }
}

// Group-key lookup used while remapping correlated subqueries: the printed
// forms of the aggregate's group expressions (over the pre-aggregation
// child scope).
struct AggKeys {
  const std::vector<std::string>* prints;
  const std::vector<DataType>* types;
};

// Remaps correlated references inside a subquery plan when the enclosing
// select becomes an aggregate query: any maximal subexpression whose column
// references all point at the (pre-aggregation) child scope and that equals
// a GROUP BY key is rewritten to that key's slot in the aggregate output.
Status RemapExprIntoAgg(BoundExpr* e, int target_depth, const AggKeys& keys);

// If every column reference in `e` has depth `target_depth` and `e` is a
// pure scalar expression, returns its print with those references lowered
// to depth 0 (the form group keys are printed in); otherwise nullopt.
std::optional<std::string> LoweredOuterPrint(const BoundExpr& e,
                                             int target_depth) {
  bool eligible = true;
  bool any_ref = false;
  VisitNodes(e, [&](const BoundExpr& n) {
    switch (n.kind) {
      case BoundExprKind::kColumnRef:
        any_ref = true;
        if (n.depth != target_depth) eligible = false;
        break;
      case BoundExprKind::kAgg:
      case BoundExprKind::kSubquery:
      case BoundExprKind::kInSubquery:
      case BoundExprKind::kExists:
      case BoundExprKind::kMeasureEval:
      case BoundExprKind::kCurrent:
      case BoundExprKind::kRowIndex:
      case BoundExprKind::kGroupingBit:
        eligible = false;
        break;
      default:
        break;
    }
  });
  if (!eligible || !any_ref) return std::nullopt;
  BoundExprPtr lowered = e.Clone();
  VisitNodes(lowered.get(), [&](BoundExpr* n) {
    if (n->kind == BoundExprKind::kColumnRef) n->depth = 0;
  });
  return lowered->ToString();
}

Status RemapPlanIntoAgg(LogicalPlan* plan, int target_depth,
                        const AggKeys& keys) {
  auto remap = [&](BoundExprPtr& p) -> Status {
    if (p == nullptr) return Status::Ok();
    return RemapExprIntoAgg(p.get(), target_depth, keys);
  };
  for (auto& e : plan->exprs) MSQL_RETURN_IF_ERROR(remap(e));
  MSQL_RETURN_IF_ERROR(remap(plan->predicate));
  MSQL_RETURN_IF_ERROR(remap(plan->join_condition));
  for (auto& g : plan->group_exprs) MSQL_RETURN_IF_ERROR(remap(g));
  for (auto& a : plan->agg_calls) {
    for (auto& arg : a.args) MSQL_RETURN_IF_ERROR(remap(arg));
    MSQL_RETURN_IF_ERROR(remap(a.filter));
  }
  for (auto& me : plan->measure_evals) {
    for (auto& m : me.modifiers) {
      for (auto& d : m.dims) MSQL_RETURN_IF_ERROR(remap(d));
      if (m.set_dim) MSQL_RETURN_IF_ERROR(remap(m.set_dim));
      if (m.set_value) MSQL_RETURN_IF_ERROR(remap(m.set_value));
      if (m.predicate) {
        MSQL_RETURN_IF_ERROR(
            RemapExprIntoAgg(m.predicate.get(), target_depth + 1, keys));
      }
    }
  }
  for (auto& k : plan->sort_keys) MSQL_RETURN_IF_ERROR(remap(k.expr));
  MSQL_RETURN_IF_ERROR(remap(plan->limit_expr));
  MSQL_RETURN_IF_ERROR(remap(plan->offset_expr));
  for (auto& w : plan->windows) {
    for (auto& a : w.args) MSQL_RETURN_IF_ERROR(remap(a));
    for (auto& p : w.partition_by) MSQL_RETURN_IF_ERROR(remap(p));
    for (auto& [o, d] : w.order_by) MSQL_RETURN_IF_ERROR(remap(o));
  }
  for (auto& row : plan->values_rows) {
    for (auto& v : row) MSQL_RETURN_IF_ERROR(remap(v));
  }
  for (auto& pm : plan->measures) {
    if (pm.formula != nullptr) {
      MSQL_RETURN_IF_ERROR(RemapExprIntoAgg(
          const_cast<BoundExpr*>(pm.formula.get()), target_depth, keys));
    }
  }
  for (auto& child : plan->children) {
    MSQL_RETURN_IF_ERROR(RemapPlanIntoAgg(child.get(), target_depth, keys));
  }
  return Status::Ok();
}

Status RemapExprIntoAgg(BoundExpr* e, int target_depth, const AggKeys& keys) {
  // Whole-subtree group-key match (covers plain columns as well as
  // expressions like YEAR(o.orderDate) when grouping by YEAR(orderDate)).
  if (auto lowered = LoweredOuterPrint(*e, target_depth)) {
    for (size_t i = 0; i < keys.prints->size(); ++i) {
      if ((*keys.prints)[i] == *lowered) {
        BoundExpr replacement;
        replacement.kind = BoundExprKind::kColumnRef;
        replacement.depth = target_depth;
        replacement.column = static_cast<int>(i);
        replacement.name = *lowered;
        replacement.type = (*keys.types)[i];
        *e = std::move(replacement);
        return Status::Ok();
      }
    }
    if (e->kind == BoundExprKind::kColumnRef) {
      return Status(
          ErrorCode::kBind,
          StrCat("correlated reference to '", e->name,
                 "' must be a GROUP BY key of the enclosing query"));
    }
    // Fall through: inner pieces may still match.
  }
  if ((e->kind == BoundExprKind::kSubquery ||
       e->kind == BoundExprKind::kInSubquery ||
       e->kind == BoundExprKind::kExists) &&
      e->subplan != nullptr) {
    MSQL_RETURN_IF_ERROR(
        RemapPlanIntoAgg(e->subplan.get(), target_depth + 1, keys));
  }
  for (auto& a : e->args) {
    MSQL_RETURN_IF_ERROR(RemapExprIntoAgg(a.get(), target_depth, keys));
  }
  if (e->filter) {
    MSQL_RETURN_IF_ERROR(
        RemapExprIntoAgg(e->filter.get(), target_depth, keys));
  }
  for (auto& [w, t] : e->when_clauses) {
    MSQL_RETURN_IF_ERROR(RemapExprIntoAgg(w.get(), target_depth, keys));
    MSQL_RETURN_IF_ERROR(RemapExprIntoAgg(t.get(), target_depth, keys));
  }
  if (e->else_expr) {
    MSQL_RETURN_IF_ERROR(
        RemapExprIntoAgg(e->else_expr.get(), target_depth, keys));
  }
  if (e->operand) {
    MSQL_RETURN_IF_ERROR(
        RemapExprIntoAgg(e->operand.get(), target_depth, keys));
  }
  for (auto& f : e->free_vars) {
    MSQL_RETURN_IF_ERROR(RemapExprIntoAgg(f.get(), target_depth, keys));
  }
  for (auto& m : e->modifiers) {
    for (auto& d : m.dims) {
      MSQL_RETURN_IF_ERROR(RemapExprIntoAgg(d.get(), target_depth, keys));
    }
    if (m.set_dim) {
      MSQL_RETURN_IF_ERROR(
          RemapExprIntoAgg(m.set_dim.get(), target_depth, keys));
    }
    if (m.set_value) {
      MSQL_RETURN_IF_ERROR(
          RemapExprIntoAgg(m.set_value.get(), target_depth, keys));
    }
    if (m.predicate) {
      MSQL_RETURN_IF_ERROR(
          RemapExprIntoAgg(m.predicate.get(), target_depth + 1, keys));
    }
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Relations
// ---------------------------------------------------------------------------

Status Binder::CheckAccessAndGet(const std::string& name,
                                 const CatalogEntry** out) {
  Catalog::EntryPtr entry = catalog_->Find(name);
  if (entry == nullptr) {
    return Status(ErrorCode::kCatalog, "table or view '" + name +
                                           "' does not exist");
  }
  MSQL_RETURN_IF_ERROR(catalog_->CheckAccess(*entry, user_));
  // Pin the snapshot for the binder's lifetime so the raw pointer survives
  // a concurrent DROP / CREATE OR REPLACE.
  pinned_entries_.push_back(entry);
  *out = entry.get();
  return Status::Ok();
}

Result<PlanPtr> Binder::BindBaseTable(const std::string& name,
                                      const std::string& alias, Scope* outer) {
  // CTEs shadow catalog objects; innermost frame wins.
  for (auto it = cte_stack_.rbegin(); it != cte_stack_.rend(); ++it) {
    auto cte = it->find(ToLower(name));
    if (cte != it->end()) {
      // CTEs are not correlated with the enclosing query.
      MSQL_ASSIGN_OR_RETURN(PlanPtr plan,
                            BindSelectStmt(*cte->second, nullptr));
      plan->schema.SetAlias(alias.empty() ? name : alias);
      (void)outer;
      return plan;
    }
  }

  // Reserved introspection namespace: resolved through the system-table
  // registry (when the engine enabled it), never the user catalog. The
  // provider builds a fresh snapshot table that the plan owns; see
  // catalog/system_tables.h for the cache-safety contract.
  if (SystemTableRegistry::IsSystemName(name)) {
    if (system_tables_ == nullptr) {
      return Status(ErrorCode::kCatalog,
                    "system tables are disabled "
                    "(EngineOptions::enable_system_tables)");
    }
    std::shared_ptr<Table> table = system_tables_->Build(name);
    if (table == nullptr) {
      return Status(ErrorCode::kCatalog,
                    "system table '" + name + "' does not exist");
    }
    used_system_tables_ = true;
    auto plan = std::make_shared<LogicalPlan>();
    plan->kind = PlanKind::kScanTable;
    plan->table = table;
    plan->schema = table->schema();
    // Default alias: the unqualified part, so `connections.user` resolves.
    plan->schema.SetAlias(alias.empty() ? name.substr(name.rfind('.') + 1)
                                        : alias);
    return plan;
  }

  const CatalogEntry* entry = nullptr;
  MSQL_RETURN_IF_ERROR(CheckAccessAndGet(name, &entry));

  if (entry->kind == CatalogEntry::Kind::kTable) {
    auto plan = std::make_shared<LogicalPlan>();
    plan->kind = PlanKind::kScanTable;
    plan->table = entry->table;
    plan->schema = entry->table->schema();
    plan->schema.SetAlias(alias.empty() ? name : alias);
    return plan;
  }

  // View: expand with definer's rights (paper section 5.5 — users granted
  // the view need no access to the underlying tables).
  if (++view_depth_ > max_recursion_depth_) {
    --view_depth_;
    return RecursionLimitExceeded("view expansion", max_recursion_depth_);
  }
  Binder view_binder(catalog_, entry->owner, max_recursion_depth_,
                     system_tables_);
  view_binder.view_depth_ = view_depth_;
  // Measure expansion inside the view counts toward the outer query's
  // measure-expand trace span.
  view_binder.measure_expand_us_ = measure_expand_us_;
  auto result = view_binder.BindSelectStmt(*entry->view_ast, nullptr);
  --view_depth_;
  // A view over a system table makes the whole statement cache-unsafe.
  used_system_tables_ |= view_binder.used_system_tables_;
  if (!result.ok()) return result.status();
  PlanPtr plan = result.take();
  plan->schema.SetAlias(alias.empty() ? name : alias);
  return plan;
}

Result<PlanPtr> Binder::BindTableRef(const TableRef& ref, Scope* outer) {
  switch (ref.kind) {
    case TableRefKind::kBaseTable:
      return BindBaseTable(ref.table_name, ref.alias, outer);
    case TableRefKind::kSubquery: {
      MSQL_ASSIGN_OR_RETURN(PlanPtr plan, BindSelectStmt(*ref.subquery, outer));
      if (!ref.alias.empty()) plan->schema.SetAlias(ref.alias);
      return plan;
    }
    case TableRefKind::kJoin: {
      MSQL_ASSIGN_OR_RETURN(PlanPtr left, BindTableRef(*ref.left, outer));
      MSQL_ASSIGN_OR_RETURN(PlanPtr right, BindTableRef(*ref.right, outer));

      auto plan = std::make_shared<LogicalPlan>();
      plan->kind = PlanKind::kJoin;
      plan->join_type = ref.join_type;
      plan->children = {left, right};

      const size_t lv = left->schema.num_visible();
      const size_t rv = right->schema.num_visible();
      // Combined layout: left visible, right visible, left hidden, right
      // hidden.
      for (size_t i = 0; i < lv; ++i) {
        plan->schema.AddColumn(left->schema.column(i));
      }
      for (size_t i = 0; i < rv; ++i) {
        plan->schema.AddColumn(right->schema.column(i));
      }
      for (size_t i = lv; i < left->schema.size(); ++i) {
        plan->schema.AddColumn(left->schema.column(i));
      }
      for (size_t i = rv; i < right->schema.size(); ++i) {
        plan->schema.AddColumn(right->schema.column(i));
      }

      // Measures from both sides, re-indexed into the combined layout.
      const size_t lh = left->schema.size() - lv;
      for (size_t i = 0; i < left->measures.size(); ++i) {
        const PlanMeasure& cm = left->measures[i];
        PlanMeasure pm;
        pm.define = false;
        pm.child_index = 0;
        pm.child_slot = static_cast<int>(i);
        pm.name = cm.name;
        pm.value_type = cm.value_type;
        pm.column = cm.column;  // left visible: unchanged
        pm.rowid_col = cm.rowid_col + static_cast<int>(rv);
        pm.provenance = cm.provenance;
        plan->measures.push_back(std::move(pm));
      }
      for (size_t i = 0; i < right->measures.size(); ++i) {
        const PlanMeasure& cm = right->measures[i];
        PlanMeasure pm;
        pm.define = false;
        pm.child_index = 1;
        pm.child_slot = static_cast<int>(i);
        pm.name = cm.name;
        pm.value_type = cm.value_type;
        pm.column = cm.column + static_cast<int>(lv);
        pm.rowid_col = cm.rowid_col + static_cast<int>(lv + lh);
        for (const auto& [col, expr] : cm.provenance) {
          pm.provenance[col + static_cast<int>(lv)] = expr;
        }
        plan->measures.push_back(std::move(pm));
      }

      // Join condition.
      Scope join_scope;
      join_scope.parent = outer;
      join_scope.schema = &plan->schema;
      join_scope.measures = &plan->measures;
      if (ref.on_condition != nullptr) {
        MSQL_ASSIGN_OR_RETURN(plan->join_condition,
                              BindExpr(*ref.on_condition, &join_scope));
      } else if (!ref.using_cols.empty()) {
        BoundExprPtr cond;
        for (const std::string& col : ref.using_cols) {
          auto lmatches = left->schema.Find("", col);
          auto rmatches = right->schema.Find("", col);
          if (lmatches.size() != 1 || rmatches.size() != 1) {
            return Status(ErrorCode::kBind,
                          "USING column '" + col +
                              "' must appear exactly once on each side");
          }
          auto lref = BColumnRef(0, static_cast<int>(lmatches[0]), col,
                                 left->schema.column(lmatches[0]).type);
          auto rref =
              BColumnRef(0, static_cast<int>(lv + rmatches[0]), col,
                         right->schema.column(rmatches[0]).type);
          std::vector<BoundExprPtr> eq_args;
          eq_args.push_back(std::move(lref));
          eq_args.push_back(std::move(rref));
          auto eq = BFunc(FunctionId::kOpEq, "=", DataType::Bool(),
                          std::move(eq_args));
          if (cond == nullptr) {
            cond = std::move(eq);
          } else {
            std::vector<BoundExprPtr> and_args;
            and_args.push_back(std::move(cond));
            and_args.push_back(std::move(eq));
            cond = BFunc(FunctionId::kOpAnd, "AND", DataType::Bool(),
                         std::move(and_args));
          }
          pending_using_.push_back(col);
        }
        plan->join_condition = std::move(cond);
      } else if (ref.join_type != JoinType::kCross) {
        return Status(ErrorCode::kBind, "JOIN requires ON or USING");
      }
      return plan;
    }
  }
  return Status(ErrorCode::kBind, "unsupported table reference");
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Result<PlanPtr> Binder::Bind(const SelectStmt& stmt) {
  return BindSelectStmt(stmt, nullptr);
}

Result<PlanPtr> Binder::BindValues(
    const std::vector<std::vector<ExprPtr>>& rows, size_t width) {
  auto plan = std::make_shared<LogicalPlan>();
  plan->kind = PlanKind::kValues;
  Scope scope;
  const Schema no_input;
  scope.schema = &no_input;
  scope.measures = &plan->measures;
  for (const auto& row : rows) {
    if (row.size() != width) {
      return Status(ErrorCode::kExecution,
                    StrCat("INSERT expects ", width, " values, got ",
                           row.size()));
    }
    auto& bound = plan->values_rows.emplace_back();
    for (const ExprPtr& e : row) {
      MSQL_ASSIGN_OR_RETURN(BoundExprPtr v, BindExpr(*e, &scope));
      if (saw_agg_ || !pending_windows_.empty()) {
        return Status(ErrorCode::kBind,
                      "aggregate and window functions are not allowed in "
                      "VALUES");
      }
      bound.push_back(std::move(v));
    }
  }
  return plan;
}

Result<PlanPtr> Binder::BindSelectStmt(const SelectStmt& stmt, Scope* outer) {
  // Register CTEs.
  cte_stack_.emplace_back();
  for (const CteDef& cte : stmt.ctes) {
    cte_stack_.back()[ToLower(cte.name)] = cte.select.get();
  }
  struct CtePop {
    Binder* b;
    ~CtePop() { b->cte_stack_.pop_back(); }
  } pop{this};

  MSQL_ASSIGN_OR_RETURN(PlanPtr plan, BindSelectCore(stmt, outer));

  // Set operations.
  if (stmt.set_op != SetOpKind::kNone) {
    MSQL_ASSIGN_OR_RETURN(PlanPtr rhs, BindSelectStmt(*stmt.set_rhs, outer));
    if (rhs->schema.num_visible() != plan->schema.num_visible()) {
      return Status(ErrorCode::kBind,
                    "set operation inputs have different column counts");
    }
    auto setop = std::make_shared<LogicalPlan>();
    setop->kind = PlanKind::kSetOp;
    setop->set_op = stmt.set_op;
    setop->children = {plan, rhs};
    for (size_t i = 0; i < plan->schema.num_visible(); ++i) {
      Column c = plan->schema.column(i);
      c.type = CommonType(c.type, rhs->schema.column(i).type);
      setop->schema.AddColumn(std::move(c));
    }
    plan = setop;

    // ORDER BY over the set result: ordinals and output names only.
    if (!stmt.order_by.empty()) {
      auto sort = std::make_shared<LogicalPlan>();
      sort->kind = PlanKind::kSort;
      sort->children = {plan};
      sort->schema = plan->schema;
      for (const OrderItem& item : stmt.order_by) {
        SortKeyDef key;
        if (item.expr->kind == ExprKind::kLiteral &&
            item.expr->literal.kind() == TypeKind::kInt64) {
          int64_t pos = item.expr->literal.int_val();
          if (pos < 1 ||
              pos > static_cast<int64_t>(plan->schema.num_visible())) {
            return Status(ErrorCode::kBind, "ORDER BY position out of range");
          }
          key.expr = BColumnRef(0, static_cast<int>(pos - 1),
                                plan->schema.column(pos - 1).name,
                                plan->schema.column(pos - 1).type);
        } else if (item.expr->kind == ExprKind::kColumnRef) {
          auto matches =
              plan->schema.Find("", item.expr->parts.back());
          if (matches.size() != 1) {
            return Status(ErrorCode::kBind,
                          "cannot resolve ORDER BY column over set operation");
          }
          key.expr = BColumnRef(0, static_cast<int>(matches[0]),
                                plan->schema.column(matches[0]).name,
                                plan->schema.column(matches[0]).type);
        } else {
          return Status(ErrorCode::kBind,
                        "ORDER BY over set operations supports only column "
                        "names and ordinals");
        }
        key.desc = item.desc;
        key.nulls_first = item.nulls_first.value_or(!item.desc);
        sort->sort_keys.push_back(std::move(key));
      }
      plan = sort;
    }
  }

  // LIMIT / OFFSET.
  if (stmt.limit != nullptr || stmt.offset != nullptr) {
    auto limit = std::make_shared<LogicalPlan>();
    limit->kind = PlanKind::kLimit;
    limit->children = {plan};
    limit->schema = plan->schema;
    Scope dummy;  // LIMIT expressions must be constant
    if (stmt.limit) {
      MSQL_ASSIGN_OR_RETURN(limit->limit_expr, BindExpr(*stmt.limit, &dummy));
    }
    if (stmt.offset) {
      MSQL_ASSIGN_OR_RETURN(limit->offset_expr,
                            BindExpr(*stmt.offset, &dummy));
    }
    limit->measures = PropagateSameSchema(*plan);
    plan = limit;
  }
  return plan;
}

Result<PlanPtr> Binder::BindSelectCore(const SelectStmt& stmt, Scope* outer) {
  // ---- FROM ----
  PlanPtr plan;
  pending_using_.clear();
  if (stmt.from != nullptr) {
    MSQL_ASSIGN_OR_RETURN(plan, BindTableRef(*stmt.from, outer));
  } else {
    plan = std::make_shared<LogicalPlan>();
    plan->kind = PlanKind::kValues;
    plan->values_rows.emplace_back();  // a single empty row
  }

  Scope scope;
  scope.parent = outer;
  scope.schema = &plan->schema;
  scope.measures = &plan->measures;
  scope.using_cols = pending_using_;
  pending_using_.clear();

  // Select aliases, available to AT modifiers as ad-hoc dimensions.
  {
    std::map<std::string, const Expr*> aliases;
    for (const SelectItem& sel : stmt.select_list) {
      if (!sel.is_star && !sel.alias.empty() && !sel.is_measure) {
        aliases[ToLower(sel.alias)] = sel.expr.get();
      }
    }
    select_alias_stack_.push_back(std::move(aliases));
  }
  struct AliasPop {
    Binder* b;
    ~AliasPop() { b->select_alias_stack_.pop_back(); }
  } alias_pop{this};

  // ---- WHERE ----
  if (stmt.where != nullptr) {
    MSQL_ASSIGN_OR_RETURN(BoundExprPtr pred, BindExpr(*stmt.where, &scope));
    bool has_agg = ContainsNode(
        *pred, [](const BoundExpr& n) { return n.kind == BoundExprKind::kAgg; });
    if (has_agg) {
      return Status(ErrorCode::kBind,
                    "aggregate functions are not allowed in WHERE");
    }
    auto filter = std::make_shared<LogicalPlan>();
    filter->kind = PlanKind::kFilter;
    filter->children = {plan};
    filter->schema = plan->schema;
    filter->predicate = std::move(pred);
    filter->measures = PropagateSameSchema(*plan);
    plan = filter;
    scope.schema = &plan->schema;
    scope.measures = &plan->measures;
  }

  // ---- bind select list ----
  const bool saved_saw_agg = saw_agg_;
  saw_agg_ = false;
  std::vector<WindowDef> saved_windows = std::move(pending_windows_);
  std::vector<std::string> saved_window_prints = std::move(window_prints_);
  pending_windows_.clear();
  window_prints_.clear();
  window_base_visible_ = static_cast<int>(plan->schema.num_visible());
  peer_measures_.clear();

  struct Item {
    std::string name;
    BoundExprPtr bound;
    bool is_measure_def = false;
  };
  std::vector<Item> items;

  for (size_t idx = 0; idx < stmt.select_list.size(); ++idx) {
    const SelectItem& sel = stmt.select_list[idx];
    if (sel.is_star) {
      bool any = false;
      for (size_t c = 0; c < scope.schema->num_visible(); ++c) {
        const Column& col = scope.schema->column(c);
        if (!sel.star_table.empty() &&
            !EqualsIgnoreCase(sel.star_table, col.table_alias)) {
          continue;
        }
        any = true;
        Item item;
        item.name = col.name;
        if (col.type.is_measure) {
          auto me = std::make_unique<BoundExpr>();
          me->kind = BoundExprKind::kMeasureEval;
          me->type = col.type;
          me->name = col.name;
          me->depth = 0;
          for (size_t s = 0; s < scope.measures->size(); ++s) {
            if ((*scope.measures)[s].column == static_cast<int>(c)) {
              me->measure_slot = static_cast<int>(s);
            }
          }
          item.bound = std::move(me);
        } else {
          item.bound =
              BColumnRef(0, static_cast<int>(c), col.name, col.type);
        }
        items.push_back(std::move(item));
      }
      if (!any) {
        return Status(ErrorCode::kBind,
                      "'" + sel.star_table + ".*' matches no columns");
      }
      continue;
    }
    Item item;
    item.name = sel.alias.empty() ? DeriveName(*sel.expr, idx) : sel.alias;
    item.is_measure_def = sel.is_measure;
    if (sel.is_measure) {
      // Aggregates inside a measure formula do not make the defining query
      // an aggregate query (paper section 3.2: the defining view has no
      // GROUP BY and keeps the source's rows).
      const bool formula_saved_saw_agg = saw_agg_;
      in_measure_formula_ = true;
      auto bound = BindExpr(*sel.expr, &scope);
      in_measure_formula_ = false;
      saw_agg_ = formula_saved_saw_agg;
      if (!bound.ok()) return bound.status();
      item.bound = bound.take();
      MSQL_RETURN_IF_ERROR(ValidateMeasureFormula(*item.bound, item.name));
    } else {
      MSQL_ASSIGN_OR_RETURN(item.bound, BindExpr(*sel.expr, &scope));
    }
    if (item.is_measure_def) {
      peer_measures_[ToLower(item.name)] = item.bound.get();
    }
    items.push_back(std::move(item));
  }

  // ---- HAVING ----
  BoundExprPtr having;
  if (stmt.having != nullptr) {
    MSQL_ASSIGN_OR_RETURN(having, BindExpr(*stmt.having, &scope));
  }

  // ---- ORDER BY (alias / ordinal substitution, bound over the scope) ----
  struct OrderBound {
    BoundExprPtr expr;
    bool desc = false;
    bool nulls_first = true;
  };
  std::vector<OrderBound> order_bound;
  for (const OrderItem& o : stmt.order_by) {
    const Expr* ast = o.expr.get();
    if (ast->kind == ExprKind::kLiteral &&
        ast->literal.kind() == TypeKind::kInt64) {
      int64_t pos = ast->literal.int_val();
      if (pos < 1 || pos > static_cast<int64_t>(stmt.select_list.size()) ||
          stmt.select_list[pos - 1].is_star) {
        return Status(ErrorCode::kBind, "ORDER BY position out of range");
      }
      ast = stmt.select_list[pos - 1].expr.get();
    } else if (ast->kind == ExprKind::kColumnRef && ast->parts.size() == 1) {
      // SQL resolves ORDER BY names against the output columns first
      // (select aliases and derived names), then the FROM scope.
      const Expr* output_match = nullptr;
      int matches = 0;
      for (size_t si = 0; si < stmt.select_list.size(); ++si) {
        const SelectItem& sel = stmt.select_list[si];
        if (sel.is_star) continue;
        std::string out_name =
            sel.alias.empty() ? DeriveName(*sel.expr, si) : sel.alias;
        if (EqualsIgnoreCase(out_name, ast->parts[0])) {
          output_match = sel.expr.get();
          ++matches;
        }
      }
      if (matches == 1) ast = output_match;
    }
    OrderBound ob;
    MSQL_ASSIGN_OR_RETURN(ob.expr, BindExpr(*ast, &scope));
    ob.desc = o.desc;
    ob.nulls_first = o.nulls_first.value_or(!o.desc);
    order_bound.push_back(std::move(ob));
  }

  const bool grouped = !stmt.group_by.empty() || saw_agg_;
  saw_agg_ = saved_saw_agg;
  peer_measures_.clear();

  // ---- window functions ----
  if (!pending_windows_.empty()) {
    if (grouped) {
      return Status(ErrorCode::kBind,
                    "window functions cannot be combined with GROUP BY in the "
                    "same query block");
    }
    auto window = std::make_shared<LogicalPlan>();
    window->kind = PlanKind::kWindow;
    window->children = {plan};
    const size_t cv = plan->schema.num_visible();
    const size_t w_count = pending_windows_.size();
    for (size_t i = 0; i < cv; ++i) {
      window->schema.AddColumn(plan->schema.column(i));
    }
    for (size_t w = 0; w < w_count; ++w) {
      window->schema.AddColumn(Column(StrCat("__win", w),
                                      pending_windows_[w].type));
    }
    for (size_t i = cv; i < plan->schema.size(); ++i) {
      window->schema.AddColumn(plan->schema.column(i));
    }
    window->windows = std::move(pending_windows_);
    // Measures survive; hidden columns shift by the window column count.
    for (size_t i = 0; i < plan->measures.size(); ++i) {
      const PlanMeasure& cm = plan->measures[i];
      PlanMeasure pm;
      pm.define = false;
      pm.child_index = 0;
      pm.child_slot = static_cast<int>(i);
      pm.name = cm.name;
      pm.value_type = cm.value_type;
      pm.column = cm.column;
      pm.rowid_col = cm.rowid_col + static_cast<int>(w_count);
      pm.provenance = cm.provenance;
      window->measures.push_back(std::move(pm));
    }
    plan = window;
    scope.schema = &plan->schema;
    scope.measures = &plan->measures;
  }
  pending_windows_ = std::move(saved_windows);
  window_prints_ = std::move(saved_window_prints);

  if (grouped) {
    for (const Item& item : items) {
      if (item.is_measure_def) {
        return Status(ErrorCode::kBind,
                      "AS MEASURE is not allowed in an aggregate query; "
                      "define measures in a non-aggregating SELECT");
      }
    }

    AggState st;
    MSQL_RETURN_IF_ERROR(BindGroupBy(stmt, &scope, &st));
    for (const Item& item : items) {
      MSQL_RETURN_IF_ERROR(CollectAggregates(*item.bound, &st));
    }
    if (having != nullptr) {
      MSQL_RETURN_IF_ERROR(CollectAggregates(*having, &st));
    }
    for (const OrderBound& ob : order_bound) {
      MSQL_RETURN_IF_ERROR(CollectAggregates(*ob.expr, &st));
    }

    auto agg = std::make_shared<LogicalPlan>();
    agg->kind = PlanKind::kAggregate;
    agg->children = {plan};
    for (size_t i = 0; i < st.group_exprs.size(); ++i) {
      agg->schema.AddColumn(Column(st.group_names[i], st.group_types[i]));
    }
    for (size_t i = 0; i < st.agg_calls.size(); ++i) {
      agg->schema.AddColumn(Column(st.agg_prints[i], st.agg_calls[i].type));
    }
    for (size_t i = 0; i < st.measure_evals.size(); ++i) {
      agg->schema.AddColumn(Column(st.measure_evals[i].display,
                                   st.measure_evals[i].type.ValueType()));
    }
    agg->schema.AddColumn(
        Column("__grouping_id", DataType::Int64(), "", /*hidden=*/true));

    // Correlated subqueries bound against the pre-aggregation scope must be
    // re-pointed at the aggregate output's group key slots.
    AggKeys agg_keys{&st.group_prints, &st.group_types};
    auto remap_subqueries = [&](BoundExpr* e) -> Status {
      Status status = Status::Ok();
      VisitNodes(e, [&](BoundExpr* n) {
        if (!status.ok()) return;
        if ((n->kind == BoundExprKind::kSubquery ||
             n->kind == BoundExprKind::kInSubquery ||
             n->kind == BoundExprKind::kExists) &&
            n->subplan != nullptr) {
          Status s = RemapPlanIntoAgg(n->subplan.get(), 1, agg_keys);
          if (!s.ok()) status = s;
        }
      });
      return status;
    };

    plan = agg;

    // HAVING above the aggregate.
    if (having != nullptr) {
      MSQL_ASSIGN_OR_RETURN(BoundExprPtr transformed,
                            TransformForAggregate(*having, st));
      MSQL_RETURN_IF_ERROR(remap_subqueries(transformed.get()));
      auto filter = std::make_shared<LogicalPlan>();
      filter->kind = PlanKind::kFilter;
      filter->children = {plan};
      filter->schema = plan->schema;
      filter->predicate = std::move(transformed);
      plan = filter;
    }

    // ORDER BY between aggregation and projection.
    if (!order_bound.empty()) {
      auto sort = std::make_shared<LogicalPlan>();
      sort->kind = PlanKind::kSort;
      sort->children = {plan};
      sort->schema = plan->schema;
      for (OrderBound& ob : order_bound) {
        SortKeyDef key;
        MSQL_ASSIGN_OR_RETURN(key.expr, TransformForAggregate(*ob.expr, st));
        MSQL_RETURN_IF_ERROR(remap_subqueries(key.expr.get()));
        key.desc = ob.desc;
        key.nulls_first = ob.nulls_first;
        sort->sort_keys.push_back(std::move(key));
      }
      plan = sort;
    }

    // Final projection.
    auto project = std::make_shared<LogicalPlan>();
    project->kind = PlanKind::kProject;
    project->children = {plan};
    for (Item& item : items) {
      MSQL_ASSIGN_OR_RETURN(BoundExprPtr transformed,
                            TransformForAggregate(*item.bound, st));
      MSQL_RETURN_IF_ERROR(remap_subqueries(transformed.get()));
      project->schema.AddColumn(
          Column(item.name, transformed->type.ValueType()));
      project->exprs.push_back(std::move(transformed));
    }
    // The transforms above only read the AggState; now hand its pieces to
    // the Aggregate node.
    agg->group_exprs = std::move(st.group_exprs);
    agg->grouping_sets = std::move(st.grouping_sets);
    agg->agg_calls = std::move(st.agg_calls);
    agg->measure_evals = std::move(st.measure_evals);
    plan = project;
  } else {
    // ---- non-aggregate SELECT ----
    if (!order_bound.empty()) {
      auto sort = std::make_shared<LogicalPlan>();
      sort->kind = PlanKind::kSort;
      sort->children = {plan};
      sort->schema = plan->schema;
      for (OrderBound& ob : order_bound) {
        SortKeyDef key;
        key.expr = std::move(ob.expr);
        key.desc = ob.desc;
        key.nulls_first = ob.nulls_first;
        sort->sort_keys.push_back(std::move(key));
      }
      sort->measures = PropagateSameSchema(*plan);
      plan = sort;
      scope.schema = &plan->schema;
      scope.measures = &plan->measures;
    }

    auto project = std::make_shared<LogicalPlan>();
    project->kind = PlanKind::kProject;
    project->children = {plan};

    const size_t n_items = items.size();
    bool any_measure_def = false;
    for (const Item& item : items) {
      if (item.is_measure_def) any_measure_def = true;
    }

    // Visible columns.
    struct MeasureOut {
      bool define = false;
      int child_slot = -1;          // propagate
      const BoundExpr* formula = nullptr;  // define (owned by items)
      int column = -1;
      DataType value_type;
      std::string name;
    };
    std::vector<MeasureOut> measure_outs;

    for (size_t i = 0; i < n_items; ++i) {
      Item& item = items[i];
      if (item.is_measure_def) {
        MeasureOut mo;
        mo.define = true;
        mo.formula = item.bound.get();
        mo.column = static_cast<int>(i);
        mo.value_type = item.bound->type.ValueType();
        mo.name = item.name;
        measure_outs.push_back(mo);
        project->schema.AddColumn(
            Column(item.name, mo.value_type.AsMeasure()));
        // Measure cells hold NULL placeholders.
        auto null_lit = BLiteral(Value::Null());
        null_lit->type = mo.value_type.AsMeasure();
        project->exprs.push_back(std::move(null_lit));
      } else if (item.bound->kind == BoundExprKind::kMeasureEval &&
                 item.bound->depth == 0 && item.bound->modifiers.empty()) {
        // Bare reference to an input measure: the measure passes through
        // (closure property, paper section 5.4).
        MeasureOut mo;
        mo.define = false;
        mo.child_slot = item.bound->measure_slot;
        mo.column = static_cast<int>(i);
        mo.value_type = item.bound->type.ValueType();
        mo.name = item.name;
        measure_outs.push_back(mo);
        project->schema.AddColumn(
            Column(item.name, mo.value_type.AsMeasure()));
        const PlanMeasure& cm = (*scope.measures)[mo.child_slot];
        project->exprs.push_back(BColumnRef(0, cm.column, item.name,
                                            mo.value_type.AsMeasure()));
      } else {
        project->schema.AddColumn(
            Column(item.name, item.bound->type.ValueType()));
        project->exprs.push_back(std::move(item.bound));
      }
    }

    // Hidden passthrough of the child's hidden columns.
    const size_t cv = scope.schema->num_visible();
    std::unordered_map<int, int> hidden_map;  // child hidden idx -> out idx
    for (size_t h = cv; h < scope.schema->size(); ++h) {
      hidden_map[static_cast<int>(h)] =
          static_cast<int>(project->schema.size());
      project->schema.AddColumn(Column(scope.schema->column(h).name,
                                       scope.schema->column(h).type, "",
                                       /*hidden=*/true));
      project->exprs.push_back(BColumnRef(0, static_cast<int>(h),
                                          scope.schema->column(h).name,
                                          scope.schema->column(h).type));
    }
    // New row-id column for measures defined here.
    int new_rowid_col = -1;
    if (any_measure_def) {
      new_rowid_col = static_cast<int>(project->schema.size());
      project->schema.AddColumn(Column(StrCat("__rowid", new_rowid_col),
                                       DataType::Int64(), "",
                                       /*hidden=*/true));
      project->exprs.push_back(BRowIndex());
    }

    // Measure descriptors. Timed into the measure-expand trace span when
    // the engine is tracing this bind (and only if measures are involved).
    ExpandTimer expand_timer(measure_outs.empty() ? nullptr
                                                  : measure_expand_us_);
    for (const MeasureOut& mo : measure_outs) {
      PlanMeasure pm;
      pm.name = mo.name;
      pm.value_type = mo.value_type;
      pm.column = mo.column;
      if (mo.define) {
        pm.define = true;
        pm.formula = std::shared_ptr<BoundExpr>(mo.formula->Clone().release());
        pm.rowid_col = new_rowid_col;
        // Provenance: pure scalar projections over the source (the child).
        for (size_t j = 0; j < n_items; ++j) {
          const BoundExpr& pe = *project->exprs[j];
          if (IsPureScalar(pe)) {
            pm.provenance[static_cast<int>(j)] =
                std::shared_ptr<BoundExpr>(pe.Clone().release());
          }
        }
      } else {
        const PlanMeasure& cm = (*scope.measures)[mo.child_slot];
        pm.define = false;
        pm.child_index = 0;
        pm.child_slot = mo.child_slot;
        auto it = hidden_map.find(cm.rowid_col);
        if (it == hidden_map.end()) {
          return Status(ErrorCode::kBind,
                        "internal: measure row-id column lost in projection");
        }
        pm.rowid_col = it->second;
        // Compose provenance: output col j = expr over child; child col ->
        // source expr via the child's provenance.
        for (size_t j = 0; j < n_items; ++j) {
          const BoundExpr& pe = *project->exprs[j];
          auto translated = RewriteThroughProvenance(pe, cm.provenance);
          if (translated.ok()) {
            pm.provenance[static_cast<int>(j)] = std::shared_ptr<BoundExpr>(
                translated.value().release());
          }
        }
      }
      project->measures.push_back(std::move(pm));
    }
    plan = project;
  }

  // ---- DISTINCT ----
  if (stmt.distinct) {
    auto distinct = std::make_shared<LogicalPlan>();
    distinct->kind = PlanKind::kDistinct;
    distinct->children = {plan};
    for (size_t i = 0; i < plan->schema.num_visible(); ++i) {
      const Column& c = plan->schema.column(i);
      if (c.type.is_measure) {
        return Status(ErrorCode::kBind,
                      "SELECT DISTINCT cannot project measure columns");
      }
      distinct->schema.AddColumn(c);
    }
    plan = distinct;
  }
  return plan;
}

// ---------------------------------------------------------------------------
// GROUP BY
// ---------------------------------------------------------------------------

Status Binder::BindGroupBy(const SelectStmt& stmt, Scope* scope,
                           AggState* st) {
  // Registers a group expression (dedicated by print); returns its index.
  auto register_expr = [&](BoundExprPtr e,
                           const std::string& name) -> Result<int> {
    std::string print = e->ToString();
    for (size_t i = 0; i < st->group_prints.size(); ++i) {
      if (st->group_prints[i] == print) return static_cast<int>(i);
    }
    st->group_prints.push_back(print);
    st->group_names.push_back(name.empty() ? print : name);
    st->group_types.push_back(e->type.ValueType());
    st->group_exprs.push_back(std::move(e));
    return static_cast<int>(st->group_exprs.size() - 1);
  };

  // Resolves a GROUP BY item AST: ordinals and select aliases.
  auto resolve_ast = [&](const Expr& e) -> const Expr* {
    if (e.kind == ExprKind::kLiteral &&
        e.literal.kind() == TypeKind::kInt64) {
      int64_t pos = e.literal.int_val();
      if (pos >= 1 && pos <= static_cast<int64_t>(stmt.select_list.size()) &&
          !stmt.select_list[pos - 1].is_star) {
        return stmt.select_list[pos - 1].expr.get();
      }
    }
    if (e.kind == ExprKind::kColumnRef && e.parts.size() == 1) {
      if (scope->schema->Find("", e.parts[0]).empty()) {
        for (const SelectItem& sel : stmt.select_list) {
          if (!sel.is_star && EqualsIgnoreCase(sel.alias, e.parts[0])) {
            return sel.expr.get();
          }
        }
      }
    }
    return &e;
  };

  auto bind_group_expr = [&](const Expr& raw) -> Result<int> {
    const Expr* ast = resolve_ast(raw);
    MSQL_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(*ast, scope));
    if (bound->type.is_measure) {
      return Status(ErrorCode::kBind, "cannot GROUP BY a measure");
    }
    std::string name =
        ast->kind == ExprKind::kColumnRef ? ast->parts.back() : "";
    if (name.empty() && raw.kind == ExprKind::kColumnRef) {
      name = raw.parts.back();
    }
    return register_expr(std::move(bound), name);
  };

  // Each GROUP BY item yields a list of index sets; the final grouping sets
  // are the cross-product concatenation across items (SQL semantics).
  std::vector<std::vector<std::vector<int>>> per_item;
  for (const GroupItem& item : stmt.group_by) {
    std::vector<std::vector<int>> sets;
    switch (item.kind) {
      case GroupItem::Kind::kExpr: {
        MSQL_ASSIGN_OR_RETURN(int idx, bind_group_expr(*item.expr));
        sets.push_back({idx});
        break;
      }
      case GroupItem::Kind::kRollup: {
        std::vector<int> ids;
        for (const ExprPtr& e : item.exprs) {
          MSQL_ASSIGN_OR_RETURN(int idx, bind_group_expr(*e));
          ids.push_back(idx);
        }
        for (size_t k = ids.size() + 1; k-- > 0;) {
          sets.emplace_back(ids.begin(), ids.begin() + k);
        }
        break;
      }
      case GroupItem::Kind::kCube: {
        std::vector<int> ids;
        for (const ExprPtr& e : item.exprs) {
          MSQL_ASSIGN_OR_RETURN(int idx, bind_group_expr(*e));
          ids.push_back(idx);
        }
        size_t n = ids.size();
        for (size_t mask = (1u << n); mask-- > 0;) {
          std::vector<int> set;
          for (size_t b = 0; b < n; ++b) {
            if (mask & (1u << b)) set.push_back(ids[b]);
          }
          sets.push_back(std::move(set));
        }
        break;
      }
      case GroupItem::Kind::kGroupingSets: {
        for (const auto& group : item.sets) {
          std::vector<int> set;
          for (const ExprPtr& e : group) {
            MSQL_ASSIGN_OR_RETURN(int idx, bind_group_expr(*e));
            set.push_back(idx);
          }
          sets.push_back(std::move(set));
        }
        break;
      }
    }
    per_item.push_back(std::move(sets));
  }

  // Cross product.
  st->grouping_sets = {{}};
  for (const auto& sets : per_item) {
    std::vector<std::vector<int>> next;
    for (const auto& acc : st->grouping_sets) {
      for (const auto& s : sets) {
        std::vector<int> merged = acc;
        for (int idx : s) {
          if (std::find(merged.begin(), merged.end(), idx) == merged.end()) {
            merged.push_back(idx);
          }
        }
        next.push_back(std::move(merged));
      }
    }
    st->grouping_sets = std::move(next);
  }
  return Status::Ok();
}

Status Binder::CollectAggregates(const BoundExpr& e, AggState* st) {
  // A subtree equal to a group key is opaque (it will be replaced wholesale).
  std::string print = e.ToString();
  for (const std::string& gp : st->group_prints) {
    if (gp == print) return Status::Ok();
  }
  switch (e.kind) {
    case BoundExprKind::kAgg: {
      for (const auto& a : e.args) {
        bool nested = ContainsNode(*a, [](const BoundExpr& n) {
          return n.kind == BoundExprKind::kAgg;
        });
        if (nested) {
          return Status(ErrorCode::kBind,
                        "aggregate calls cannot be nested");
        }
      }
      for (const std::string& ap : st->agg_prints) {
        if (ap == print) return Status::Ok();
      }
      AggCallDef def;
      def.agg = e.agg;
      for (const auto& a : e.args) def.args.push_back(a->Clone());
      def.distinct = e.distinct;
      if (e.filter) def.filter = e.filter->Clone();
      def.type = e.type;
      st->agg_prints.push_back(print);
      st->agg_calls.push_back(std::move(def));
      return Status::Ok();
    }
    case BoundExprKind::kMeasureEval: {
      if (e.depth != 0) return Status::Ok();  // correlated; left in place
      for (const std::string& mp : st->meval_prints) {
        if (mp == print) return Status::Ok();
      }
      MeasureEvalDef def;
      def.measure_slot = e.measure_slot;
      for (const auto& m : e.modifiers) {
        BoundAtModifier mc;
        mc.kind = m.kind;
        for (const auto& d : m.dims) mc.dims.push_back(d->Clone());
        if (m.set_dim) mc.set_dim = m.set_dim->Clone();
        if (m.set_value) mc.set_value = m.set_value->Clone();
        if (m.predicate) mc.predicate = m.predicate->Clone();
        def.modifiers.push_back(std::move(mc));
      }
      def.type = e.type;
      def.display = print;
      st->meval_prints.push_back(print);
      st->measure_evals.push_back(std::move(def));
      return Status::Ok();
    }
    case BoundExprKind::kSubquery:
    case BoundExprKind::kInSubquery:
    case BoundExprKind::kExists:
      // Subquery internals are independent; only the operand participates.
      if (e.operand) MSQL_RETURN_IF_ERROR(CollectAggregates(*e.operand, st));
      return Status::Ok();
    default:
      break;
  }
  Status status = Status::Ok();
  auto walk = [&](const BoundExprPtr& child) {
    if (child && status.ok()) status = CollectAggregates(*child, st);
  };
  for (const auto& a : e.args) walk(a);
  walk(e.filter);
  for (const auto& [w, t] : e.when_clauses) {
    walk(w);
    walk(t);
  }
  walk(e.else_expr);
  walk(e.operand);
  return status;
}

Result<BoundExprPtr> Binder::TransformForAggregate(const BoundExpr& e,
                                                   const AggState& st) {
  const size_t num_keys = st.group_exprs.size();
  const size_t num_aggs = st.agg_calls.size();
  std::string print = e.ToString();

  // GROUPING(expr) / GROUPING_ID(e1, e2, ...).
  if (e.kind == BoundExprKind::kFunc && e.func == FunctionId::kInvalid &&
      EqualsIgnoreCase(e.func_name, "GROUPING")) {
    const int gid_col =
        static_cast<int>(num_keys + num_aggs + st.measure_evals.size());
    BoundExprPtr combined;
    for (const auto& arg : e.args) {
      std::string ap = arg->ToString();
      int bit = -1;
      for (size_t i = 0; i < st.group_prints.size(); ++i) {
        if (st.group_prints[i] == ap) bit = static_cast<int>(i);
      }
      if (bit < 0) {
        return Status(ErrorCode::kBind,
                      "GROUPING argument must be a GROUP BY expression");
      }
      auto gb = std::make_unique<BoundExpr>();
      gb->kind = BoundExprKind::kGroupingBit;
      gb->type = DataType::Int64();
      gb->grouping_bit = bit;
      gb->grouping_col = gid_col;
      if (combined == nullptr) {
        combined = std::move(gb);
      } else {
        // GROUPING_ID semantics: shift previous bits left and add.
        std::vector<BoundExprPtr> mul_args;
        mul_args.push_back(std::move(combined));
        mul_args.push_back(BLiteral(Value::Int(2)));
        auto shifted = BFunc(FunctionId::kOpMul, "*", DataType::Int64(),
                             std::move(mul_args));
        std::vector<BoundExprPtr> add_args;
        add_args.push_back(std::move(shifted));
        add_args.push_back(std::move(gb));
        combined = BFunc(FunctionId::kOpAdd, "+", DataType::Int64(),
                         std::move(add_args));
      }
    }
    if (combined == nullptr) {
      return Status(ErrorCode::kBind, "GROUPING requires arguments");
    }
    return combined;
  }

  // Group-key match (whole subtree).
  for (size_t i = 0; i < st.group_prints.size(); ++i) {
    if (st.group_prints[i] == print) {
      return BColumnRef(0, static_cast<int>(i), st.group_names[i],
                        st.group_types[i]);
    }
  }
  if (e.kind == BoundExprKind::kAgg) {
    for (size_t i = 0; i < st.agg_prints.size(); ++i) {
      if (st.agg_prints[i] == print) {
        return BColumnRef(0, static_cast<int>(num_keys + i), print,
                          st.agg_calls[i].type);
      }
    }
    return Status(ErrorCode::kBind, "internal: aggregate call not collected");
  }
  if (e.kind == BoundExprKind::kMeasureEval && e.depth == 0) {
    for (size_t i = 0; i < st.meval_prints.size(); ++i) {
      if (st.meval_prints[i] == print) {
        return BColumnRef(0, static_cast<int>(num_keys + num_aggs + i), print,
                          st.measure_evals[i].type.ValueType());
      }
    }
    return Status(ErrorCode::kBind,
                  "internal: measure evaluation not collected");
  }
  if (e.kind == BoundExprKind::kColumnRef && e.depth == 0) {
    return Status(
        ErrorCode::kBind,
        StrCat("column '", e.name,
               "' must appear in GROUP BY or inside an aggregate function"));
  }
  if (e.kind == BoundExprKind::kSubquery ||
      e.kind == BoundExprKind::kInSubquery ||
      e.kind == BoundExprKind::kExists) {
    BoundExprPtr clone = e.Clone();
    if (clone->operand) {
      MSQL_ASSIGN_OR_RETURN(clone->operand,
                            TransformForAggregate(*clone->operand, st));
    }
    // free_vars are memoization keys relative to this scope. Keys that are
    // group columns transform directly; any other depth-0 reference (e.g.
    // orderDate when grouping by YEAR(orderDate)) is subsumed by the group
    // keys themselves, since after remapping the subplan only sees group
    // slots of this scope.
    std::vector<BoundExprPtr> new_free_vars;
    bool need_all_keys = false;
    for (auto& fv : clone->free_vars) {
      auto transformed = TransformForAggregate(*fv, st);
      if (transformed.ok()) {
        new_free_vars.push_back(transformed.take());
      } else {
        need_all_keys = true;
      }
    }
    if (need_all_keys) {
      for (size_t i = 0; i < st.group_exprs.size(); ++i) {
        new_free_vars.push_back(BColumnRef(0, static_cast<int>(i),
                                           st.group_names[i],
                                           st.group_types[i]));
      }
    }
    clone->free_vars = std::move(new_free_vars);
    return clone;
  }

  // Structural recursion.
  BoundExprPtr clone = e.Clone();
  Status status = Status::Ok();
  auto transform_child = [&](BoundExprPtr& child) {
    if (child == nullptr || !status.ok()) return;
    auto r = TransformForAggregate(*child, st);
    if (!r.ok()) {
      status = r.status();
      return;
    }
    child = std::move(r.value());
  };
  for (auto& a : clone->args) transform_child(a);
  transform_child(clone->filter);
  for (auto& [w, t] : clone->when_clauses) {
    transform_child(w);
    transform_child(t);
  }
  transform_child(clone->else_expr);
  transform_child(clone->operand);
  MSQL_RETURN_IF_ERROR(status);
  return clone;
}

// ---------------------------------------------------------------------------
// Measure helpers
// ---------------------------------------------------------------------------

Status Binder::ValidateMeasureFormula(const BoundExpr& e,
                                      const std::string& name) {
  // Every depth-0 column reference must be inside an aggregate argument.
  std::function<Status(const BoundExpr&, bool)> walk =
      [&](const BoundExpr& n, bool inside_agg) -> Status {
    switch (n.kind) {
      case BoundExprKind::kColumnRef:
        if (n.depth == 0 && !inside_agg) {
          return Status(
              ErrorCode::kBind,
              StrCat("measure '", name, "': column '", n.name,
                     "' must appear inside an aggregate function (measures "
                     "must be aggregatable; see paper section 3.2)"));
        }
        return Status::Ok();
      case BoundExprKind::kAgg:
        if (inside_agg) {
          return Status(ErrorCode::kBind,
                        StrCat("measure '", name,
                               "': nested aggregate functions"));
        }
        for (const auto& a : n.args) MSQL_RETURN_IF_ERROR(walk(*a, true));
        if (n.filter) MSQL_RETURN_IF_ERROR(walk(*n.filter, true));
        return Status::Ok();
      case BoundExprKind::kSubquery:
      case BoundExprKind::kInSubquery:
      case BoundExprKind::kExists:
        return Status(ErrorCode::kBind,
                      StrCat("measure '", name,
                             "': subqueries are not supported in measure "
                             "formulas"));
      case BoundExprKind::kMeasureEval:
        return Status::Ok();
      default:
        break;
    }
    for (const auto& a : n.args) MSQL_RETURN_IF_ERROR(walk(*a, inside_agg));
    if (n.filter) MSQL_RETURN_IF_ERROR(walk(*n.filter, inside_agg));
    for (const auto& [w, t] : n.when_clauses) {
      MSQL_RETURN_IF_ERROR(walk(*w, inside_agg));
      MSQL_RETURN_IF_ERROR(walk(*t, inside_agg));
    }
    if (n.else_expr) MSQL_RETURN_IF_ERROR(walk(*n.else_expr, inside_agg));
    if (n.operand) MSQL_RETURN_IF_ERROR(walk(*n.operand, inside_agg));
    return Status::Ok();
  };
  return walk(e, false);
}

bool Binder::IsPureScalar(const BoundExpr& e) {
  bool pure = true;
  VisitNodes(e, [&](const BoundExpr& n) {
    switch (n.kind) {
      case BoundExprKind::kAgg:
      case BoundExprKind::kMeasureEval:
      case BoundExprKind::kSubquery:
      case BoundExprKind::kInSubquery:
      case BoundExprKind::kExists:
      case BoundExprKind::kCurrent:
      case BoundExprKind::kRowIndex:
      case BoundExprKind::kGroupingBit:
        pure = false;
        break;
      case BoundExprKind::kColumnRef:
        if (n.depth != 0) pure = false;
        break;
      default:
        break;
    }
  });
  return pure;
}

Result<BoundExprPtr> Binder::RewriteThroughProvenance(
    const BoundExpr& e,
    const std::unordered_map<int, std::shared_ptr<BoundExpr>>& map) {
  if (e.kind == BoundExprKind::kColumnRef) {
    if (e.depth != 0) {
      return Status(ErrorCode::kBind, "correlated reference in provenance");
    }
    auto it = map.find(e.column);
    if (it == map.end()) {
      return Status(ErrorCode::kBind, "no provenance for column");
    }
    return it->second->Clone();
  }
  if (!IsPureScalar(e)) {
    return Status(ErrorCode::kBind, "impure expression in provenance");
  }
  BoundExprPtr clone = e.Clone();
  Status status = Status::Ok();
  auto rewrite_child = [&](BoundExprPtr& child) {
    if (child == nullptr || !status.ok()) return;
    auto r = RewriteThroughProvenance(*child, map);
    if (!r.ok()) {
      status = r.status();
      return;
    }
    child = std::move(r.value());
  };
  for (auto& a : clone->args) rewrite_child(a);
  for (auto& [w, t] : clone->when_clauses) {
    rewrite_child(w);
    rewrite_child(t);
  }
  rewrite_child(clone->else_expr);
  rewrite_child(clone->operand);
  MSQL_RETURN_IF_ERROR(status);
  return clone;
}

}  // namespace msql
