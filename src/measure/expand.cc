#include "measure/expand.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "binder/functions.h"
#include "common/fault_injection.h"
#include "common/string_util.h"

namespace msql {

namespace {

Status NotImpl(const std::string& what) {
  return Status(ErrorCode::kNotImplemented,
                "measure expansion does not support " + what +
                    " (the engine executes it natively)");
}

// The measure-defining query backing the outer query's FROM item.
struct ProviderInfo {
  TableRefPtr source_from;                    // the defining FROM (clone)
  ExprPtr source_where;                       // baked-in filter, may be null
  std::map<std::string, ExprPtr> measures;    // lower(name) -> formula
  std::map<std::string, ExprPtr> dims;        // lower(name) -> source expr
  bool star_identity = false;                 // SELECT * passthrough
};

Status ResolveProvider(const TableRef& from, const Catalog& catalog,
                       const std::string& user, int depth, ProviderInfo* out,
                       bool* no_measures);

Status ResolveProviderSelect(const SelectStmt& select, const Catalog& catalog,
                             const std::string& user, int depth,
                             ProviderInfo* out, bool* no_measures) {
  (void)depth;
  if (!select.group_by.empty() || select.set_op != SetOpKind::kNone ||
      !select.ctes.empty() || select.distinct) {
    *no_measures = true;
    return Status::Ok();
  }
  bool any_measure = false;
  for (const SelectItem& item : select.select_list) {
    if (item.is_measure) any_measure = true;
  }
  if (!any_measure) {
    *no_measures = true;
    return Status::Ok();
  }
  if (select.from == nullptr) {
    return NotImpl("measures without a FROM clause");
  }
  if (select.from->kind == TableRefKind::kJoin) {
    return NotImpl("measures defined over joins");
  }
  // The defining FROM must bottom out at a base table; a chain of measure
  // views is composition, which the textual expansion does not cover.
  if (select.from->kind == TableRefKind::kBaseTable) {
    const auto entry = catalog.Find(select.from->table_name);
    if (entry == nullptr) {
      return Status(ErrorCode::kCatalog, "table or view '" +
                                             select.from->table_name +
                                             "' does not exist");
    }
    MSQL_RETURN_IF_ERROR(catalog.CheckAccess(*entry, user));
    if (entry->kind == CatalogEntry::Kind::kView) {
      return NotImpl("measures defined over views");
    }
  }
  out->source_from = select.from->Clone();
  out->source_from->alias.clear();
  if (select.where != nullptr) out->source_where = select.where->Clone();
  for (const SelectItem& item : select.select_list) {
    if (item.is_star) {
      out->star_identity = true;
      continue;
    }
    std::string name =
        item.alias.empty()
            ? (item.expr->kind == ExprKind::kColumnRef ? item.expr->parts.back()
                                                       : "")
            : item.alias;
    if (name.empty()) continue;
    if (item.is_measure) {
      out->measures[ToLower(name)] = item.expr->Clone();
    } else {
      out->dims[ToLower(name)] = item.expr->Clone();
    }
  }
  return Status::Ok();
}

Status ResolveProvider(const TableRef& from, const Catalog& catalog,
                       const std::string& user, int depth, ProviderInfo* out,
                       bool* no_measures) {
  if (depth > 8) return NotImpl("deeply nested providers");
  switch (from.kind) {
    case TableRefKind::kBaseTable: {
      const auto entry = catalog.Find(from.table_name);
      if (entry == nullptr) {
        return Status(ErrorCode::kCatalog,
                      "table or view '" + from.table_name +
                          "' does not exist");
      }
      MSQL_RETURN_IF_ERROR(catalog.CheckAccess(*entry, user));
      if (entry->kind == CatalogEntry::Kind::kTable) {
        *no_measures = true;
        return Status::Ok();
      }
      return ResolveProviderSelect(*entry->view_ast, catalog, user, depth + 1,
                                   out, no_measures);
    }
    case TableRefKind::kSubquery:
      return ResolveProviderSelect(*from.subquery, catalog, user, depth + 1,
                                   out, no_measures);
    case TableRefKind::kJoin:
      return NotImpl("joins in the outer query");
  }
  return NotImpl("this FROM shape");
}

// Clones `e`, re-qualifying every column reference with `alias`.
ExprPtr Requalify(const Expr& e, const std::string& alias) {
  ExprPtr c = e.Clone();
  std::function<void(Expr*)> walk = [&](Expr* n) {
    if (n->kind == ExprKind::kColumnRef) {
      n->parts = {alias, n->parts.back()};
    }
    for (auto& a : n->args) walk(a.get());
    if (n->filter) walk(n->filter.get());
    if (n->left) walk(n->left.get());
    if (n->right) walk(n->right.get());
    if (n->case_operand) walk(n->case_operand.get());
    for (auto& [w, t] : n->when_clauses) {
      walk(w.get());
      walk(t.get());
    }
    if (n->else_expr) walk(n->else_expr.get());
    for (auto& i : n->in_list) walk(i.get());
    if (n->between_low) walk(n->between_low.get());
    if (n->between_high) walk(n->between_high.get());
    // Subqueries inside expansion fragments are left untouched.
  };
  walk(c.get());
  return c;
}

// Expansion context for one outer query.
struct ExpansionCtx {
  const ProviderInfo* provider;
  const Catalog* catalog;
  std::string outer_alias;     // o
  std::string inner_alias;     // i
  const SelectStmt* query;
  std::vector<const Expr*> group_keys;  // resolved group-key ASTs
  // Outer select aliases usable as ad-hoc dimensions (listing 10's
  // orderYear = YEAR(orderDate)).
  std::map<std::string, const Expr*> select_aliases;
  // Ungrouped (detail-grain) queries only. A top-level bare measure item
  // renders at the result's grain: its context pins the dimensions that
  // survive in the select list (`result_keys`). A measure nested in an
  // expression or carrying AT modifiers evaluates at row grain: every
  // dimension of the provider is pinned (`row_keys`), matching the
  // engine's per-row default context.
  std::vector<const Expr*> result_keys;
  std::vector<const Expr*> row_keys;
  std::vector<ExprPtr> key_storage;  // owns synthesized column refs
};

// Maps an outer-query expression onto the measure source with qualifier
// `alias`: references to provider output columns become the provider's
// defining expressions; outer select aliases act as ad-hoc dimensions.
Result<ExprPtr> MapThroughDims(const Expr& e, const ExpansionCtx& cx,
                               const std::string& alias) {
  if (e.kind == ExprKind::kColumnRef) {
    const std::string& name = e.parts.back();
    if (e.parts.size() == 2 &&
        !EqualsIgnoreCase(e.parts[0], cx.outer_alias)) {
      return NotImpl("references to other tables inside measure contexts");
    }
    auto it = cx.provider->dims.find(ToLower(name));
    if (it != cx.provider->dims.end()) {
      return Requalify(*it->second, alias);
    }
    auto alias_it = cx.select_aliases.find(ToLower(name));
    if (alias_it != cx.select_aliases.end()) {
      return MapThroughDims(*alias_it->second, cx, alias);
    }
    if (cx.provider->star_identity) {
      return MakeColumnRef({alias, name});
    }
    return Status(ErrorCode::kBind,
                  "column '" + name + "' is not a dimension of the provider");
  }
  ExprPtr c = e.Clone();
  Status status = Status::Ok();
  std::function<void(ExprPtr&)> walk = [&](ExprPtr& n) {
    if (n == nullptr || !status.ok()) return;
    if (n->kind == ExprKind::kColumnRef) {
      auto r = MapThroughDims(*n, cx, alias);
      if (!r.ok()) {
        status = r.status();
        return;
      }
      n = std::move(r.value());
      return;
    }
    if (n->kind == ExprKind::kSubquery || n->kind == ExprKind::kExists ||
        n->kind == ExprKind::kInSubquery) {
      status = NotImpl("subqueries inside measure contexts");
      return;
    }
    for (auto& a : n->args) walk(a);
    if (n->filter) walk(n->filter);
    if (n->left) walk(n->left);
    if (n->right) walk(n->right);
    if (n->case_operand) walk(n->case_operand);
    for (auto& [w, t] : n->when_clauses) {
      walk(w);
      walk(t);
    }
    if (n->else_expr) walk(n->else_expr);
    for (auto& i : n->in_list) walk(i);
    if (n->between_low) walk(n->between_low);
    if (n->between_high) walk(n->between_high);
  };
  walk(c);
  MSQL_RETURN_IF_ERROR(status);
  return c;
}

ExprPtr Conjoin(std::vector<ExprPtr> preds) {
  ExprPtr result;
  for (ExprPtr& p : preds) {
    if (p == nullptr) continue;
    if (result == nullptr) {
      result = std::move(p);
    } else {
      result = MakeBinary(BinaryOp::kAnd, std::move(result), std::move(p));
    }
  }
  return result;
}

// If `e` (possibly inside AGGREGATE(...) or ... AT (...)) denotes a measure
// of the provider, returns its lowercase name.
const Expr* AsMeasureRef(const Expr& e, const ExpansionCtx& cx,
                         std::string* name) {
  if (e.kind == ExprKind::kColumnRef) {
    const std::string& n = e.parts.back();
    if (e.parts.size() == 2 &&
        !EqualsIgnoreCase(e.parts[0], cx.outer_alias)) {
      return nullptr;
    }
    auto it = cx.provider->measures.find(ToLower(n));
    if (it == cx.provider->measures.end()) return nullptr;
    *name = ToLower(n);
    return &e;
  }
  return nullptr;
}

// Builds the correlated scalar subquery replacing one measure reference.
// `visible` adds the outer WHERE clause terms; `keys` are the dimensions
// seeding the default context (group keys, or the grain-appropriate key
// set for ungrouped queries).
Result<ExprPtr> BuildSubquery(const std::string& measure_name,
                              const std::vector<AtModifier>* modifiers,
                              bool visible,
                              const std::vector<const Expr*>& keys,
                              const ExpansionCtx& cx) {
  const ExprPtr& formula = cx.provider->measures.at(measure_name);

  // Context terms keyed by the printed source expression.
  std::vector<std::pair<std::string, ExprPtr>> dim_terms;
  std::vector<ExprPtr> extra_preds;

  auto key_of = [&](const Expr& dim) -> Result<std::string> {
    MSQL_ASSIGN_OR_RETURN(ExprPtr src, MapThroughDims(dim, cx,
                                                      cx.inner_alias));
    return src->ToString();
  };
  auto set_dim_term = [&](const Expr& dim, ExprPtr pred) -> Status {
    MSQL_ASSIGN_OR_RETURN(std::string key, key_of(dim));
    for (auto& [k, p] : dim_terms) {
      if (k == key) {
        p = std::move(pred);
        return Status::Ok();
      }
    }
    dim_terms.emplace_back(std::move(key), std::move(pred));
    return Status::Ok();
  };

  // Default context: one term per key dimension, inner side matching the
  // outer side. IS NOT DISTINCT FROM, not `=`: the engine's native context
  // admits rows via Value::NotDistinct, so a NULL-valued dimension (NULL
  // group keys exist) must still match its own rows.
  std::set<std::string> entry_keys;  // mapped key strings of `keys`
  std::set<std::string> pristine;    // keys whose default term is intact
  // Keys whose VISIBLE row-set restriction is currently represented by
  // their intact default dim term. The native row-id set survives ALL d /
  // SET d (only kDimEq terms are removed), so when one of these terms is
  // later dropped, the restriction must be re-emitted as a frozen
  // predicate.
  std::set<std::string> visible_covered;
  for (const Expr* g : keys) {
    MSQL_ASSIGN_OR_RETURN(std::string key, key_of(*g));
    MSQL_ASSIGN_OR_RETURN(ExprPtr inner,
                          MapThroughDims(*g, cx, cx.inner_alias));
    MSQL_ASSIGN_OR_RETURN(ExprPtr outer,
                          MapThroughDims(*g, cx, cx.outer_alias));
    MSQL_RETURN_IF_ERROR(set_dim_term(
        *g, MakeBinary(BinaryOp::kIsNotDistinctFrom, std::move(inner),
                       std::move(outer))));
    entry_keys.insert(key);
    pristine.insert(std::move(key));
  }
  auto add_visible = [&]() -> Status {
    // VISIBLE restricts to the source rows reachable from the call site's
    // cell: its key terms — re-added when a prior modifier cleared or
    // overrode them, the way the engine's row-id set survives a context
    // Clear() — plus the query's WHERE clause.
    for (const Expr* g : keys) {
      MSQL_ASSIGN_OR_RETURN(std::string key, key_of(*g));
      if (pristine.count(key) > 0) {
        // The intact default term already restricts; remember that it now
        // also carries the row-set restriction in case it is removed later.
        visible_covered.insert(key);
        continue;
      }
      MSQL_ASSIGN_OR_RETURN(ExprPtr inner,
                            MapThroughDims(*g, cx, cx.inner_alias));
      MSQL_ASSIGN_OR_RETURN(ExprPtr outer,
                            MapThroughDims(*g, cx, cx.outer_alias));
      extra_preds.push_back(MakeBinary(BinaryOp::kIsNotDistinctFrom,
                                       std::move(inner), std::move(outer)));
    }
    if (cx.query->where != nullptr) {
      MSQL_ASSIGN_OR_RETURN(
          ExprPtr mapped,
          MapThroughDims(*cx.query->where, cx, cx.inner_alias));
      extra_preds.push_back(std::move(mapped));
    }
    return Status::Ok();
  };
  // Re-emits the row-set restriction for `key` as a frozen predicate when
  // its covering default term is about to be removed or overridden.
  auto freeze_if_covered = [&](const std::string& key) -> Status {
    auto it = visible_covered.find(key);
    if (it == visible_covered.end()) return Status::Ok();
    visible_covered.erase(it);
    for (const Expr* g : keys) {
      MSQL_ASSIGN_OR_RETURN(std::string k, key_of(*g));
      if (k != key) continue;
      MSQL_ASSIGN_OR_RETURN(ExprPtr inner,
                            MapThroughDims(*g, cx, cx.inner_alias));
      MSQL_ASSIGN_OR_RETURN(ExprPtr outer,
                            MapThroughDims(*g, cx, cx.outer_alias));
      extra_preds.push_back(MakeBinary(BinaryOp::kIsNotDistinctFrom,
                                       std::move(inner), std::move(outer)));
      break;
    }
    return Status::Ok();
  };
  // Substitutes CURRENT d: the outer-side expression when d is pinned by
  // the entry context, NULL otherwise (unpinned CURRENT is NULL, §3.5).
  auto subst_current = [&](ExprPtr& value) -> Status {
    Status status = Status::Ok();
    std::function<void(ExprPtr&)> subst = [&](ExprPtr& n) {
      if (n == nullptr || !status.ok()) return;
      if (n->kind == ExprKind::kCurrent) {
        Expr dim_ref;
        dim_ref.kind = ExprKind::kColumnRef;
        dim_ref.parts = {n->current_dim};
        auto key = key_of(dim_ref);
        if (!key.ok() || entry_keys.count(key.value()) == 0) {
          n = MakeLiteral(Value::Null());
          return;
        }
        auto r = MapThroughDims(dim_ref, cx, cx.outer_alias);
        if (!r.ok()) {
          status = r.status();
          return;
        }
        n = std::move(r.value());
        return;
      }
      for (auto& a : n->args) subst(a);
      if (n->left) subst(n->left);
      if (n->right) subst(n->right);
      if (n->case_operand) subst(n->case_operand);
      for (auto& [w, t] : n->when_clauses) {
        subst(w);
        subst(t);
      }
      if (n->else_expr) subst(n->else_expr);
      for (auto& i : n->in_list) subst(i);
      if (n->between_low) subst(n->between_low);
      if (n->between_high) subst(n->between_high);
    };
    subst(value);
    return status;
  };
  if (visible) MSQL_RETURN_IF_ERROR(add_visible());

  // Apply AT modifiers in order.
  if (modifiers != nullptr) {
    for (const AtModifier& mod : *modifiers) {
      switch (mod.kind) {
        case AtModifier::Kind::kAll:
          dim_terms.clear();
          extra_preds.clear();
          pristine.clear();
          visible_covered.clear();
          break;
        case AtModifier::Kind::kAllDims:
          for (const ExprPtr& dim : mod.dims) {
            MSQL_ASSIGN_OR_RETURN(std::string key, key_of(*dim));
            MSQL_RETURN_IF_ERROR(freeze_if_covered(key));
            dim_terms.erase(
                std::remove_if(dim_terms.begin(), dim_terms.end(),
                               [&](const auto& kv) { return kv.first == key; }),
                dim_terms.end());
            pristine.erase(key);
          }
          break;
        case AtModifier::Kind::kSet: {
          ExprPtr value = mod.value->Clone();
          MSQL_RETURN_IF_ERROR(subst_current(value));
          MSQL_ASSIGN_OR_RETURN(
              ExprPtr inner, MapThroughDims(*mod.set_dim, cx, cx.inner_alias));
          MSQL_RETURN_IF_ERROR(set_dim_term(
              *mod.set_dim, MakeBinary(BinaryOp::kIsNotDistinctFrom,
                                       std::move(inner), std::move(value))));
          MSQL_ASSIGN_OR_RETURN(std::string set_key, key_of(*mod.set_dim));
          // The default term for this dimension is overridden now, which a
          // later VISIBLE must compensate for.
          MSQL_RETURN_IF_ERROR(freeze_if_covered(set_key));
          pristine.erase(set_key);
          break;
        }
        case AtModifier::Kind::kVisible:
          MSQL_RETURN_IF_ERROR(add_visible());
          break;
        case AtModifier::Kind::kWhere: {
          dim_terms.clear();
          extra_preds.clear();
          pristine.clear();
          visible_covered.clear();
          // Unqualified references denote source dimensions (inner side);
          // qualified references to the outer alias stay as correlations.
          // CURRENT resolves against the entry context first.
          ExprPtr pred = mod.predicate->Clone();
          MSQL_RETURN_IF_ERROR(subst_current(pred));
          Status status = Status::Ok();
          std::function<void(ExprPtr&)> walk = [&](ExprPtr& n) {
            if (n == nullptr || !status.ok()) return;
            if (n->kind == ExprKind::kColumnRef) {
              if (n->parts.size() == 1) {
                Expr ref;
                ref.kind = ExprKind::kColumnRef;
                ref.parts = n->parts;
                auto r = MapThroughDims(ref, cx, cx.inner_alias);
                if (!r.ok()) {
                  status = r.status();
                  return;
                }
                n = std::move(r.value());
              }
              return;
            }
            for (auto& a : n->args) walk(a);
            if (n->left) walk(n->left);
            if (n->right) walk(n->right);
            if (n->case_operand) walk(n->case_operand);
            for (auto& [w, t] : n->when_clauses) {
              walk(w);
              walk(t);
            }
            if (n->else_expr) walk(n->else_expr);
            for (auto& i : n->in_list) walk(i);
            if (n->between_low) walk(n->between_low);
            if (n->between_high) walk(n->between_high);
          };
          walk(pred);
          MSQL_RETURN_IF_ERROR(status);
          extra_preds.push_back(std::move(pred));
          break;
        }
      }
    }
  }

  // Assemble the subquery.
  auto sub = std::make_unique<SelectStmt>();
  SelectItem item;
  item.expr = Requalify(*formula, cx.inner_alias);
  sub->select_list.push_back(std::move(item));
  sub->from = cx.provider->source_from->Clone();
  sub->from->alias = cx.inner_alias;

  std::vector<ExprPtr> preds;
  for (auto& [k, p] : dim_terms) preds.push_back(std::move(p));
  for (auto& p : extra_preds) preds.push_back(std::move(p));
  if (cx.provider->source_where != nullptr) {
    preds.push_back(Requalify(*cx.provider->source_where, cx.inner_alias));
  }
  sub->where = Conjoin(std::move(preds));

  auto wrapper = std::make_unique<Expr>();
  wrapper->kind = ExprKind::kSubquery;
  wrapper->subquery = std::move(sub);
  return wrapper;
}

// Rewrites an outer expression: measure references become subqueries, other
// column references are mapped through the provider's dimensions (so the
// rewritten query can run directly over the source table).
//
// `top_level` is true only for the direct expression of a select item: a
// bare measure there renders at the result's grain, whereas a measure
// nested in an expression (or carrying AT modifiers) evaluates at row
// grain. For grouped queries both grains are the group keys.
Result<ExprPtr> RewriteOuterExpr(const Expr& e, const ExpansionCtx& cx,
                                 bool top_level) {
  const bool grouped = !cx.query->group_by.empty();
  const std::vector<const Expr*>& bare_keys =
      grouped ? cx.group_keys : (top_level ? cx.result_keys : cx.row_keys);
  const std::vector<const Expr*>& at_keys =
      grouped ? cx.group_keys : cx.row_keys;

  std::string mname;
  // AGGREGATE(m) and bare m.
  if (e.kind == ExprKind::kFuncCall && EqualsIgnoreCase(e.func_name,
                                                        "AGGREGATE")) {
    if (e.args.size() == 1 &&
        AsMeasureRef(*e.args[0], cx, &mname) != nullptr) {
      return BuildSubquery(mname, nullptr, /*visible=*/true, cx.group_keys,
                           cx);
    }
    if (e.args.size() == 1 && e.args[0]->kind == ExprKind::kAt &&
        AsMeasureRef(*e.args[0]->left, cx, &mname) != nullptr) {
      // AGGREGATE(m AT (...)): VISIBLE first, then the inner modifiers.
      return BuildSubquery(mname, &e.args[0]->at_modifiers, /*visible=*/true,
                           cx.group_keys, cx);
    }
    return NotImpl("this AGGREGATE argument");
  }
  if (AsMeasureRef(e, cx, &mname) != nullptr) {
    return BuildSubquery(mname, nullptr, /*visible=*/false, bare_keys, cx);
  }
  if (e.kind == ExprKind::kAt) {
    if (AsMeasureRef(*e.left, cx, &mname) != nullptr) {
      // At row grain (ungrouped, non-aggregate query) VISIBLE restricts to
      // the single source row behind the cell. A predicate over column
      // values cannot tell duplicate rows apart, so that row-id set has no
      // plain-SQL rendering. (Grouped and aggregate grains are fine: there
      // the visible set is characterized by the group keys / the WHERE.)
      if (!grouped && !cx.row_keys.empty()) {
        for (const AtModifier& mod : e.at_modifiers) {
          if (mod.kind == AtModifier::Kind::kVisible) {
            return NotImpl("VISIBLE at row grain");
          }
        }
      }
      return BuildSubquery(mname, &e.at_modifiers, /*visible=*/false, at_keys,
                           cx);
    }
    return NotImpl("AT over compound expressions");
  }
  if (e.kind == ExprKind::kColumnRef) {
    return MapThroughDims(e, cx, cx.outer_alias);
  }
  if (e.kind == ExprKind::kSubquery || e.kind == ExprKind::kExists ||
      e.kind == ExprKind::kInSubquery) {
    return e.Clone();  // untouched
  }
  ExprPtr c = e.Clone();
  Status status = Status::Ok();
  auto rewrite = [&](ExprPtr& n) {
    if (n == nullptr || !status.ok()) return;
    auto r = RewriteOuterExpr(*n, cx, /*top_level=*/false);
    if (!r.ok()) {
      status = r.status();
      return;
    }
    n = std::move(r.value());
  };
  for (auto& a : c->args) rewrite(a);
  if (c->filter) rewrite(c->filter);
  if (c->left) rewrite(c->left);
  if (c->right) rewrite(c->right);
  if (c->case_operand) rewrite(c->case_operand);
  for (auto& [w, t] : c->when_clauses) {
    rewrite(w);
    rewrite(t);
  }
  if (c->else_expr) rewrite(c->else_expr);
  for (auto& i : c->in_list) rewrite(i);
  if (c->between_low) rewrite(c->between_low);
  if (c->between_high) rewrite(c->between_high);
  MSQL_RETURN_IF_ERROR(status);
  return c;
}

}  // namespace

Result<std::string> ExpandMeasures(const SelectStmt& query,
                                   const Catalog& catalog,
                                   const std::string& user) {
  MSQL_FAULT_POINT("measure.expand");
  if (query.set_op != SetOpKind::kNone || !query.ctes.empty()) {
    return NotImpl("set operations or WITH clauses");
  }
  if (query.from == nullptr) return query.ToString();

  ProviderInfo provider;
  bool no_measures = false;
  MSQL_RETURN_IF_ERROR(
      ResolveProvider(*query.from, catalog, user, 0, &provider, &no_measures));
  if (no_measures) return query.ToString();

  ExpansionCtx cx;
  cx.provider = &provider;
  cx.catalog = &catalog;
  cx.outer_alias = query.from->alias.empty() ? "o" : query.from->alias;
  cx.inner_alias = cx.outer_alias == "i" ? "i2" : "i";
  cx.query = &query;
  for (const SelectItem& item : query.select_list) {
    if (!item.is_star && !item.is_measure && !item.alias.empty()) {
      cx.select_aliases[ToLower(item.alias)] = item.expr.get();
    }
  }

  // Resolve group keys (plain expressions only; grouping sets cannot be
  // expressed as a single static expansion).
  for (const GroupItem& g : query.group_by) {
    if (g.kind != GroupItem::Kind::kExpr) {
      return NotImpl("ROLLUP/CUBE/GROUPING SETS");
    }
    const Expr* key = g.expr.get();
    // Substitute select aliases.
    if (key->kind == ExprKind::kColumnRef && key->parts.size() == 1) {
      for (const SelectItem& item : query.select_list) {
        if (!item.is_star && EqualsIgnoreCase(item.alias, key->parts[0]) &&
            !item.is_measure) {
          key = item.expr.get();
        }
      }
    }
    cx.group_keys.push_back(key);
  }

  // Ungrouped queries: classify the grain (see RewriteOuterExpr).
  bool aggregate_grain = false;
  // A plain aggregate call beside AGGREGATE(...) still scans the outer
  // source, so that query keeps its FROM and WHERE.
  bool plain_aggregate = false;
  if (query.group_by.empty()) {
    // Is any measure consumed through AGGREGATE(...)? Then the query
    // collapses to a single row, like a plain aggregate query would.
    auto is_aggregate = [](const Expr& e) {
      return EqualsIgnoreCase(e.func_name, "AGGREGATE");
    };
    auto is_plain_aggregate = [](const Expr& e) {
      return !EqualsIgnoreCase(e.func_name, "AGGREGATE") &&
             LookupAggFunction(e.func_name) != AggId::kInvalid;
    };
    std::function<bool(const Expr&, bool (*)(const Expr&))> has_call =
        [&](const Expr& e, bool (*pred)(const Expr&)) {
      if (e.kind == ExprKind::kFuncCall && pred(e)) return true;
      bool found = false;
      auto visit = [&](const ExprPtr& c) {
        if (c != nullptr && !found) found = has_call(*c, pred);
      };
      for (const auto& a : e.args) visit(a);
      visit(e.filter);
      visit(e.left);
      visit(e.right);
      visit(e.case_operand);
      for (const auto& [w, t] : e.when_clauses) {
        visit(w);
        visit(t);
      }
      visit(e.else_expr);
      for (const auto& i : e.in_list) visit(i);
      visit(e.between_low);
      visit(e.between_high);
      return found;
    };
    for (const SelectItem& item : query.select_list) {
      if (item.is_star || item.expr == nullptr) continue;
      aggregate_grain = aggregate_grain || has_call(*item.expr, is_aggregate);
      plain_aggregate =
          plain_aggregate || has_call(*item.expr, is_plain_aggregate);
    }

    if (!aggregate_grain) {
      // Result grain: the plain dimension columns surviving in the select
      // list. Row grain: every dimension of the provider.
      for (const SelectItem& item : query.select_list) {
        if (item.is_star || item.expr == nullptr) continue;
        if (item.expr->kind != ExprKind::kColumnRef) continue;
        const std::string& name = item.expr->parts.back();
        if (cx.provider->measures.count(ToLower(name)) > 0) continue;
        if (!MapThroughDims(*item.expr, cx, cx.inner_alias).ok()) continue;
        cx.result_keys.push_back(item.expr.get());
      }
      std::vector<std::string> dim_names;
      if (provider.star_identity &&
          provider.source_from->kind == TableRefKind::kBaseTable) {
        const auto entry = catalog.Find(provider.source_from->table_name);
        if (entry != nullptr && entry->table != nullptr) {
          for (const Column& col : entry->table->schema().columns()) {
            dim_names.push_back(col.name);
          }
        }
      }
      for (const auto& [name, expr] : provider.dims) {
        (void)expr;
        dim_names.push_back(name);
      }
      for (const std::string& name : dim_names) {
        cx.key_storage.push_back(MakeColumnRef({name}));
        cx.row_keys.push_back(cx.key_storage.back().get());
      }
    }
  }

  auto rewritten = std::make_unique<SelectStmt>();
  rewritten->distinct = query.distinct;

  for (const SelectItem& item : query.select_list) {
    if (item.is_star) {
      return NotImpl("'*' in queries over measure providers");
    }
    if (item.is_measure) {
      return NotImpl("defining new measures while expanding");
    }
    SelectItem out;
    MSQL_ASSIGN_OR_RETURN(out.expr,
                          RewriteOuterExpr(*item.expr, cx, /*top_level=*/true));
    out.alias = item.alias;
    rewritten->select_list.push_back(std::move(out));
  }

  if (aggregate_grain && query.having != nullptr) {
    return NotImpl("HAVING without GROUP BY");
  }
  if (aggregate_grain && !plain_aggregate) {
    // Single-row query: every measure context already folds in the visible
    // predicate, so the outer scan (and its WHERE) would only multiply the
    // row out per source row. ORDER BY over one row is dropped.
    if (query.limit != nullptr) rewritten->limit = query.limit->Clone();
    if (query.offset != nullptr) rewritten->offset = query.offset->Clone();
    return rewritten->ToString();
  }

  rewritten->from = provider.source_from->Clone();
  rewritten->from->alias = cx.outer_alias;

  std::vector<ExprPtr> where_parts;
  if (query.where != nullptr) {
    MSQL_ASSIGN_OR_RETURN(ExprPtr mapped,
                          MapThroughDims(*query.where, cx, cx.outer_alias));
    where_parts.push_back(std::move(mapped));
  }
  if (provider.source_where != nullptr) {
    where_parts.push_back(Requalify(*provider.source_where, cx.outer_alias));
  }
  rewritten->where = Conjoin(std::move(where_parts));

  for (const Expr* key : cx.group_keys) {
    GroupItem gi;
    gi.kind = GroupItem::Kind::kExpr;
    MSQL_ASSIGN_OR_RETURN(gi.expr, MapThroughDims(*key, cx, cx.outer_alias));
    rewritten->group_by.push_back(std::move(gi));
  }
  if (query.having != nullptr) {
    MSQL_ASSIGN_OR_RETURN(
        rewritten->having,
        RewriteOuterExpr(*query.having, cx, /*top_level=*/false));
  }
  for (const OrderItem& o : query.order_by) {
    OrderItem oi;
    // Ordinals and aliases survive unchanged; expressions are rewritten.
    if ((o.expr->kind == ExprKind::kLiteral &&
         o.expr->literal.kind() == TypeKind::kInt64)) {
      oi.expr = o.expr->Clone();
    } else if (o.expr->kind == ExprKind::kColumnRef &&
               o.expr->parts.size() == 1) {
      bool is_alias = false;
      for (const SelectItem& item : query.select_list) {
        if (EqualsIgnoreCase(item.alias, o.expr->parts[0])) is_alias = true;
      }
      if (is_alias) {
        oi.expr = o.expr->Clone();
      } else {
        MSQL_ASSIGN_OR_RETURN(
            oi.expr, RewriteOuterExpr(*o.expr, cx, /*top_level=*/false));
      }
    } else {
      MSQL_ASSIGN_OR_RETURN(
          oi.expr, RewriteOuterExpr(*o.expr, cx, /*top_level=*/false));
    }
    oi.desc = o.desc;
    oi.nulls_first = o.nulls_first;
    rewritten->order_by.push_back(std::move(oi));
  }
  if (query.limit != nullptr) rewritten->limit = query.limit->Clone();
  if (query.offset != nullptr) rewritten->offset = query.offset->Clone();

  return rewritten->ToString();
}

}  // namespace msql
