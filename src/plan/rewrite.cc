#include "plan/rewrite.h"

#include <utility>

namespace msql {

JoinSide SideOf(const BoundExpr& e, size_t lv, size_t rv, size_t lh) {
  JoinSide side = JoinSide::kNeither;
  bool poisoned = false;
  VisitNodes(e, [&](const BoundExpr& n) {
    if (n.kind == BoundExprKind::kSubquery ||
        n.kind == BoundExprKind::kInSubquery ||
        n.kind == BoundExprKind::kExists ||
        n.kind == BoundExprKind::kMeasureEval) {
      poisoned = true;
    }
    if (n.kind != BoundExprKind::kColumnRef || n.depth != 0) return;
    size_t c = static_cast<size_t>(n.column);
    JoinSide s = (c < lv || (c >= lv + rv && c < lv + rv + lh))
                     ? JoinSide::kLeft
                     : JoinSide::kRight;
    if (side == JoinSide::kNeither) {
      side = s;
    } else if (side != s) {
      side = JoinSide::kBoth;
    }
  });
  if (poisoned) return JoinSide::kBoth;
  return side;
}

BoundExprPtr ToInputLayout(const BoundExpr& e, JoinSide side, size_t lv,
                           size_t rv, size_t lh) {
  BoundExprPtr copy = e.Clone();
  VisitNodes(copy.get(), [&](BoundExpr* n) {
    if (n->kind != BoundExprKind::kColumnRef || n->depth != 0) return;
    const size_t c = static_cast<size_t>(n->column);
    if (side == JoinSide::kLeft) {
      // Left visible columns keep their index; left hidden ones follow the
      // right visible block in the combined layout.
      if (c >= lv) n->column -= static_cast<int>(rv);
    } else {
      n->column -= static_cast<int>(c < lv + rv ? lv : lv + lh);
    }
  });
  return copy;
}

void CollectConjuncts(const BoundExpr& e, std::vector<const BoundExpr*>* out) {
  if (e.kind == BoundExprKind::kFunc && e.func == FunctionId::kOpAnd) {
    CollectConjuncts(*e.args[0], out);
    CollectConjuncts(*e.args[1], out);
    return;
  }
  out->push_back(&e);
}

namespace {

// True when evaluating `e` on any row can neither raise nor read anything
// but the row itself: no division, cast, subquery, measure, aggregate or
// window can hide inside.
bool CannotRaise(const BoundExpr& e) {
  bool safe = true;
  VisitNodes(e, [&](const BoundExpr& n) {
    switch (n.kind) {
      case BoundExprKind::kLiteral:
      case BoundExprKind::kParam:
      case BoundExprKind::kIsNull:
      case BoundExprKind::kInList:
      case BoundExprKind::kLike:
      case BoundExprKind::kRowIndex:
        return;
      case BoundExprKind::kColumnRef:
        if (n.depth != 0) safe = false;
        return;
      case BoundExprKind::kFunc:
        switch (n.func) {
          case FunctionId::kOpEq:
          case FunctionId::kOpNe:
          case FunctionId::kOpLt:
          case FunctionId::kOpLe:
          case FunctionId::kOpGt:
          case FunctionId::kOpGe:
          case FunctionId::kOpIsDistinctFrom:
          case FunctionId::kOpIsNotDistinctFrom:
          case FunctionId::kOpAnd:
          case FunctionId::kOpOr:
          case FunctionId::kOpNot:
          case FunctionId::kOpAdd:  // + - * wrap, as in the row path
          case FunctionId::kOpSub:
          case FunctionId::kOpMul:
          case FunctionId::kOpNeg:
          case FunctionId::kYear:  // bind over DATE or NULL only
          case FunctionId::kMonth:
          case FunctionId::kDay:
          case FunctionId::kQuarter:
          case FunctionId::kDayOfWeek:
            return;
          default:
            safe = false;
            return;
        }
      default:
        safe = false;
        return;
    }
  });
  return safe;
}

bool AllCannotRaise(const std::vector<BoundExprPtr>& exprs) {
  for (const BoundExprPtr& e : exprs) {
    if (!CannotRaise(*e)) return false;
  }
  return true;
}

BoundExprPtr AndAll(std::vector<BoundExprPtr> conjuncts) {
  BoundExprPtr out = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    std::vector<BoundExprPtr> args;
    args.push_back(std::move(out));
    args.push_back(std::move(conjuncts[i]));
    out = BFunc(FunctionId::kOpAnd, "AND", DataType::Bool(), std::move(args));
  }
  return out;
}

// Splits the Filter above a Join: conjuncts that read one input the join
// type lets through move into a Filter above that input. Returns the
// Filter with the conjuncts that stay, or the Join when none stay.
PlanPtr PushIntoJoinInputs(PlanPtr filter) {
  LogicalPlan& join = *filter->children[0];
  const bool to_left = join.join_type != JoinType::kRight &&
                       join.join_type != JoinType::kFull;
  const bool to_right = join.join_type != JoinType::kLeft &&
                        join.join_type != JoinType::kFull;
  if (!to_left && !to_right) return filter;
  if (join.join_condition != nullptr && !CannotRaise(*join.join_condition)) {
    return filter;
  }
  std::vector<const BoundExpr*> conjuncts;
  CollectConjuncts(*filter->predicate, &conjuncts);
  for (const BoundExpr* c : conjuncts) {
    // Moving a neighbour would shrink the rows a raising conjunct sees and
    // could hide the error the literal plan reports.
    if (!CannotRaise(*c)) return filter;
  }

  const LogicalPlan& left = *join.children[0];
  const LogicalPlan& right = *join.children[1];
  const size_t lv = left.schema.num_visible();
  const size_t rv = right.schema.num_visible();
  const size_t lh = left.schema.size() - lv;
  std::vector<BoundExprPtr> moved[2];
  std::vector<BoundExprPtr> kept;
  for (const BoundExpr* c : conjuncts) {
    const JoinSide side = SideOf(*c, lv, rv, lh);
    if (side == JoinSide::kLeft && to_left) {
      moved[0].push_back(ToInputLayout(*c, side, lv, rv, lh));
    } else if (side == JoinSide::kRight && to_right) {
      moved[1].push_back(ToInputLayout(*c, side, lv, rv, lh));
    } else {
      kept.push_back(c->Clone());
    }
  }
  if (moved[0].empty() && moved[1].empty()) return filter;

  for (size_t i = 0; i < 2; ++i) {
    if (moved[i].empty()) continue;
    const PlanPtr& input = join.children[i];
    auto pushed = std::make_shared<LogicalPlan>();
    pushed->kind = PlanKind::kFilter;
    pushed->children = {input};
    pushed->schema = input->schema;
    pushed->predicate = AndAll(std::move(moved[i]));
    pushed->measures = PropagateSameSchema(*input);
    join.children[i] = std::move(pushed);
  }
  if (kept.empty()) return filter->children[0];
  filter->predicate = AndAll(std::move(kept));
  return filter;
}

// A copy of `e`, an expression over `project`'s output that passed
// CannotRaise, over the project's input: each column reference becomes a
// copy of the expression that computes that column.
BoundExprPtr OverProjectInput(const BoundExpr& e, const LogicalPlan& project) {
  if (e.kind == BoundExprKind::kColumnRef) {
    return project.exprs[static_cast<size_t>(e.column)]->Clone();
  }
  BoundExprPtr copy = e.Clone();
  for (BoundExprPtr& a : copy->args) a = OverProjectInput(*a, project);
  if (copy->operand != nullptr) {
    copy->operand = OverProjectInput(*copy->operand, project);
  }
  return copy;
}

// ANDs `conjunct`, an expression over `project`'s output, into the
// pre-filter of `project`.
void AddPrefilter(const BoundExpr& conjunct, LogicalPlan* project) {
  BoundExprPtr moved = OverProjectInput(conjunct, *project);
  if (project->predicate == nullptr) {
    project->predicate = std::move(moved);
    return;
  }
  std::vector<BoundExprPtr> both;
  both.push_back(std::move(project->predicate));
  both.push_back(std::move(moved));
  project->predicate = AndAll(std::move(both));
}

bool DefinesMeasures(const LogicalPlan& plan) {
  for (const PlanMeasure& m : plan.measures) {
    if (m.define) return true;
  }
  return false;
}

// Moves the Filter above a Project into that Project's pre-filter, then on
// down through each Project directly below one that defines no measures.
// Returns the top Project, or the Filter unchanged when its predicate or an
// output expression of the Project below could raise.
PlanPtr PushIntoProject(PlanPtr filter) {
  PlanPtr project = filter->children[0];
  if (!CannotRaise(*filter->predicate) || !AllCannotRaise(project->exprs)) {
    return filter;
  }
  AddPrefilter(*filter->predicate, project.get());
  LogicalPlan* p = project.get();
  while (!DefinesMeasures(*p) && p->children[0]->kind == PlanKind::kProject &&
         AllCannotRaise(p->children[0]->exprs)) {
    LogicalPlan* below = p->children[0].get();
    AddPrefilter(*p->predicate, below);
    p->predicate = nullptr;
    p = below;
  }
  return project;
}

}  // namespace

PlanPtr PushDownFilters(PlanPtr plan) {
  if (plan->kind == PlanKind::kFilter) {
    if (plan->children[0]->kind == PlanKind::kJoin) {
      plan = PushIntoJoinInputs(std::move(plan));
    } else if (plan->children[0]->kind == PlanKind::kProject) {
      plan = PushIntoProject(std::move(plan));
    }
  }
  for (PlanPtr& child : plan->children) {
    child = PushDownFilters(std::move(child));
  }
  return plan;
}

}  // namespace msql
