#include "measure/context.h"

#include <algorithm>
#include <iterator>

#include "common/string_util.h"

namespace msql {

void EvalContext::SetDim(std::string key,
                         std::shared_ptr<const BoundExpr> src_expr,
                         Value value) {
  RemoveDim(key);
  ContextTerm term;
  term.kind = ContextTerm::Kind::kDimEq;
  term.key = std::move(key);
  term.src_expr = std::move(src_expr);
  term.value = std::move(value);
  terms_.push_back(std::move(term));
}

void EvalContext::RemoveDim(const std::string& key) {
  terms_.erase(std::remove_if(terms_.begin(), terms_.end(),
                              [&](const ContextTerm& t) {
                                return t.kind == ContextTerm::Kind::kDimEq &&
                                       EqualsIgnoreCase(t.key, key);
                              }),
               terms_.end());
}

void EvalContext::AddPredicate(std::shared_ptr<const BoundExpr> src_expr) {
  ContextTerm term;
  term.kind = ContextTerm::Kind::kPred;
  term.key = src_expr->ToString();
  term.src_expr = std::move(src_expr);
  terms_.push_back(std::move(term));
}

void EvalContext::AddRowIds(
    std::shared_ptr<const std::vector<int64_t>> rowids) {
  for (ContextTerm& t : terms_) {
    if (t.kind != ContextTerm::Kind::kRowIds) continue;
    if (t.rowids == rowids || *t.rowids == *rowids) return;
    auto both = std::make_shared<std::vector<int64_t>>();
    std::set_intersection(t.rowids->begin(), t.rowids->end(), rowids->begin(),
                          rowids->end(), std::back_inserter(*both));
    t.rowids = std::move(both);
    return;
  }
  ContextTerm term;
  term.kind = ContextTerm::Kind::kRowIds;
  term.rowids = std::move(rowids);
  terms_.push_back(std::move(term));
}

std::optional<Value> EvalContext::CurrentValue(const std::string& key) const {
  for (const ContextTerm& t : terms_) {
    if (t.kind == ContextTerm::Kind::kDimEq && EqualsIgnoreCase(t.key, key)) {
      return t.value;
    }
  }
  return std::nullopt;
}

std::string EvalContext::Signature() const {
  std::vector<std::string> parts;
  parts.reserve(terms_.size());
  for (const ContextTerm& t : terms_) {
    switch (t.kind) {
      case ContextTerm::Kind::kDimEq:
        parts.push_back(StrCat("d:", t.key, "=", t.value.ToSqlLiteral()));
        break;
      case ContextTerm::Kind::kPred:
        parts.push_back(StrCat("p:", t.key));
        break;
      case ContextTerm::Kind::kRowIds: {
        // Row-id sets are potentially large; hash them.
        size_t h = 0xcbf29ce484222325ULL;
        for (int64_t id : *t.rowids) {
          h ^= static_cast<size_t>(id);
          h *= 0x100000001b3ULL;
        }
        parts.push_back(StrCat("r:", t.rowids->size(), ":", h));
        break;
      }
    }
  }
  std::sort(parts.begin(), parts.end());
  return Join(parts, "&");
}

}  // namespace msql
