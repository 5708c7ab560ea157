#ifndef MSQL_MEASURE_CONTEXT_H_
#define MSQL_MEASURE_CONTEXT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "binder/bound_expr.h"
#include "common/value.h"

namespace msql {

// One term of an evaluation context (paper section 3.4). The context is the
// conjunction of its terms; a measure's value is determined solely by the
// set of source rows the predicate admits.
struct ContextTerm {
  enum class Kind {
    kDimEq,   // src_expr IS NOT DISTINCT FROM value (a dimension term)
    kPred,    // src_expr evaluates to TRUE (WHERE-modifier / visible filters)
    kRowIds,  // the source row index is in `rowids` (VISIBLE under joins)
  };
  Kind kind = Kind::kDimEq;
  // Canonical key for dimension matching ("prodName", "YEAR(orderDate)").
  std::string key;
  std::shared_ptr<const BoundExpr> src_expr;  // over the measure source schema
  Value value;                                 // kDimEq
  std::shared_ptr<const std::vector<int64_t>> rowids;  // kRowIds, sorted
};

// An evaluation context: the predicate over a measure's dimension columns
// that determines which source rows enter the calculation. Modifier
// operations implement paper table 3.
class EvalContext {
 public:
  EvalContext() = default;

  const std::vector<ContextTerm>& terms() const { return terms_; }
  bool empty() const { return terms_.empty(); }

  // Adds a dimension term, replacing any existing term with the same key.
  void SetDim(std::string key, std::shared_ptr<const BoundExpr> src_expr,
              Value value);

  // Removes dimension terms with the given key (modifier `ALL dim`).
  void RemoveDim(const std::string& key);

  // Removes every term (modifier `ALL`).
  void Clear() { terms_.clear(); }

  // Adds a predicate term.
  void AddPredicate(std::shared_ptr<const BoundExpr> src_expr);

  // Restricts the context to the row ids in `rowids` (sorted). A context
  // keeps at most one row-id term: re-adding its set is a no-op, and a
  // different set intersects into it.
  void AddRowIds(std::shared_ptr<const std::vector<int64_t>> rowids);

  // Value of the dimension `key` if the context pins it to a single value
  // via a kDimEq term; nullopt otherwise (CURRENT returns SQL NULL then).
  std::optional<Value> CurrentValue(const std::string& key) const;

  // Deterministic cache key: terms sorted by kind/key/value rendering.
  std::string Signature() const;

 private:
  std::vector<ContextTerm> terms_;
};

}  // namespace msql

#endif  // MSQL_MEASURE_CONTEXT_H_
