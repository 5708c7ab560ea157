#ifndef MSQL_EXEC_RELATION_H_
#define MSQL_EXEC_RELATION_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "binder/bound_expr.h"
#include "catalog/schema.h"
#include "common/value.h"
#include "exec/column_vector.h"

namespace msql {

struct Relation;

// A measure bound into a materialized relation at runtime. The formula is
// evaluated over `source` rows selected by an evaluation context; the
// provenance map translates this relation's visible columns into expressions
// over the source schema (the measure's dimensions); `rowid_col` is the
// hidden column of this relation holding the source row index, which powers
// the VISIBLE modifier and grain preservation under joins.
struct RtMeasure {
  std::string name;
  DataType value_type;
  std::shared_ptr<const BoundExpr> formula;   // over source schema
  std::shared_ptr<const Relation> source;
  std::unordered_map<int, std::shared_ptr<BoundExpr>> provenance;
  int rowid_col = -1;
  int column = -1;  // the measure's own column in the carrying relation
  // Stable structural identity "sourcePlanFP|formulaFP" for the cross-query
  // SharedMeasureCache. Null when the measure is not shareable (correlated
  // source, sharing disabled); shared between a measure and its
  // join/filter/projection propagated copies.
  std::shared_ptr<const std::string> fingerprint;
};

// Row storage of a materialized relation. Three backings, one read API:
//
//   owned    a plain std::vector<Row> the producing operator appended to
//            (the classic row path);
//   shared   an immutable run of rows adopted as pointer plus length, with
//            an owner that keeps them alive: table scans adopt the
//            catalog's snapshot in O(1) instead of copying R rows;
//   lazy     a columnar image (exec/column_vector.h) whose rows materialize
//            on first row-path access, so fully vectorized pipelines never
//            pay for rows nobody reads.
//
// Readers see one contiguous std::span<const Row> regardless of backing.
// Mutators only touch owned storage; they detach (copy) from a shared or
// lazy backing first, which in practice never happens — relations are
// frozen behind RelationPtr once built. Lazy materialization is serialized
// by call_once so morsel-parallel measure workers may race on first access.
class RowStore {
 public:
  RowStore() = default;

  size_t size() const {
    if (shared_owner_ != nullptr) return shared_.size();
    if (lazy_ != nullptr) return static_cast<size_t>(lazy_->cols->num_rows);
    return owned_.size();
  }
  bool empty() const { return size() == 0; }
  const Row& operator[](size_t i) const { return vec()[i]; }
  std::span<const Row>::iterator begin() const { return vec().begin(); }
  std::span<const Row>::iterator end() const { return vec().end(); }

  // The materialized rows (forces a lazy columnar backing to materialize;
  // O(1) afterwards).
  std::span<const Row> vec() const {
    if (shared_owner_ != nullptr) return shared_;
    if (lazy_ != nullptr) {
      Lazy* lazy = lazy_.get();
      std::call_once(lazy->once, [lazy] {
        lazy->rows = MaterializeRowsDense(*lazy->cols);
      });
      return lazy->rows;
    }
    return owned_;
  }

  void reserve(size_t n) { Own().reserve(n); }
  void push_back(Row r) { Own().push_back(std::move(r)); }
  RowStore& operator=(std::vector<Row>&& rows) {
    shared_owner_.reset();
    shared_ = {};
    lazy_.reset();
    owned_ = std::move(rows);
    return *this;
  }

  // Adopts immutable rows in O(1); `owner` keeps them alive (a table
  // snapshot's buffer: the catalog appends past a snapshot's length and
  // never writes the rows it covers, so sharing is safe).
  void AdoptShared(std::shared_ptr<const void> owner,
                   std::span<const Row> rows) {
    shared_owner_ = std::move(owner);
    shared_ = rows;
    lazy_.reset();
    owned_.clear();
  }

  // Adopts a complete columnar image (every column present); rows
  // materialize on first access through vec().
  void AdoptLazy(std::shared_ptr<const ColumnarRelation> cols) {
    lazy_ = std::make_shared<Lazy>();
    lazy_->cols = std::move(cols);
    shared_owner_.reset();
    shared_ = {};
    owned_.clear();
  }

 private:
  struct Lazy {
    std::once_flag once;
    std::shared_ptr<const ColumnarRelation> cols;
    std::vector<Row> rows;
  };

  std::vector<Row>& Own() {
    if (shared_owner_ != nullptr || lazy_ != nullptr) {
      const std::span<const Row> rows = vec();
      owned_.assign(rows.begin(), rows.end());
      shared_owner_.reset();
      shared_ = {};
      lazy_.reset();
    }
    return owned_;
  }

  std::vector<Row> owned_;
  std::shared_ptr<const void> shared_owner_;
  std::span<const Row> shared_;
  std::shared_ptr<Lazy> lazy_;
};

// A fully materialized intermediate or final result: schema (visible columns
// first, hidden after), row data, and the measures riding on it. `columns`
// is the columnar sidecar the vectorized kernels run on — null when the
// relation was produced by the row path; per-column entries may be null for
// columns dynamic typing left row-major.
struct Relation {
  Schema schema;
  RowStore rows;
  std::vector<RtMeasure> measures;
  std::shared_ptr<const ColumnarRelation> columns;
};

using RelationPtr = std::shared_ptr<const Relation>;

}  // namespace msql

#endif  // MSQL_EXEC_RELATION_H_
