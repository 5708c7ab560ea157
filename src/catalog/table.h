#ifndef MSQL_CATALOG_TABLE_H_
#define MSQL_CATALOG_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/value.h"
#include "exec/column_vector.h"

namespace msql {

// An in-memory base table: schema plus row storage. Row values are stored
// already coerced to the column types.
//
// Storage is append-only with a published length. The rows live in one
// contiguous buffer with spare capacity: a write constructs its rows past
// the published length under the internal mutex, then publishes the new
// length. A snapshot is the buffer, a row pointer and a length, so it is
// O(1) to take and never sees rows appended after it. A write that does
// not fit allocates a buffer twice the size and copies the rows into it;
// older snapshots keep the old buffer alive. A bulk AppendRows into an
// empty table takes over the caller's vector (no spare capacity, no copy).
//
// Thread safety: writers and readers synchronize on an internal mutex, and
// a writer never touches a row a snapshot can read, so DML never blocks
// behind a long query. The generation counter increments on every append
// and feeds the engine's cross-query cache invalidation.
class Table {
 public:
  // An immutable prefix of the table's rows. The pointer-like spelling
  // (`snap->size()`, `(*snap)[i]`) reads like the shared row vector a
  // snapshot used to be.
  class RowsSnapshot {
   public:
    size_t size() const { return size_; }
    const Row& operator[](size_t i) const { return data_[i]; }
    const Row* begin() const { return data_; }
    const Row* end() const { return data_ + size_; }
    std::span<const Row> rows() const { return {data_, size_}; }
    // Keeps the row buffer alive.
    const std::shared_ptr<const std::vector<Row>>& owner() const {
      return buffer_;
    }

    const RowsSnapshot& operator*() const { return *this; }
    const RowsSnapshot* operator->() const { return this; }

   private:
    friend class Table;
    std::shared_ptr<const std::vector<Row>> buffer_;
    const Row* data_ = nullptr;
    size_t size_ = 0;
  };

  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        rows_(std::make_shared<std::vector<Row>>()),
        image_(schema_.size()) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  // The rows published so far. O(1).
  RowsSnapshot snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    RowsSnapshot snap;
    snap.buffer_ = rows_;
    snap.data_ = rows_->data();
    snap.size_ = rows_->size();
    return snap;
  }

  size_t num_rows() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rows_->size();
  }

  // Data version: bumped on every append.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // Columnar image of `snap`, built on the first scan of each published
  // length and cached. The table is append-only, so the length is the key:
  // an image of n rows is an image of the first n rows of every later
  // snapshot. A longer snapshot extends the cached image by its new rows
  // (ColumnarAppender); an older, shorter one gets an uncached image of its
  // own. Like the row snapshot it mirrors, the image is engine-resident and
  // unguarded. May be null (columnarization failed); callers then run
  // row-at-a-time.
  std::shared_ptr<const ColumnarRelation> ColumnsFor(
      const RowsSnapshot& snap) const;

  // Appends rows, coercing each value to the column types. Fails (without
  // appending anything) if arity or types do not match. AppendRows takes
  // the write lock once for the whole batch.
  Status AppendRow(Row row);
  Status AppendRows(std::vector<Row> rows);

 private:
  // Coerces one row to the schema; returns it via `row`.
  Status CoerceRow(Row* row) const;

  std::string name_;
  Schema schema_;
  mutable std::mutex mu_;
  // Rows [0, size()) are published; a writer only constructs past size().
  // Guarded by mu_ (the pointer and the vector object; published rows are
  // immutable).
  std::shared_ptr<std::vector<Row>> rows_;
  // Columnar cache. `image_mu_` serializes image builds, which run outside
  // mu_ so a writer never blocks behind columnarization; lock order is
  // image_mu_, then mu_. `columns_` (guarded by mu_) is the latest image.
  mutable std::mutex image_mu_;
  mutable ColumnarAppender image_;
  mutable std::shared_ptr<const ColumnarRelation> columns_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace msql

#endif  // MSQL_CATALOG_TABLE_H_
