#ifndef MSQL_EXEC_COLUMN_VECTOR_H_
#define MSQL_EXEC_COLUMN_VECTOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "common/value.h"

namespace msql {

// Rows per vectorized batch: the unit kernels and accumulators chunk their
// loops (and guard checkpoints) by, and the granularity of the
// msql_exec_vectorized_batches_total counter. 1024 rows keeps a handful of
// int64/double payload columns resident in L1/L2 and divides the validity
// bitmap into whole 64-bit words (16 per batch). See docs/PERFORMANCE.md.
inline constexpr int64_t kRowsPerBatch = 1024;

inline int64_t NumBatches(int64_t rows) {
  return (rows + kRowsPerBatch - 1) / kRowsPerBatch;
}

// A half-open row span [offset, offset + length) of a columnar relation;
// the schema is shared by reference to the carrying relation.
struct RowBatch {
  int64_t offset = 0;
  int64_t length = 0;
};

// [0, rows) split into kRowsPerBatch-sized spans (last one ragged).
std::vector<RowBatch> MakeBatches(int64_t rows);

// One typed column of a materialized relation. The payload is a flat array
// carved from `arena`; NULLs live in a separate validity bitmap so kernels
// stream the payload and combine bitmaps word-at-a-time.
//
// Representation by kind:
//   kBool / kInt64 / kDate  payload in `ints` (bools 0/1, dates day numbers)
//   kDouble                 payload in `doubles`
//   kString                 `ints` holds codes into `*dict`
//                           ("dictionary-or-inline": the builder dedups
//                           through a hash map while the dictionary stays
//                           small, then degrades to appending one entry per
//                           row; `dict_unique` records whether dedup held,
//                           which is what makes codes comparable)
//   kNull                   every row NULL; no payload
//
// A column with `valid == nullptr` has no NULLs. Payload slots of NULL rows
// are zero-filled so full-width kernels never touch uninitialized memory.
struct ColumnVector {
  TypeKind kind = TypeKind::kNull;
  int64_t length = 0;
  const uint64_t* valid = nullptr;  // bit i set = row i non-NULL
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  std::shared_ptr<const std::vector<std::string>> dict;
  bool dict_unique = false;
  std::shared_ptr<Arena> arena;  // keeps payload storage alive
  // Keeps `valid` alive when it lives outside `arena` (a table image's
  // bitmap, see ColumnarAppender).
  std::shared_ptr<const uint64_t[]> valid_storage;

  bool IsValid(int64_t i) const {
    return valid == nullptr || ((valid[i >> 6] >> (i & 63)) & 1) != 0;
  }

  // Reconstructs the row-path Value of row i (Null when the bit is clear).
  Value At(int64_t i) const;
};

using ColumnPtr = std::shared_ptr<const ColumnVector>;

// Columnar image of a Relation: one ColumnVector per schema column, plus the
// batch spans kernels iterate by. Individual entries may be null when that
// column could not be columnarized (mixed value kinds under dynamic typing);
// kernels touching a missing column fall back to the row path.
struct ColumnarRelation {
  int64_t num_rows = 0;
  std::vector<ColumnPtr> cols;
  std::vector<RowBatch> batches;

  bool Complete() const {
    for (const ColumnPtr& c : cols) {
      if (c == nullptr) return false;
    }
    return true;
  }
};

// Append-style column builder with a fixed row capacity (callers always know
// an upper bound: the input row count). The payload kind is latched from the
// first non-NULL value appended; a later value of a different kind makes
// Append return false, which callers treat as "this column stays row-major"
// (dynamic typing allows ragged columns; freezing a wrong kind would break
// the bit-for-bit row round-trip). Arena exhaustion also returns false, with
// the difference visible in status().
class ColumnBuilder {
 public:
  // Dictionary dedup limit: past this many distinct strings the builder
  // stops deduping and appends inline, one dictionary entry per row.
  static constexpr size_t kMaxDictCodes = 1u << 14;

  ColumnBuilder(std::shared_ptr<Arena> arena, int64_t capacity);

  bool Append(const Value& v);

  // Finalizes into an immutable column of exactly the appended length.
  // Null only when the arena was poisoned (see status()).
  ColumnPtr Finish();

  const Status& status() const { return arena_->status(); }

 private:
  bool EnsurePayload(TypeKind kind);

  std::shared_ptr<Arena> arena_;
  int64_t capacity_ = 0;
  int64_t length_ = 0;
  TypeKind kind_ = TypeKind::kNull;
  uint64_t* valid_ = nullptr;
  int64_t* ints_ = nullptr;
  double* doubles_ = nullptr;
  bool has_null_ = false;
  std::shared_ptr<std::vector<std::string>> dict_;
  std::unordered_map<std::string, int64_t> dict_codes_;
  bool dict_unique_ = true;
};

// Builds the columnar image of `rows` (each at least `width` values wide).
// Columns whose values mix kinds get a null entry; an arena poisoned by its
// guard (memory budget) aborts the build with that error.
Result<std::shared_ptr<const ColumnarRelation>> ColumnarizeRows(
    size_t width, std::span<const Row> rows,
    const std::shared_ptr<Arena>& arena);

// The columnar image of an append-only row sequence (a table's rows),
// extended instead of rebuilt. ImageOf(rows) returns the image of `rows`,
// which must begin with the rows of the previous call; the result equals
// ColumnarizeRows over `rows` column by column: kind, validity, payload,
// dictionary contents, dict_unique, and which columns stay row-major.
//
// The first image is ColumnarizeRows itself, with no spare capacity, so a
// table that is never appended to pays nothing more. The first extension
// copies the payload into arrays twice the length; later ones write only
// the new rows. Published images share those arrays read-only, and an
// extension writes past their length. The two things an earlier image can
// still read are copied instead of mutated: a validity word it covers in
// part, and a dictionary that gains strings. The string-to-code dedup map
// is rebuilt from the dictionary on the first extension and kept here, so
// existing codes never change.
//
// Not thread-safe: one caller at a time (Table serializes its builds).
class ColumnarAppender {
 public:
  explicit ColumnarAppender(size_t width) : width_(width) {}

  // Rows of the latest image.
  int64_t num_rows() const {
    return image_ == nullptr ? 0 : image_->num_rows;
  }

  // The image of `rows`. Rows shorter than the latest image get an image
  // of their own, leaving this one as it is. Errors only as ColumnarizeRows
  // does.
  Result<std::shared_ptr<const ColumnarRelation>> ImageOf(
      std::span<const Row> rows);

 private:
  // Writable state of one column of the latest image.
  struct Col {
    bool row_major = false;  // mixed kinds: no image column from now on
    TypeKind kind = TypeKind::kNull;
    int64_t* ints = nullptr;  // capacity_ slots
    double* doubles = nullptr;
    // capacity_ bits, zero past the image's length; null until a NULL.
    std::shared_ptr<uint64_t[]> valid;
    std::shared_ptr<const std::vector<std::string>> dict;
    bool dict_unique = true;
    std::unordered_map<std::string, int64_t> codes;  // while dict_unique
  };

  // Copies every column into arrays of `capacity` rows.
  void Grow(int64_t capacity);
  // Appends rows [from, rows.size()) of column `c`; null once row-major.
  ColumnPtr ExtendColumn(size_t c, std::span<const Row> rows, int64_t from);

  size_t width_;
  std::shared_ptr<const ColumnarRelation> image_;
  // Rows the arrays in `cols_` hold; 0 while the image is ColumnarizeRows'
  // own (no column state yet).
  int64_t capacity_ = 0;
  std::shared_ptr<Arena> arena_;  // unguarded: allocation cannot fail
  std::vector<Col> cols_;
};

// Rebuilds row-path rows from a complete columnar relation (every column
// present). The inverse of ColumnarizeRows up to value identity.
std::vector<Row> MaterializeRowsDense(const ColumnarRelation& c);

// Gathers the rows listed in `sel` (indices into `c`) into a fresh column
// with payload storage in `arena`; a string column shares the source
// dictionary, so gathering is O(|sel|) regardless of dictionary size.
// Errors only when the arena's guard rejects the allocation.
Result<ColumnPtr> GatherColumn(const ColumnVector& c,
                               const std::vector<int64_t>& sel,
                               const std::shared_ptr<Arena>& arena);

}  // namespace msql

#endif  // MSQL_EXEC_COLUMN_VECTOR_H_
