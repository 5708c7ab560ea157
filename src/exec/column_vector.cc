#include "exec/column_vector.h"

#include <algorithm>
#include <cstring>

namespace msql {

std::vector<RowBatch> MakeBatches(int64_t rows) {
  std::vector<RowBatch> batches;
  batches.reserve(static_cast<size_t>(NumBatches(rows)));
  for (int64_t off = 0; off < rows; off += kRowsPerBatch) {
    batches.push_back(RowBatch{off, std::min(kRowsPerBatch, rows - off)});
  }
  return batches;
}

Value ColumnVector::At(int64_t i) const {
  if (!IsValid(i)) return Value::Null();
  switch (kind) {
    case TypeKind::kBool:
      return Value::Bool(ints[i] != 0);
    case TypeKind::kInt64:
      return Value::Int(ints[i]);
    case TypeKind::kDate:
      return Value::Date(ints[i]);
    case TypeKind::kDouble:
      return Value::Double(doubles[i]);
    case TypeKind::kString:
      return Value::String((*dict)[static_cast<size_t>(ints[i])]);
    case TypeKind::kNull:
      return Value::Null();
  }
  return Value::Null();
}

ColumnBuilder::ColumnBuilder(std::shared_ptr<Arena> arena, int64_t capacity)
    : arena_(std::move(arena)), capacity_(capacity) {}

bool ColumnBuilder::EnsurePayload(TypeKind kind) {
  kind_ = kind;
  const size_t n = static_cast<size_t>(capacity_);
  if (kind == TypeKind::kDouble) {
    doubles_ = arena_->AllocateArray<double>(n);
    if (doubles_ == nullptr) return false;
    std::memset(doubles_, 0, n * sizeof(double));
  } else {
    ints_ = arena_->AllocateArray<int64_t>(n);
    if (ints_ == nullptr) return false;
    std::memset(ints_, 0, n * sizeof(int64_t));
  }
  if (kind == TypeKind::kString) {
    dict_ = std::make_shared<std::vector<std::string>>();
  }
  return true;
}

bool ColumnBuilder::Append(const Value& v) {
  const int64_t i = length_;
  if (v.is_null()) {
    if (valid_ == nullptr) {
      const size_t words = static_cast<size_t>((capacity_ + 63) / 64);
      valid_ = arena_->AllocateArray<uint64_t>(words);
      if (valid_ == nullptr) return false;
      // All rows appended so far were non-NULL.
      std::memset(valid_, 0xff, words * sizeof(uint64_t));
      for (int64_t j = i; j < capacity_; ++j) {
        valid_[j >> 6] &= ~(uint64_t{1} << (j & 63));
      }
    }
    has_null_ = true;
    ++length_;
    return true;
  }
  if (kind_ == TypeKind::kNull) {
    if (!EnsurePayload(v.kind())) return false;
  } else if (v.kind() != kind_) {
    return false;  // mixed-kind column: stays row-major
  }
  if (valid_ != nullptr) valid_[i >> 6] |= uint64_t{1} << (i & 63);
  switch (kind_) {
    case TypeKind::kBool:
      ints_[i] = v.bool_val() ? 1 : 0;
      break;
    case TypeKind::kInt64:
      ints_[i] = v.int_val();
      break;
    case TypeKind::kDate:
      ints_[i] = v.date_days();
      break;
    case TypeKind::kDouble:
      doubles_[i] = v.double_val();
      break;
    case TypeKind::kString: {
      if (dict_unique_) {
        if (dict_->size() < kMaxDictCodes) {
          auto [it, inserted] = dict_codes_.emplace(
              v.str(), static_cast<int64_t>(dict_->size()));
          if (inserted) dict_->push_back(v.str());
          ints_[i] = it->second;
          break;
        }
        // High-cardinality column: degrade to inline entries (codes are no
        // longer pairwise comparable).
        dict_unique_ = false;
        dict_codes_.clear();
      }
      ints_[i] = static_cast<int64_t>(dict_->size());
      dict_->push_back(v.str());
      break;
    }
    default:
      return false;
  }
  ++length_;
  return true;
}

ColumnPtr ColumnBuilder::Finish() {
  if (!arena_->status().ok()) return nullptr;
  auto col = std::make_shared<ColumnVector>();
  col->kind = kind_;
  col->length = length_;
  col->ints = ints_;
  col->doubles = doubles_;
  col->dict_unique = dict_unique_;
  if (dict_ != nullptr) col->dict = dict_;
  col->arena = arena_;
  if (has_null_) col->valid = valid_;
  if (kind_ == TypeKind::kNull && length_ > 0) {
    // All-NULL column: represent with an all-zero bitmap so IsValid stays
    // uniform for kernels that only look at validity.
    const size_t words = static_cast<size_t>((length_ + 63) / 64);
    uint64_t* zeros = arena_->AllocateArray<uint64_t>(words);
    if (zeros == nullptr) return nullptr;
    std::memset(zeros, 0, words * sizeof(uint64_t));
    col->valid = zeros;
  }
  return col;
}

Result<std::shared_ptr<const ColumnarRelation>> ColumnarizeRows(
    size_t width, std::span<const Row> rows,
    const std::shared_ptr<Arena>& arena) {
  auto out = std::make_shared<ColumnarRelation>();
  out->num_rows = static_cast<int64_t>(rows.size());
  out->cols.resize(width);
  for (size_t c = 0; c < width; ++c) {
    ColumnBuilder builder(arena, out->num_rows);
    bool ok = true;
    for (const Row& row : rows) {
      if (c >= row.size() || !builder.Append(row[c])) {
        ok = false;
        break;
      }
    }
    if (!arena->status().ok()) return arena->status();
    if (!ok) continue;  // mixed-kind column: left row-major
    ColumnPtr col = builder.Finish();
    if (col == nullptr) return arena->status();
    out->cols[c] = std::move(col);
  }
  out->batches = MakeBatches(out->num_rows);
  return std::shared_ptr<const ColumnarRelation>(std::move(out));
}

Result<std::shared_ptr<const ColumnarRelation>> ColumnarAppender::ImageOf(
    std::span<const Row> rows) {
  const auto n = static_cast<int64_t>(rows.size());
  if (image_ == nullptr || n < image_->num_rows) {
    auto arena = std::make_shared<Arena>();
    MSQL_ASSIGN_OR_RETURN(auto image, ColumnarizeRows(width_, rows, arena));
    if (image_ != nullptr) return image;  // an older snapshot's own image
    image_ = std::move(image);
    capacity_ = 0;
    cols_.clear();
    return image_;
  }
  const int64_t from = image_->num_rows;
  if (n == from) return image_;
  if (n > capacity_) Grow(std::max(n, 2 * from));
  auto out = std::make_shared<ColumnarRelation>();
  out->num_rows = n;
  out->cols.resize(width_);
  for (size_t c = 0; c < width_; ++c) {
    out->cols[c] = ExtendColumn(c, rows, from);
  }
  out->batches = MakeBatches(n);
  image_ = std::move(out);
  return image_;
}

void ColumnarAppender::Grow(int64_t capacity) {
  const int64_t length = image_->num_rows;
  const auto slots = static_cast<size_t>(capacity);
  const auto words = static_cast<size_t>((capacity + 63) / 64);
  const bool first = cols_.empty();
  if (first) cols_.resize(width_);
  arena_ = std::make_shared<Arena>();
  for (size_t c = 0; c < width_; ++c) {
    Col& col = cols_[c];
    const ColumnVector* prev = image_->cols[c].get();
    if (prev == nullptr) {
      col = Col{};
      col.row_major = true;
      continue;
    }
    if (first) {
      col.kind = prev->kind;
      col.dict = prev->dict;
      col.dict_unique = prev->dict_unique;
      if (col.kind == TypeKind::kString && col.dict_unique) {
        for (size_t k = 0; k < col.dict->size(); ++k) {
          col.codes.emplace((*col.dict)[k], static_cast<int64_t>(k));
        }
      }
    }
    if (col.kind == TypeKind::kDouble) {
      col.doubles = arena_->AllocateArray<double>(slots);
      std::copy_n(prev->doubles, length, col.doubles);
    } else if (col.kind != TypeKind::kNull) {
      col.ints = arena_->AllocateArray<int64_t>(slots);
      std::copy_n(prev->ints, length, col.ints);
    }
    if (prev->valid != nullptr) {
      // A ColumnarizeRows bitmap may have bits set past its length.
      auto valid = std::make_shared<uint64_t[]>(words);
      std::copy_n(prev->valid, length / 64, valid.get());
      if (length % 64 != 0) {
        valid[length / 64] =
            prev->valid[length / 64] & ((uint64_t{1} << (length % 64)) - 1);
      }
      col.valid = std::move(valid);
    }
  }
  capacity_ = capacity;
}

ColumnPtr ColumnarAppender::ExtendColumn(size_t c, std::span<const Row> rows,
                                         int64_t from) {
  Col& col = cols_[c];
  if (col.row_major) return nullptr;
  const auto words = static_cast<size_t>((capacity_ + 63) / 64);
  // The latest image reads the word holding row `from` when it covers it
  // in part: write into a copy.
  if (col.valid != nullptr && from % 64 != 0) {
    auto valid = std::make_shared<uint64_t[]>(words);
    std::copy_n(col.valid.get(), from / 64 + 1, valid.get());
    col.valid = std::move(valid);
  }
  // The latest image shares the dictionary: add strings to a copy.
  std::vector<std::string>* dict_out = nullptr;
  auto add_string = [&](const std::string& s) {
    if (dict_out == nullptr) {
      auto copy = std::make_shared<std::vector<std::string>>(*col.dict);
      dict_out = copy.get();
      col.dict = std::move(copy);
    }
    const auto code = static_cast<int64_t>(dict_out->size());
    dict_out->push_back(s);
    return code;
  };
  auto row_major = [&col]() -> ColumnPtr {
    col = Col{};
    col.row_major = true;
    return nullptr;
  };
  const auto n = static_cast<int64_t>(rows.size());
  for (int64_t i = from; i < n; ++i) {
    const Row& row = rows[static_cast<size_t>(i)];
    if (c >= row.size()) return row_major();
    const Value& v = row[c];
    if (v.is_null()) {
      if (col.valid == nullptr) {
        // The first NULL: every row before it was non-NULL.
        col.valid = std::make_shared<uint64_t[]>(words);
        for (int64_t j = 0; j < i; ++j) {
          col.valid[j >> 6] |= uint64_t{1} << (j & 63);
        }
      }
      if (col.ints != nullptr) col.ints[i] = 0;
      if (col.doubles != nullptr) col.doubles[i] = 0;
      continue;
    }
    if (col.kind == TypeKind::kNull) {
      // The first value latches the kind; earlier rows are NULL slots.
      col.kind = v.kind();
      const auto slots = static_cast<size_t>(capacity_);
      if (col.kind == TypeKind::kDouble) {
        col.doubles = arena_->AllocateArray<double>(slots);
        std::fill_n(col.doubles, i, 0.0);
      } else {
        col.ints = arena_->AllocateArray<int64_t>(slots);
        std::fill_n(col.ints, i, int64_t{0});
      }
      if (col.kind == TypeKind::kString) {
        auto dict = std::make_shared<std::vector<std::string>>();
        dict_out = dict.get();
        col.dict = std::move(dict);
      }
    } else if (v.kind() != col.kind) {
      return row_major();  // mixed-kind column
    }
    if (col.valid != nullptr) col.valid[i >> 6] |= uint64_t{1} << (i & 63);
    switch (col.kind) {
      case TypeKind::kBool:
        col.ints[i] = v.bool_val() ? 1 : 0;
        break;
      case TypeKind::kInt64:
        col.ints[i] = v.int_val();
        break;
      case TypeKind::kDate:
        col.ints[i] = v.date_days();
        break;
      case TypeKind::kDouble:
        col.doubles[i] = v.double_val();
        break;
      case TypeKind::kString: {
        // ColumnBuilder::Append's dictionary rule, continued.
        if (col.dict_unique) {
          if (col.dict->size() < ColumnBuilder::kMaxDictCodes) {
            auto it = col.codes.find(v.str());
            if (it == col.codes.end()) {
              it = col.codes.emplace(v.str(), add_string(v.str())).first;
            }
            col.ints[i] = it->second;
            break;
          }
          col.dict_unique = false;
          col.codes.clear();
        }
        col.ints[i] = add_string(v.str());
        break;
      }
      default:
        return row_major();
    }
  }
  auto out = std::make_shared<ColumnVector>();
  out->kind = col.kind;
  out->length = n;
  out->valid = col.valid.get();
  out->valid_storage = col.valid;
  out->ints = col.ints;
  out->doubles = col.doubles;
  out->dict = col.dict;
  out->dict_unique = col.dict_unique;
  out->arena = arena_;
  return out;
}

Result<ColumnPtr> GatherColumn(const ColumnVector& c,
                               const std::vector<int64_t>& sel,
                               const std::shared_ptr<Arena>& arena) {
  auto col = std::make_shared<ColumnVector>();
  const int64_t n = static_cast<int64_t>(sel.size());
  col->kind = c.kind;
  col->length = n;
  col->dict = c.dict;
  col->dict_unique = c.dict_unique;
  col->arena = arena;
  const size_t words = static_cast<size_t>((n + 63) / 64);
  if (c.kind == TypeKind::kNull) {
    uint64_t* zeros = arena->AllocateArray<uint64_t>(words == 0 ? 1 : words);
    if (zeros == nullptr) return arena->status();
    std::memset(zeros, 0, (words == 0 ? 1 : words) * sizeof(uint64_t));
    col->valid = zeros;
    return ColumnPtr(col);
  }
  uint64_t* valid = nullptr;
  if (c.valid != nullptr) {
    valid = arena->AllocateArray<uint64_t>(words == 0 ? 1 : words);
    if (valid == nullptr) return arena->status();
    std::memset(valid, 0, (words == 0 ? 1 : words) * sizeof(uint64_t));
  }
  if (c.kind == TypeKind::kDouble) {
    double* out = arena->AllocateArray<double>(static_cast<size_t>(n));
    if (out == nullptr && n > 0) return arena->status();
    for (int64_t i = 0; i < n; ++i) out[i] = c.doubles[sel[i]];
    col->doubles = out;
  } else {
    int64_t* out = arena->AllocateArray<int64_t>(static_cast<size_t>(n));
    if (out == nullptr && n > 0) return arena->status();
    for (int64_t i = 0; i < n; ++i) out[i] = c.ints[sel[i]];
    col->ints = out;
  }
  if (valid != nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      if (c.IsValid(sel[i])) valid[i >> 6] |= uint64_t{1} << (i & 63);
    }
    col->valid = valid;
  }
  return ColumnPtr(col);
}

std::vector<Row> MaterializeRowsDense(const ColumnarRelation& c) {
  std::vector<Row> rows;
  rows.resize(static_cast<size_t>(c.num_rows));
  const size_t width = c.cols.size();
  for (int64_t i = 0; i < c.num_rows; ++i) {
    Row& row = rows[static_cast<size_t>(i)];
    row.reserve(width);
    for (size_t col = 0; col < width; ++col) {
      row.push_back(c.cols[col]->At(i));
    }
  }
  return rows;
}

}  // namespace msql
