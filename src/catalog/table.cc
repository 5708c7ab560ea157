#include "catalog/table.h"

#include <algorithm>

#include "common/string_util.h"

namespace msql {

std::shared_ptr<const ColumnarRelation> Table::ColumnsFor(
    const RowsSnapshot& snap) const {
  const auto n = static_cast<int64_t>(snap.size());
  auto cached = [&]() -> std::shared_ptr<const ColumnarRelation> {
    std::lock_guard<std::mutex> lock(mu_);
    if (columns_ != nullptr && columns_->num_rows == n) return columns_;
    return nullptr;
  };
  if (auto hit = cached()) return hit;
  // One build per published length: a scan that waited here for another
  // scan's build of the same length takes its result.
  std::lock_guard<std::mutex> build(image_mu_);
  if (auto hit = cached()) return hit;
  auto built = image_.ImageOf(snap.rows());
  if (!built.ok()) return nullptr;
  std::shared_ptr<const ColumnarRelation> cols = built.take();
  if (n == image_.num_rows()) {  // not an older snapshot's own image
    std::lock_guard<std::mutex> lock(mu_);
    columns_ = cols;
  }
  return cols;
}

Status Table::CoerceRow(Row* row) const {
  if (row->size() != schema_.size()) {
    return Status(ErrorCode::kExecution,
                  StrCat("INSERT into ", name_, " expects ", schema_.size(),
                         " values, got ", row->size()));
  }
  for (size_t i = 0; i < row->size(); ++i) {
    if ((*row)[i].is_null()) continue;
    const TypeKind want = schema_.column(i).type.kind;
    if ((*row)[i].kind() != want) {
      MSQL_ASSIGN_OR_RETURN((*row)[i], (*row)[i].CastTo(want));
    }
  }
  return Status::Ok();
}

Status Table::AppendRow(Row row) {
  std::vector<Row> rows;
  rows.push_back(std::move(row));
  return AppendRows(std::move(rows));
}

Status Table::AppendRows(std::vector<Row> rows) {
  for (Row& row : rows) {
    MSQL_RETURN_IF_ERROR(CoerceRow(&row));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (rows_->empty()) {
    // A bulk load: take the caller's vector over as the buffer.
    rows_ = std::make_shared<std::vector<Row>>(std::move(rows));
  } else {
    if (rows_->size() + rows.size() > rows_->capacity()) {
      // Full: copy into a buffer twice the size. Snapshots may still read
      // the old buffer's rows, so they are copied, not moved.
      auto grown = std::make_shared<std::vector<Row>>();
      grown->reserve(std::max(2 * rows_->size(), rows_->size() + rows.size()));
      grown->insert(grown->end(), rows_->begin(), rows_->end());
      rows_ = std::move(grown);
    }
    // Within capacity: the rows are constructed past every snapshot's end.
    for (Row& row : rows) rows_->push_back(std::move(row));
  }
  generation_.fetch_add(1, std::memory_order_acq_rel);
  return Status::Ok();
}

}  // namespace msql
