#include "catalog/table.h"

#include "common/string_util.h"

namespace sparkline {

Status Table::AppendRow(Row row) {
  SL_ASSIGN_OR_RETURN(Row conformed, Conform(std::move(row)));
  rows_.Append(conformed);
  return Status::OK();
}

Result<Row> Table::Conform(Row row) const {
  return schema_.Conform(std::move(row), StrCat("table ", name_));
}

std::shared_ptr<Table> Table::Successor(size_t extra_rows) const {
  auto next = std::make_shared<Table>(name_, schema_);
  next->constraints_ = constraints_;
  next->rows_.ShareFrom(rows_, extra_rows);
  return next;
}

int64_t Table::EstimatedBytes() const {
  int64_t total = 0;
  for (const RowRef row : rows_) {
    total += static_cast<int64_t>(sizeof(Row));
    for (size_t c = 0; c < row.size(); ++c) total += row[c].EstimatedBytes();
  }
  return total;
}

}  // namespace sparkline
