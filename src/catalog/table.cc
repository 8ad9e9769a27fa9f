#include "catalog/table.h"

#include "common/string_util.h"

namespace sparkline {

Status Table::AppendRow(Row row) {
  if (row.size() != schema_.num_fields()) {
    return Status::Invalid(StrCat("row arity ", row.size(),
                                  " does not match schema arity ",
                                  schema_.num_fields(), " of table ", name_));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Field& f = schema_.field(i);
    if (row[i].is_null()) {
      if (!f.nullable) {
        return Status::Invalid(
            StrCat("NULL in non-nullable column ", f.name, " of ", name_));
      }
      continue;
    }
    if (row[i].type() != f.type) {
      // Allow implicit numeric widening on insert.
      if (f.type.is_numeric() && row[i].type().is_numeric()) {
        SL_ASSIGN_OR_RETURN(row[i], row[i].CastTo(f.type));
        continue;
      }
      return Status::Invalid(StrCat("type mismatch in column ", f.name, " of ",
                                    name_, ": expected ", f.type.ToString(),
                                    ", got ", row[i].type().ToString()));
    }
  }
  rows_.Append(std::move(row));
  return Status::OK();
}

std::shared_ptr<Table> Table::Successor(size_t extra_rows) const {
  auto next = std::make_shared<Table>(name_, schema_);
  next->constraints_ = constraints_;
  next->rows_.ShareFrom(rows_, extra_rows);
  return next;
}

int64_t Table::EstimatedBytes() const {
  int64_t total = 0;
  for (const auto& r : rows_) total += EstimateRowBytes(r);
  return total;
}

}  // namespace sparkline
