#include "types/schema.h"

#include "common/string_util.h"

namespace sparkline {

std::string Field::ToString() const {
  return StrCat(name, " ", type.ToString(), nullable ? "" : " NOT NULL");
}

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (EqualsIgnoreCase(fields_[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(fields_.size());
  for (const auto& f : fields_) parts.push_back(f.ToString());
  return StrCat("(", JoinStrings(parts, ", "), ")");
}

Result<Row> Schema::Conform(Row row, const std::string& owner) const {
  if (row.size() != fields_.size()) {
    return Status::Invalid(StrCat("row arity ", row.size(),
                                  " does not match schema arity ",
                                  fields_.size(), " of ", owner));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Field& f = fields_[i];
    if (row[i].is_null()) {
      if (!f.nullable) {
        return Status::Invalid(
            StrCat("NULL in non-nullable column ", f.name, " of ", owner));
      }
      row[i] = Value::Null(f.type);
      continue;
    }
    if (row[i].type() != f.type) {
      // Allow implicit numeric widening on insert.
      if (f.type.is_numeric() && row[i].type().is_numeric()) {
        SL_ASSIGN_OR_RETURN(row[i], row[i].CastTo(f.type));
        continue;
      }
      return Status::Invalid(StrCat("type mismatch in column ", f.name, " of ",
                                    owner, ": expected ", f.type.ToString(),
                                    ", got ", row[i].type().ToString()));
    }
  }
  return row;
}

std::vector<DataType> Schema::types() const {
  std::vector<DataType> out;
  out.reserve(fields_.size());
  for (const Field& f : fields_) out.push_back(f.type);
  return out;
}

}  // namespace sparkline
