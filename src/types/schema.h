// Schema: ordered, named, typed, nullability-aware field list.
#pragma once

#include <string>
#include <vector>

#include "types/value.h"

namespace sparkline {

/// \brief One column of a schema.
struct Field {
  std::string name;
  DataType type;
  bool nullable = true;

  std::string ToString() const;
  bool operator==(const Field& o) const {
    return name == o.name && type == o.type && nullable == o.nullable;
  }
};

/// \brief An ordered list of fields. Nullability feeds the paper's
/// algorithm-selection rule (Listing 8): if every skyline dimension is
/// non-nullable the complete algorithm is chosen automatically.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the (case-insensitively) named field, or -1.
  int IndexOf(const std::string& name) const;

  void AddField(Field f) { fields_.push_back(std::move(f)); }

  /// "(id BIGINT NOT NULL, price DOUBLE)".
  std::string ToString() const;

  /// \brief Checks `row` as an insert into rows of this schema: its arity,
  /// each value's type (a BIGINT or DOUBLE is cast to a numeric column's
  /// type) and NULLs in non-nullable columns. Returns the row with every
  /// value, NULLs included, carrying its column's type; the Invalid status
  /// names `owner` (say, "table t").
  Result<Row> Conform(Row row, const std::string& owner) const;

  /// The column types, in order.
  std::vector<DataType> types() const;

  bool operator==(const Schema& o) const { return fields_ == o.fields_; }

 private:
  std::vector<Field> fields_;
};

}  // namespace sparkline
