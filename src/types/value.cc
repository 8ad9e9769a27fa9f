#include "types/value.h"

#include <charconv>
#include <cmath>

#include "common/string_util.h"

namespace sparkline {

std::string DataType::ToString() const {
  switch (id_) {
    case TypeId::kBool:
      return "BOOLEAN";
    case TypeId::kInt64:
      return "BIGINT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "VARCHAR";
  }
  return "?";
}

bool TypesComparable(DataType a, DataType b) {
  if (a == b) return true;
  return a.is_numeric() && b.is_numeric();
}

DataType CommonType(DataType a, DataType b) {
  if (a == b) return a;
  SL_DCHECK(a.is_numeric() && b.is_numeric());
  return DataType::Double();
}

Result<Value> Value::CastTo(DataType target) const {
  if (is_null_) return Value::Null(target);
  if (type() == target) return *this;
  switch (target.id()) {
    case TypeId::kDouble:
      if (type_ == TypeId::kInt64) {
        return Value::Double(static_cast<double>(word_.i));
      }
      if (type_ == TypeId::kBool) return Value::Double(word_.b ? 1.0 : 0.0);
      if (type_ == TypeId::kString) {
        const std::string& s = string_value();
        try {
          return Value::Double(std::stod(s));
        } catch (...) {
          return Status::Invalid(StrCat("cannot cast '", s, "' to DOUBLE"));
        }
      }
      break;
    case TypeId::kInt64:
      if (type_ == TypeId::kDouble) {
        // -2^63 is exact in both types and 2^63 is the first double past
        // INT64_MAX; NaN fails both comparisons.
        const double rounded = std::round(word_.d);
        if (rounded >= -0x1p63 && rounded < 0x1p63) {
          return Value::Int64(static_cast<int64_t>(rounded));
        }
        return Status::Invalid(
            StrCat("cannot cast ", ToString(), " to BIGINT"));
      }
      if (type_ == TypeId::kBool) return Value::Int64(word_.b ? 1 : 0);
      if (type_ == TypeId::kString) {
        const std::string& s = string_value();
        int64_t out = 0;
        auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
        if (ec == std::errc() && ptr == s.data() + s.size()) {
          return Value::Int64(out);
        }
        return Status::Invalid(StrCat("cannot cast '", s, "' to BIGINT"));
      }
      break;
    case TypeId::kString:
      return Value::String(ToString());
    case TypeId::kBool:
      if (type_ == TypeId::kInt64) return Value::Bool(word_.i != 0);
      break;
  }
  return Status::Invalid(StrCat("unsupported cast from ", type().ToString(),
                                " to ", target.ToString()));
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case TypeId::kBool:
      return word_.b ? "true" : "false";
    case TypeId::kInt64:
      return std::to_string(word_.i);
    case TypeId::kDouble:
      return DoubleToString(word_.d);
    case TypeId::kString:
      return string_value();
  }
  return "?";
}

bool Value::Equals(const Value& other) const {
  if (is_null_ || other.is_null_) return is_null_ && other.is_null_;
  if (type_ == other.type_) {
    switch (type_) {
      case TypeId::kBool:
        return word_.b == other.word_.b;
      case TypeId::kInt64:
        return word_.i == other.word_.i;
      case TypeId::kDouble:
        return CompareDoubles(word_.d, other.word_.d) == 0;
      case TypeId::kString:
        return string_value() == other.string_value();
    }
  }
  if (type().is_numeric() && other.type().is_numeric()) {
    return CompareDoubles(ToDouble(), other.ToDouble()) == 0;
  }
  return false;
}

size_t Value::Hash() const {
  if (is_null_) return 0x9e3779b97f4a7c15ull;
  switch (type_) {
    case TypeId::kBool:
      return word_.b ? 0x12345 : 0x54321;
    case TypeId::kInt64:
      // Hash integral-valued numerics identically to their double form so
      // Hash is consistent with Equals' numeric widening.
      return std::hash<double>()(static_cast<double>(word_.i));
    case TypeId::kDouble:
      // Every NaN payload is one value (Equals), so all hash alike.
      return std::hash<double>()(std::isnan(word_.d) ? NAN : word_.d);
    case TypeId::kString:
      return std::hash<std::string>()(string_value());
  }
  return 0;
}

int CompareDoubles(double x, double y) {
  if (x < y) return -1;
  if (x > y) return 1;
  if (x == y) return 0;  // includes -0.0 == 0.0
  // At least one NaN: NaN equals NaN and sorts above everything else.
  return std::isnan(x) ? (std::isnan(y) ? 0 : 1) : -1;
}

int CompareValues(const Value& a, const Value& b) {
  SL_DCHECK(!a.is_null() && !b.is_null());
  if (a.type() == b.type()) {
    switch (a.type().id()) {
      case TypeId::kBool: {
        int x = a.bool_value() ? 1 : 0, y = b.bool_value() ? 1 : 0;
        return x - y;
      }
      case TypeId::kInt64: {
        int64_t x = a.int64_value(), y = b.int64_value();
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      case TypeId::kDouble:
        return CompareDoubles(a.double_value(), b.double_value());
      case TypeId::kString:
        return a.string_value().compare(b.string_value());
    }
  }
  SL_DCHECK(a.type().is_numeric() && b.type().is_numeric());
  return CompareDoubles(a.ToDouble(), b.ToDouble());
}

int64_t EstimateRowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row));
  for (const auto& v : row) bytes += v.EstimatedBytes();
  return bytes;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    if (row[i].type() == DataType::String() && !row[i].is_null()) {
      out += "'" + row[i].ToString() + "'";
    } else {
      out += row[i].ToString();
    }
  }
  out += ")";
  return out;
}

}  // namespace sparkline
