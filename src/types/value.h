// The scalar value model: a null-aware tagged union over the SQL types
// sparkline supports (BOOLEAN, BIGINT, DOUBLE, VARCHAR).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"

namespace sparkline {

/// \brief Physical type tags.
enum class TypeId : uint8_t { kBool = 0, kInt64, kDouble, kString };

/// \brief A (currently non-parametric) SQL data type.
class DataType {
 public:
  constexpr DataType() : id_(TypeId::kInt64) {}
  constexpr explicit DataType(TypeId id) : id_(id) {}

  static constexpr DataType Bool() { return DataType(TypeId::kBool); }
  static constexpr DataType Int64() { return DataType(TypeId::kInt64); }
  static constexpr DataType Double() { return DataType(TypeId::kDouble); }
  static constexpr DataType String() { return DataType(TypeId::kString); }

  TypeId id() const { return id_; }
  bool is_numeric() const {
    return id_ == TypeId::kInt64 || id_ == TypeId::kDouble;
  }

  /// SQL-ish name: BOOLEAN, BIGINT, DOUBLE, VARCHAR.
  std::string ToString() const;

  bool operator==(const DataType& o) const { return id_ == o.id_; }
  bool operator!=(const DataType& o) const { return id_ != o.id_; }

 private:
  TypeId id_;
};

/// \brief Returns true if values of `a` and `b` can be compared/combined
/// (identical, or both numeric with implicit widening).
bool TypesComparable(DataType a, DataType b);

/// \brief The common type of two comparable types (numeric widening to
/// DOUBLE when mixing BIGINT and DOUBLE).
DataType CommonType(DataType a, DataType b);

/// \brief A single nullable SQL value.
///
/// Null values still carry a type tag so that expression evaluation stays
/// typed; an "untyped" SQL NULL literal defaults to BIGINT and is coerced
/// during analysis.
class Value {
 public:
  /// Default-constructs a BIGINT NULL.
  Value() : type_(TypeId::kInt64), is_null_(true) {}

  static Value Null(DataType type = DataType::Int64()) {
    Value v;
    v.type_ = type.id();
    v.is_null_ = true;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBool;
    v.is_null_ = false;
    v.bool_ = b;
    return v;
  }
  static Value Int64(int64_t i) {
    Value v;
    v.type_ = TypeId::kInt64;
    v.is_null_ = false;
    v.int_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.is_null_ = false;
    v.double_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = TypeId::kString;
    v.is_null_ = false;
    v.string_ = std::move(s);
    return v;
  }

  bool is_null() const { return is_null_; }
  DataType type() const { return DataType(type_); }

  bool bool_value() const {
    SL_DCHECK(!is_null_ && type_ == TypeId::kBool);
    return bool_;
  }
  int64_t int64_value() const {
    SL_DCHECK(!is_null_ && type_ == TypeId::kInt64);
    return int_;
  }
  double double_value() const {
    SL_DCHECK(!is_null_ && type_ == TypeId::kDouble);
    return double_;
  }
  const std::string& string_value() const {
    SL_DCHECK(!is_null_ && type_ == TypeId::kString);
    return string_;
  }

  /// Numeric value widened to double; only valid for non-null numerics.
  double ToDouble() const {
    SL_DCHECK(!is_null_ && DataType(type_).is_numeric());
    return type_ == TypeId::kDouble ? double_ : static_cast<double>(int_);
  }

  /// Casts to the given type; numeric widening/narrowing and string parsing
  /// are supported. Nulls cast to nulls of the target type.
  Result<Value> CastTo(DataType target) const;

  /// SQL-ish rendering; NULL renders as "NULL".
  std::string ToString() const;

  /// Null-aware equality used for grouping and DISTINCT: NULL == NULL here.
  /// Numerics compare after widening (1 == 1.0).
  bool Equals(const Value& other) const;

  /// Hash consistent with Equals.
  size_t Hash() const;

  /// Approximate in-memory footprint, for the memory-consumption metrics.
  int64_t EstimatedBytes() const {
    return static_cast<int64_t>(sizeof(Value)) +
           (type_ == TypeId::kString
                ? static_cast<int64_t>(string_.capacity())
                : 0);
  }

 private:
  TypeId type_;
  bool is_null_;
  union {
    bool bool_;
    int64_t int_;
    double double_;
  };
  std::string string_;
};

/// \brief Spark's total order on DOUBLE: NaN equals NaN and is greater than
/// every other value (+infinity included), and -0.0 equals 0.0. Returns
/// <0, 0, >0.
int CompareDoubles(double x, double y);

/// \brief Three-way comparison of two non-null values of comparable types.
///
/// Returns <0, 0, >0. DOUBLE (and mixed BIGINT/DOUBLE, compared as DOUBLE)
/// follows CompareDoubles, so ORDER BY, MIN/MAX, comparison operators and
/// dominance share one total order. This is the hot path of every row
/// dominance test; the caller (analysis) guarantees type compatibility,
/// checked only in debug.
int CompareValues(const Value& a, const Value& b);

/// \brief A tuple. Row-oriented storage keeps the skyline operators simple
/// and matches Spark's InternalRow model at the operator boundary.
using Row = std::vector<Value>;

/// Approximate memory footprint of a row.
int64_t EstimateRowBytes(const Row& row);

/// Renders "(1, 'x', NULL)".
std::string RowToString(const Row& row);

/// \brief Hash / equality functors over rows, for hash aggregation and
/// DISTINCT (null-aware: NULLs compare equal, as in SQL grouping).
struct RowHash {
  size_t operator()(const Row& r) const {
    size_t h = 1469598103934665603ull;
    for (const auto& v : r) {
      h ^= v.Hash();
      h *= 1099511628211ull;
    }
    return h;
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].Equals(b[i])) return false;
    }
    return true;
  }
};

}  // namespace sparkline
