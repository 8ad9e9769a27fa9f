// The scalar value model: a null-aware tagged union over the SQL types
// sparkline supports (BOOLEAN, BIGINT, DOUBLE, VARCHAR).
#pragma once

#include <atomic>
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

/// \brief A single nullable SQL value, 16 bytes.
///
/// A type tag, a null flag and one 8-byte word: BOOLEAN, BIGINT and DOUBLE
/// live in the word; a VARCHAR's word points to an immutable payload that
/// every copy of the value shares, so copying a VARCHAR never copies its
/// characters. A moved-from value is a NULL of its type.
///
/// Null values still carry a type tag so that expression evaluation stays
/// typed; an "untyped" SQL NULL literal defaults to BIGINT and is coerced
/// during analysis.
class Value {
 public:
  /// Default-constructs a BIGINT NULL.
  Value() : type_(TypeId::kInt64), is_null_(true), word_{0} {}

  Value(const Value& other) noexcept
      : type_(other.type_), is_null_(other.is_null_), word_(other.word_) {
    Retain();
  }
  Value(Value&& other) noexcept
      : type_(other.type_), is_null_(other.is_null_), word_(other.word_) {
    other.is_null_ = true;
  }
  Value& operator=(const Value& other) noexcept {
    other.Retain();  // before Release, so self-assignment keeps the payload
    Release();
    type_ = other.type_;
    is_null_ = other.is_null_;
    word_ = other.word_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      type_ = other.type_;
      is_null_ = other.is_null_;
      word_ = other.word_;
      other.is_null_ = true;
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null(DataType type = DataType::Int64()) {
    Value v;
    v.type_ = type.id();
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBool;
    v.is_null_ = false;
    v.word_.b = b;
    return v;
  }
  static Value Int64(int64_t i) {
    Value v;
    v.type_ = TypeId::kInt64;
    v.is_null_ = false;
    v.word_.i = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.is_null_ = false;
    v.word_.d = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.word_.s = new StringPayload(std::move(s));
    v.type_ = TypeId::kString;
    v.is_null_ = false;
    return v;
  }

  bool is_null() const { return is_null_; }
  DataType type() const { return DataType(type_); }

  bool bool_value() const {
    SL_DCHECK(!is_null_ && type_ == TypeId::kBool);
    return word_.b;
  }
  int64_t int64_value() const {
    SL_DCHECK(!is_null_ && type_ == TypeId::kInt64);
    return word_.i;
  }
  double double_value() const {
    SL_DCHECK(!is_null_ && type_ == TypeId::kDouble);
    return word_.d;
  }
  const std::string& string_value() const {
    SL_DCHECK(!is_null_ && type_ == TypeId::kString);
    return word_.s->str;
  }

  /// Numeric value widened to double; only valid for non-null numerics.
  double ToDouble() const {
    SL_DCHECK(!is_null_ && DataType(type_).is_numeric());
    return type_ == TypeId::kDouble ? word_.d : static_cast<double>(word_.i);
  }

  /// Casts to the given type; numeric widening/narrowing and string parsing
  /// are supported. Nulls cast to nulls of the target type. DOUBLE narrows
  /// to BIGINT by rounding half away from zero; NaN, ±infinity and values
  /// that round outside the BIGINT range are Invalid, like an unparsable
  /// string.
  Result<Value> CastTo(DataType target) const;

  /// SQL-ish rendering; NULL renders as "NULL".
  std::string ToString() const;

  /// Null-aware equality used for grouping and DISTINCT: NULL == NULL here.
  /// Numerics compare after widening (1 == 1.0).
  bool Equals(const Value& other) const;

  /// Hash consistent with Equals.
  size_t Hash() const;

  /// Approximate in-memory footprint, for the memory-consumption metrics:
  /// 16 bytes, plus the payload for a non-null VARCHAR. A payload shared by
  /// several values is counted once per value, so the estimate errs high.
  int64_t EstimatedBytes() const {
    return static_cast<int64_t>(sizeof(Value)) +
           (has_payload() ? static_cast<int64_t>(sizeof(StringPayload) +
                                                 word_.s->str.capacity())
                          : 0);
  }

 private:
  /// A VARCHAR's characters, allocated once by String() and freed by the
  /// last release. Immutable, so sharing it needs no lock; the count is
  /// atomic because executor threads copy rows out of one shared table.
  struct StringPayload {
    explicit StringPayload(std::string s) : str(std::move(s)) {}
    mutable std::atomic<uint64_t> refs{1};
    const std::string str;
  };

  /// Which member is live follows type_; none is read while is_null_.
  union Word {
    int64_t i;
    double d;
    bool b;
    const StringPayload* s;
  };

  bool has_payload() const { return type_ == TypeId::kString && !is_null_; }
  void Retain() const {
    if (has_payload()) word_.s->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Release() {
    if (has_payload() &&
        word_.s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete word_.s;
    }
  }

  TypeId type_;
  bool is_null_;
  Word word_;
};

static_assert(sizeof(Value) == 16,
              "a Value is a type tag, a null flag and one 8-byte word");

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

/// \brief A tuple: one 16-byte Value per column, whose VARCHAR payloads
/// every copy of the row shares. Rows are what operators exchange above
/// the storage layer, as Spark's InternalRow is; tables store their values
/// column by column (RowChunk, types/row_view.h), and a RowRef builds one
/// Value per column from there, so a Row exists only where an operator
/// materializes one.
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
