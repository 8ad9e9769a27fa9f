// Tests for the type system (Value, DataType, Schema, rows).
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "types/schema.h"
#include "types/value.h"

namespace sparkline {
namespace {

// Longer than std::string's inline buffer, so a copied string would own a
// second heap buffer and data() would differ.
const std::string kLongText(64, 'v');

TEST(DataTypeTest, Names) {
  EXPECT_EQ(DataType::Bool().ToString(), "BOOLEAN");
  EXPECT_EQ(DataType::Int64().ToString(), "BIGINT");
  EXPECT_EQ(DataType::Double().ToString(), "DOUBLE");
  EXPECT_EQ(DataType::String().ToString(), "VARCHAR");
}

TEST(DataTypeTest, Comparability) {
  EXPECT_TRUE(TypesComparable(DataType::Int64(), DataType::Double()));
  EXPECT_TRUE(TypesComparable(DataType::String(), DataType::String()));
  EXPECT_FALSE(TypesComparable(DataType::String(), DataType::Int64()));
  EXPECT_EQ(CommonType(DataType::Int64(), DataType::Double()),
            DataType::Double());
  EXPECT_EQ(CommonType(DataType::Int64(), DataType::Int64()),
            DataType::Int64());
}

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
  Value typed = Value::Null(DataType::String());
  EXPECT_EQ(typed.type(), DataType::String());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value::Int64(42).int64_value(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("hi").string_value(), "hi");
  EXPECT_TRUE(Value::Bool(true).bool_value());
}

TEST(ValueTest, NumericWideningEquality) {
  EXPECT_TRUE(Value::Int64(3).Equals(Value::Double(3.0)));
  EXPECT_FALSE(Value::Int64(3).Equals(Value::Double(3.5)));
  EXPECT_TRUE(Value::Null().Equals(Value::Null(DataType::Double())));
  EXPECT_FALSE(Value::Null().Equals(Value::Int64(0)));
}

TEST(ValueTest, HashConsistentWithEquals) {
  EXPECT_EQ(Value::Int64(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null(DataType::String()).Hash());
}

TEST(ValueTest, CompareValues) {
  EXPECT_LT(CompareValues(Value::Int64(1), Value::Int64(2)), 0);
  EXPECT_GT(CompareValues(Value::Double(2.5), Value::Int64(2)), 0);
  EXPECT_EQ(CompareValues(Value::String("a"), Value::String("a")), 0);
  EXPECT_LT(CompareValues(Value::Bool(false), Value::Bool(true)), 0);
}

TEST(ValueTest, CastNumeric) {
  auto d = Value::Int64(3).CastTo(DataType::Double());
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->double_value(), 3.0);
  auto i = Value::Double(2.6).CastTo(DataType::Int64());
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->int64_value(), 3);  // rounds
}

// DOUBLE -> BIGINT is defined only where the rounded value is a BIGINT:
// NaN, the infinities and anything from 2^63 up or below -2^63 are Invalid
// instead of whatever the CPU's conversion returns.
TEST(ValueTest, CastDoubleToBigintRejectsUnrepresentable) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double d : {std::nan(""), inf, -inf, 0x1p63,
                         std::nextafter(-0x1p63, -inf), 1e300}) {
    const auto r = Value::Double(d).CastTo(DataType::Int64());
    ASSERT_FALSE(r.ok()) << d;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << d;
    EXPECT_NE(r.status().message().find("to BIGINT"), std::string::npos)
        << r.status().ToString();
  }
  // -2^63 is INT64_MIN exactly; the largest double below 2^63 fits too.
  const auto lowest = Value::Double(-0x1p63).CastTo(DataType::Int64());
  ASSERT_TRUE(lowest.ok());
  EXPECT_EQ(lowest->int64_value(), std::numeric_limits<int64_t>::min());
  const auto highest =
      Value::Double(std::nextafter(0x1p63, 0.0)).CastTo(DataType::Int64());
  ASSERT_TRUE(highest.ok());
  EXPECT_EQ(highest->int64_value(), int64_t{9223372036854774784});
  const auto half = Value::Double(-2.5).CastTo(DataType::Int64());
  ASSERT_TRUE(half.ok());
  EXPECT_EQ(half->int64_value(), -3);  // half away from zero
}

TEST(ValueTest, CastStringParses) {
  auto i = Value::String("123").CastTo(DataType::Int64());
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->int64_value(), 123);
  auto d = Value::String("1.5").CastTo(DataType::Double());
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->double_value(), 1.5);
  EXPECT_FALSE(Value::String("abc").CastTo(DataType::Int64()).ok());
}

TEST(ValueTest, CastNullStaysNull) {
  auto v = Value::Null().CastTo(DataType::String());
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
  EXPECT_EQ(v->type(), DataType::String());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Double(3.0).ToString(), "3");
  EXPECT_EQ(Value::Double(0.5).ToString(), "0.5");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
}

TEST(RowTest, RowToString) {
  Row r{Value::Int64(1), Value::String("x"), Value::Null()};
  EXPECT_EQ(RowToString(r), "(1, 'x', NULL)");
}

TEST(RowTest, HashAndEq) {
  RowHash h;
  RowEq eq;
  Row a{Value::Int64(1), Value::Double(2.0)};
  Row b{Value::Int64(1), Value::Int64(2)};  // widening equality
  EXPECT_TRUE(eq(a, b));
  EXPECT_EQ(h(a), h(b));
  Row c{Value::Int64(1), Value::Null()};
  Row d{Value::Int64(1), Value::Null(DataType::Double())};
  EXPECT_TRUE(eq(c, d));  // SQL grouping: NULL == NULL
  EXPECT_FALSE(eq(a, c));
}

TEST(RowTest, EstimateBytesGrowsWithStrings) {
  Row small{Value::Int64(1)};
  Row large{Value::String(std::string(1000, 'x'))};
  EXPECT_GT(EstimateRowBytes(large), EstimateRowBytes(small));
}

TEST(ValueTest, EstimatedBytes) {
  for (const Value& v : {Value::Int64(1), Value::Double(2.5), Value::Bool(true),
                         Value::Null(), Value::Null(DataType::String())}) {
    EXPECT_EQ(v.EstimatedBytes(), 16) << v.ToString();
  }
  const Value text = Value::String(kLongText);
  EXPECT_GE(text.EstimatedBytes(),
            16 + static_cast<int64_t>(kLongText.size()));
  // Every value holding a shared payload counts it in full.
  const Value copy = text;
  EXPECT_EQ(copy.EstimatedBytes(), text.EstimatedBytes());
}

TEST(ValueTest, VarcharCopiesShareOnePayload) {
  const Value original = Value::String(kLongText);
  const char* data = original.string_value().data();
  const Value constructed(original);
  EXPECT_EQ(constructed.string_value().data(), data);

  Value assigned = Value::Int64(7);
  assigned = original;
  EXPECT_EQ(assigned.string_value().data(), data);

  Value replaced = Value::String("an older payload, released on assignment");
  replaced = original;
  EXPECT_EQ(replaced.string_value().data(), data);
  replaced = Value::Double(1.5);  // drops one share; the others keep it
  EXPECT_DOUBLE_EQ(replaced.double_value(), 1.5);
  EXPECT_EQ(original.string_value(), kLongText);

  const Row row{Value::Int64(1), original};
  const Row row_copy = row;
  EXPECT_EQ(row_copy[1].string_value().data(), data);
}

TEST(ValueTest, VarcharSelfAssignmentKeepsPayload) {
  Value v = Value::String(kLongText);
  const char* data = v.string_value().data();
  const Value& alias = v;
  v = alias;
  EXPECT_EQ(v.string_value(), kLongText);
  EXPECT_EQ(v.string_value().data(), data);
  Value& same = v;
  v = std::move(same);
  EXPECT_EQ(v.string_value(), kLongText);
  EXPECT_EQ(v.string_value().data(), data);
}

TEST(ValueTest, MovedFromValueIsNullOfItsType) {
  Value source = Value::String(kLongText);
  const char* data = source.string_value().data();
  Value constructed(std::move(source));
  EXPECT_EQ(constructed.string_value().data(), data);
  EXPECT_TRUE(source.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.type(), DataType::String());

  Value assigned = Value::String("replaced");
  assigned = std::move(constructed);
  EXPECT_EQ(assigned.string_value().data(), data);
  EXPECT_TRUE(constructed.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(constructed.type(), DataType::String());

  Value number = Value::Double(2.5);
  const Value taken = std::move(number);
  EXPECT_DOUBLE_EQ(taken.double_value(), 2.5);
  EXPECT_TRUE(number.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(number.type(), DataType::Double());

  source = Value::String("reused");
  EXPECT_EQ(source.string_value(), "reused");
}

// Executor threads copy rows out of one shared table at once, so copies
// and destructions of one payload race on its count. TSan reports a
// non-atomic count, ASan a second release, LeakSanitizer a missed one.
TEST(ValueTest, ConcurrentCopiesOfOneVarchar) {
  const Value shared = Value::String(kLongText);
  const Row shared_row{Value::Int64(1), shared, Value::Double(0.5)};
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        Value copy = shared;
        Value moved = std::move(copy);
        std::vector<Row> rows(3, shared_row);
        rows[0][1] = moved;
        rows.push_back(rows[1]);
        const Row taken = std::move(rows.back());
        rows.pop_back();
        if (taken[1].string_value().data() !=
                shared.string_value().data() ||
            rows[0][1].string_value().size() != kLongText.size()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(shared.string_value(), kLongText);
  EXPECT_EQ(shared_row[1].string_value().data(), shared.string_value().data());
}

TEST(SchemaTest, IndexOfIsCaseInsensitive) {
  Schema s({Field{"Id", DataType::Int64(), false},
            Field{"price", DataType::Double(), true}});
  EXPECT_EQ(s.IndexOf("id"), 0);
  EXPECT_EQ(s.IndexOf("PRICE"), 1);
  EXPECT_EQ(s.IndexOf("missing"), -1);
}

TEST(SchemaTest, ToStringShowsNullability) {
  Schema s({Field{"id", DataType::Int64(), false}});
  EXPECT_EQ(s.ToString(), "(id BIGINT NOT NULL)");
}

}  // namespace
}  // namespace sparkline
