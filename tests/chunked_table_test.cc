// Chunked table snapshots (ChunkedRows in types/row_view.h,
// Table::Successor). A table keeps its rows in shared, immutable chunks of
// kChunkRows rows; an insert shares every full chunk of the snapshot it
// extends, copies only the partial tail chunk and appends the batch. These
// tests pin the sharing and the chunk boundaries, and run skylines,
// borrowing filters, the angle exchange, DISTINCT and cached answers over
// tables of one, two and three chunks against BruteForceSkyline,
// strategy=reference and a fresh session. Chunks store one array per
// column, so the typed-store tests below round-trip every value class
// bit for bit through appends, inserts and views. sl_bench's smoke tables
// hold less than one chunk, so this suite is the only coverage of
// multi-chunk tables.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/datagen.h"
#include "exec/exec_context.h"
#include "exec/physical_plan.h"
#include "skyline/algorithms.h"
#include "skyline/columnar.h"
#include "test_util.h"

namespace sparkline {
namespace {

using skyline::BoundDimension;
using skyline::DominanceMatrix;
using testing::Rows;
using testing::RowStrings;

/// Correlated 4-d points (id, d0..d3): small skylines, so
/// BruteForceSkyline and strategy=reference stay cheap on 16k rows.
TablePtr Points(const std::string& name, size_t n, uint64_t seed = 7) {
  return datagen::GeneratePoints(name, n, 4,
                                 datagen::PointDistribution::kCorrelated, seed);
}

/// `n` rows for Points' schema with ids from `first_id`; some land below
/// every generated point, so they enter the skylines.
std::vector<Row> Batch(int64_t first_id, size_t n, uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<Row> batch;
  for (size_t i = 0; i < n; ++i) {
    Row row{Value::Int64(first_id + static_cast<int64_t>(i))};
    const double base = rng.Uniform(-0.05, 1.0);
    for (int d = 0; d < 4; ++d) {
      row.push_back(Value::Double(base + rng.Uniform(0.0, 0.02)));
    }
    batch.push_back(std::move(row));
  }
  return batch;
}

/// Order-sensitive FNV-1a hash of the rows' printed form.
uint64_t RowsHash(const ChunkedRows& rows) {
  uint64_t h = 1469598103934665603ull;
  for (const Row& row : rows) {
    for (const char c : RowToString(row) + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return h;
}

/// Every chunk but the last is full, and the chunks hold size() rows.
void ExpectChunkInvariant(const ChunkedRows& rows) {
  size_t total = 0;
  for (size_t c = 0; c < rows.chunks().size(); ++c) {
    if (c + 1 < rows.chunks().size()) {
      EXPECT_EQ(rows.chunks()[c]->size(), kChunkRows) << "chunk " << c;
    }
    EXPECT_GT(rows.chunks()[c]->size(), 0u) << "chunk " << c;
    total += rows.chunks()[c]->size();
  }
  EXPECT_EQ(total, rows.size());
}

/// Chunks of `next` that are not pointer-identical to `prev`'s chunk at the
/// same position.
size_t UnsharedChunks(const ChunkedRows& prev, const ChunkedRows& next) {
  size_t unshared = 0;
  for (size_t c = 0; c < next.chunks().size(); ++c) {
    unshared += c >= prev.chunks().size() ||
                next.chunks()[c] != prev.chunks()[c];
  }
  return unshared;
}

// --- sharing and boundaries --------------------------------------------------

TEST(ChunkedTableTest, InsertSharesEveryFullChunkAndCopiesOnlyTheTail) {
  Catalog catalog;
  ASSERT_OK(catalog.RegisterTable(Points("pts", 2 * kChunkRows + 100)));
  ASSERT_OK_AND_ASSIGN(TablePtr before, catalog.GetTable("pts"));
  const uint64_t hash = RowsHash(before->rows());
  ASSERT_EQ(before->rows().chunks().size(), 3u);

  const std::vector<Row> batch = Batch(1000000, 5);
  ASSERT_OK(catalog.InsertInto("pts", batch));
  ASSERT_OK_AND_ASSIGN(TablePtr after, catalog.GetTable("pts"));
  ASSERT_NE(after, before);

  const auto& old_chunks = before->rows().chunks();
  const auto& new_chunks = after->rows().chunks();
  ASSERT_EQ(new_chunks.size(), 3u);
  EXPECT_EQ(new_chunks[0], old_chunks[0]);
  EXPECT_EQ(new_chunks[1], old_chunks[1]);
  EXPECT_NE(new_chunks[2], old_chunks[2]);
  EXPECT_EQ(old_chunks[2]->size(), 100u);
  EXPECT_EQ(new_chunks[2]->size(), 105u);
  EXPECT_EQ(UnsharedChunks(before->rows(), after->rows()), 1u);
  ExpectChunkInvariant(after->rows());

  // The predecessor reads exactly as before; the successor reads it, then
  // the batch.
  EXPECT_EQ(RowsHash(before->rows()), hash);
  EXPECT_EQ(before->num_rows(), 2 * kChunkRows + 100);
  ASSERT_EQ(after->num_rows(), before->num_rows() + batch.size());
  for (size_t i = 0; i < before->num_rows(); ++i) {
    ASSERT_EQ(RowToString(after->rows()[i]), RowToString(before->rows()[i]))
        << "row " << i;
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(RowToString(after->rows()[before->num_rows() + i]),
              RowToString(batch[i]));
  }
}

TEST(ChunkedTableTest, InsertAtAnExactMultipleSharesEveryChunkAndStartsOne) {
  Catalog catalog;
  ASSERT_OK(catalog.RegisterTable(Points("pts", 2 * kChunkRows)));
  ASSERT_OK_AND_ASSIGN(TablePtr before, catalog.GetTable("pts"));
  const uint64_t hash = RowsHash(before->rows());

  const std::vector<Row> batch = Batch(1000000, 3);
  ASSERT_OK(catalog.InsertInto("pts", batch));
  ASSERT_OK_AND_ASSIGN(TablePtr after, catalog.GetTable("pts"));
  const auto& new_chunks = after->rows().chunks();
  ASSERT_EQ(new_chunks.size(), 3u);
  EXPECT_EQ(new_chunks[0], before->rows().chunks()[0]);
  EXPECT_EQ(new_chunks[1], before->rows().chunks()[1]);
  ASSERT_EQ(new_chunks[2]->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(RowToString((*new_chunks[2])[i]), RowToString(batch[i]));
  }
  EXPECT_EQ(RowsHash(before->rows()), hash);
  ExpectChunkInvariant(after->rows());
}

// A batch that fills the tail chunk continues in a new one; the next
// insert then shares the chunk that filled. A batch larger than a chunk
// fills whole chunks of its own.
TEST(ChunkedTableTest, BatchesCrossChunkBoundaries) {
  Catalog catalog;
  ASSERT_OK(catalog.RegisterTable(Points("pts", kChunkRows - 2)));
  ASSERT_OK_AND_ASSIGN(TablePtr t0, catalog.GetTable("pts"));
  std::vector<std::string> expected;
  for (const Row& row : t0->rows()) expected.push_back(RowToString(row));

  int64_t next_id = 1000000;
  TablePtr prev = t0;
  const std::vector<size_t> batch_sizes = {5, 4, kChunkRows + 7, 1};
  for (size_t b = 0; b < batch_sizes.size(); ++b) {
    SCOPED_TRACE(StrCat("batch ", b, " of ", batch_sizes[b], " rows"));
    const std::vector<Row> batch = Batch(next_id, batch_sizes[b], b + 11);
    next_id += static_cast<int64_t>(batch.size());
    for (const Row& row : batch) expected.push_back(RowToString(row));
    ASSERT_OK(catalog.InsertInto("pts", batch));
    ASSERT_OK_AND_ASSIGN(TablePtr next, catalog.GetTable("pts"));

    ExpectChunkInvariant(next->rows());
    ASSERT_EQ(next->num_rows(), expected.size());
    // Indexing and iteration both read every row in id order.
    size_t id = 0;
    for (const Row& row : next->rows()) {
      ASSERT_EQ(RowToString(row), expected[id]) << "row " << id;
      ASSERT_EQ(RowToString(next->rows()[id]), RowToString(row))
          << "row " << id;
      ++id;
    }
    EXPECT_EQ(id, expected.size());
    // Every full chunk of the predecessor is shared; at most its tail is
    // copied, and every other new chunk holds batch rows only.
    const size_t full = prev->num_rows() / kChunkRows;
    for (size_t c = 0; c < full; ++c) {
      EXPECT_EQ(next->rows().chunks()[c], prev->rows().chunks()[c]);
    }
    const size_t copied = prev->num_rows() % kChunkRows == 0 ? 0 : 1;
    const size_t batch_only =
        next->rows().chunks().size() - full - copied;
    EXPECT_EQ(UnsharedChunks(prev->rows(), next->rows()), copied + batch_only);
    prev = next;
  }
  // The first snapshot never changed.
  ASSERT_EQ(t0->num_rows(), kChunkRows - 2);
  ASSERT_EQ(t0->rows().chunks().size(), 1u);
  for (size_t i = 0; i < t0->num_rows(); ++i) {
    ASSERT_EQ(RowToString(t0->rows()[i]), expected[i]);
  }
}

// Writers racing through InsertInto's compare-and-swap retry, next to a
// reader scanning the snapshots they replace: every inserted row lands
// exactly once, and the final table keeps the chunk invariant.
TEST(ChunkedTableTest, ConcurrentWritersLandEveryRowExactlyOnce) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));
  Catalog* catalog = session.catalog();
  const size_t initial = kChunkRows - 40;
  ASSERT_OK(catalog->RegisterTable(Points("pts", initial)));

  constexpr int kWriters = 4;
  constexpr int kInsertsPerWriter = 40;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    while (!done.load()) {
      auto df = session.Sql("SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN");
      if (!df.ok() || !df->Collect().ok()) failures.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        // Ids w*1e6 + i*10 + k are unique across writers and inserts.
        const size_t n = 1 + static_cast<size_t>((w + i) % 5);
        std::vector<Row> batch =
            Batch(1000000 * (w + 1) + 10 * i, n, 100 * w + i);
        if (!catalog->InsertInto("pts", batch).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  reader.join();
  ASSERT_EQ(failures.load(), 0);

  ASSERT_OK_AND_ASSIGN(TablePtr table, catalog->GetTable("pts"));
  ExpectChunkInvariant(table->rows());
  std::map<int64_t, int> seen;
  for (const Row& row : table->rows()) ++seen[row[0].int64_value()];
  size_t inserted = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kInsertsPerWriter; ++i) {
      const size_t n = 1 + static_cast<size_t>((w + i) % 5);
      for (size_t k = 0; k < n; ++k) {
        const int64_t id = 1000000 * (w + 1) + 10 * i + static_cast<int64_t>(k);
        EXPECT_EQ(seen[id], 1) << "id " << id;
      }
      inserted += n;
    }
  }
  EXPECT_EQ(table->num_rows(), initial + inserted);
  EXPECT_GT(table->num_rows(), kChunkRows);
  for (size_t id = 0; id < initial; ++id) {
    EXPECT_EQ(seen[static_cast<int64_t>(id)], 1) << "id " << id;
  }
}

// --- skylines over several chunks -------------------------------------------

std::vector<BoundDimension> MinDims(size_t count) {
  std::vector<BoundDimension> dims;
  for (size_t d = 0; d < count; ++d) dims.push_back({d + 1, SkylineGoal::kMin});
  return dims;
}

// Tables just below, at and just above one chunk, and past two chunks:
// each query must agree with BruteForceSkyline over the table's rows and,
// without DISTINCT, with strategy=reference, at 1, 4 and 13 executors and
// under both partitionings.
TEST(ChunkedTableTest, SkylinesAcrossChunkBoundariesAgreeWithBothOracles) {
  struct Query {
    std::string sql;
    size_t dims;
    bool filtered;  // WHERE d3 < 0.9, read in place by the borrowing Filter
    bool distinct;
  };
  const std::vector<Query> queries = {
      {"SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN, d3 MIN", 4, false,
       false},
      {"SELECT * FROM pts WHERE d3 < 0.9 SKYLINE OF d0 MIN, d1 MIN, d2 MIN", 3,
       true, false},
      {"SELECT * FROM pts SKYLINE OF DISTINCT d0 MIN, d1 MIN", 2, false, true},
  };
  for (const size_t n : {kChunkRows - 1, kChunkRows, kChunkRows + 1,
                         2 * kChunkRows + 3}) {
    Session session;
    TablePtr table = Points("pts", n, 5 + n);
    ASSERT_OK(session.catalog()->RegisterTable(table));
    ASSERT_EQ(table->rows().chunks().size(), (n + kChunkRows - 1) / kChunkRows);
    for (const Query& q : queries) {
      std::vector<Row> input;
      for (const Row& row : table->rows()) {
        if (!q.filtered || row[4].double_value() < 0.9) input.push_back(row);
      }
      skyline::SkylineOptions options;
      options.distinct = q.distinct;
      const std::vector<std::string> expected = RowStrings(
          skyline::BruteForceSkyline(input, MinDims(q.dims), options));
      ASSERT_FALSE(expected.empty());
      for (const char* executors : {"1", "4", "13"}) {
        ASSERT_OK(session.SetConf("sparkline.executors", executors));
        for (const char* partitioning : {"asis", "angle"}) {
          SCOPED_TRACE(StrCat(q.sql, " n=", n, " executors=", executors,
                              " partitioning=", partitioning));
          ASSERT_OK(session.SetConf("sparkline.skyline.partitioning",
                                    partitioning));
          EXPECT_EQ(RowStrings(Rows(&session, q.sql)), expected);
        }
        ASSERT_OK(session.SetConf("sparkline.skyline.partitioning", "asis"));
        if (q.distinct) continue;
        ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
        EXPECT_EQ(RowStrings(Rows(&session, q.sql)), expected)
            << q.sql << " n=" << n << " strategy=reference";
        ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "auto"));
      }
    }
  }
}

// Cached answers maintained (or invalidated) through inserts that cross
// chunk boundaries equal a fresh cache-off session's over a copy of the
// final snapshot.
TEST(ChunkedTableTest, CachedAnswersAcrossBoundaryInsertsMatchAFreshSession) {
  const std::vector<std::string> queries = {
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN",
      "SELECT * FROM pts WHERE d3 < 0.9 SKYLINE OF d0 MIN, d1 MIN",
      "SELECT * FROM pts SKYLINE OF DISTINCT d0 MIN, d2 MIN",
  };
  for (const char* executors : {"1", "4", "13"}) {
    SCOPED_TRACE(StrCat("executors=", executors));
    Session session;
    ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
    ASSERT_OK(session.SetConf("sparkline.executors", executors));
    ASSERT_OK(session.catalog()->RegisterTable(Points("pts", kChunkRows - 3)));
    for (const std::string& sql : queries) Rows(&session, sql);

    int64_t next_id = 1000000;
    for (const size_t batch_size : {size_t{5}, size_t{2}, kChunkRows + 4}) {
      SCOPED_TRACE(StrCat("batch of ", batch_size));
      const std::vector<Row> batch =
          Batch(next_id, batch_size, static_cast<uint64_t>(next_id));
      next_id += static_cast<int64_t>(batch_size);
      ASSERT_OK(session.catalog()->InsertInto("pts", batch));
      session.catalog()->DrainWrites();
      ASSERT_OK_AND_ASSIGN(TablePtr live, session.catalog()->GetTable("pts"));
      Session fresh;
      ASSERT_OK(fresh.SetConf("sparkline.executors", executors));
      auto copy = std::make_shared<Table>(live->name(), live->schema());
      for (const Row& row : live->rows()) copy->AppendRowUnchecked(row);
      ASSERT_OK(fresh.catalog()->RegisterTable(copy));
      for (const std::string& sql : queries) {
        EXPECT_EQ(RowStrings(Rows(&session, sql)),
                  RowStrings(Rows(&fresh, sql)))
            << sql;
      }
    }
  }
}

// --- the typed column store --------------------------------------------------

/// Same type tag, NULL flag and bits (a DOUBLE's sign and NaN included).
void ExpectSameValue(const Value& got, const Value& want) {
  ASSERT_EQ(got.type(), want.type()) << got.ToString();
  ASSERT_EQ(got.is_null(), want.is_null()) << got.ToString();
  if (want.is_null()) return;
  switch (want.type().id()) {
    case TypeId::kBool:
      EXPECT_EQ(got.bool_value(), want.bool_value());
      break;
    case TypeId::kInt64:
      EXPECT_EQ(got.int64_value(), want.int64_value());
      break;
    case TypeId::kDouble: {
      const double a = got.double_value();
      const double b = want.double_value();
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << a << " vs " << b;
      break;
    }
    case TypeId::kString:
      EXPECT_EQ(got.string_value(), want.string_value());
      break;
  }
}

void ExpectSameRow(const Row& got, const Row& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < want.size(); ++c) {
    SCOPED_TRACE(StrCat("column ", c));
    ExpectSameValue(got[c], want[c]);
  }
}

Schema TypedSchema() {
  return Schema({Field{"i", DataType::Int64(), false},
                 Field{"b", DataType::Bool(), true},
                 Field{"n", DataType::Int64(), true},
                 Field{"d", DataType::Double(), true},
                 Field{"s", DataType::String(), true}});
}

/// Row `i` of TypedSchema cycles through every value class of each column:
/// NaN, -0.0, ±inf, INT64 min/max, 2^53 + 1, "", one shared VARCHAR
/// payload, both BOOLEANs and a NULL of each type.
Row TypedRow(int64_t i, const Value& shared) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> bools = {Value::Bool(true), Value::Bool(false),
                                    Value::Null(DataType::Bool())};
  const std::vector<Value> ints = {
      Value::Int64(std::numeric_limits<int64_t>::min()),
      Value::Int64(std::numeric_limits<int64_t>::max()),
      Value::Int64((int64_t{1} << 53) + 1), Value::Int64(-7),
      Value::Null(DataType::Int64())};
  const std::vector<Value> doubles = {
      Value::Double(std::nan("")), Value::Double(-0.0), Value::Double(inf),
      Value::Double(-inf),         Value::Double(0.25), Value::Null(DataType::Double())};
  const std::vector<Value> strings = {Value::String(""), shared,
                                      Value::String(StrCat("s", i)),
                                      Value::Null(DataType::String())};
  const size_t k = static_cast<size_t>(i);
  return {Value::Int64(i), bools[k % bools.size()], ints[k % ints.size()],
          doubles[k % doubles.size()], strings[k % strings.size()]};
}

// Rows appended before registration, then inserted in batches that cross
// both chunk boundaries, read back bit for bit by iteration, by operator[]
// and by Materialize, in every snapshot along the way.
TEST(TypedChunkTest, AppendAndInsertRoundTripEveryValueClass) {
  const Value shared = Value::String("a shared payload");
  std::vector<Row> expected;
  auto table = std::make_shared<Table>("typed", TypedSchema());
  for (int64_t i = 0; i < static_cast<int64_t>(kChunkRows) - 5; ++i) {
    expected.push_back(TypedRow(i, shared));
    ASSERT_OK(table->AppendRow(expected.back()));
  }
  Catalog catalog;
  ASSERT_OK(catalog.RegisterTable(table));
  for (const size_t batch_size : {size_t{9}, kChunkRows, size_t{3}}) {
    std::vector<Row> batch;
    for (size_t k = 0; k < batch_size; ++k) {
      batch.push_back(
          TypedRow(static_cast<int64_t>(expected.size() + k), shared));
    }
    ASSERT_OK(catalog.InsertInto("typed", batch));
    expected.insert(expected.end(), batch.begin(), batch.end());
  }
  ASSERT_OK_AND_ASSIGN(TablePtr live, catalog.GetTable("typed"));
  ASSERT_EQ(live->num_rows(), expected.size());
  ASSERT_EQ(live->rows().chunks().size(), 3u);
  ExpectChunkInvariant(live->rows());

  size_t id = 0;
  for (const RowRef row : live->rows()) {
    SCOPED_TRACE(StrCat("row ", id));
    ExpectSameRow(row.Materialize(), expected[id]);
    ExpectSameRow(live->rows()[id], expected[id]);
    ++id;
  }
  ASSERT_EQ(id, expected.size());
  const std::vector<Row> copied =
      RowView::All(std::shared_ptr<const ChunkedRows>(live, &live->rows()))
          .Materialize();
  ASSERT_EQ(copied.size(), expected.size());
  for (size_t r = 0; r < copied.size(); ++r) {
    SCOPED_TRACE(StrCat("materialized row ", r));
    ExpectSameRow(copied[r], expected[r]);
  }
  // Every copy of the shared VARCHAR reads the one payload.
  EXPECT_EQ(&live->rows()[1][4].string_value(), &shared.string_value());
  const size_t last_shared = (expected.size() - 1) / 4 * 4 + 1;
  ASSERT_LT(last_shared, expected.size());
  EXPECT_EQ(&live->rows()[last_shared][4].string_value(),
            &shared.string_value());
}

// A WHERE keeps non-contiguous ids of the snapshot; a view of those ids
// through a column map reads the rows through the map, in place and
// materialized, bit for bit.
TEST(TypedChunkTest, FilteredViewWithAColumnMapReadsThroughTheMap) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.executors", "3"));
  const Value shared = Value::String("shared");
  std::vector<Row> expected;
  auto table = std::make_shared<Table>("typed", TypedSchema());
  for (int64_t i = 0; i < static_cast<int64_t>(kChunkRows) + 500; ++i) {
    expected.push_back(TypedRow(i, shared));
    ASSERT_OK(table->AppendRow(expected.back()));
  }
  ASSERT_OK(session.catalog()->RegisterTable(table));
  ASSERT_OK_AND_ASSIGN(DataFrame df,
                       session.Sql("SELECT * FROM typed WHERE "
                                   "i % 3 = 1 AND i > 100"));
  ASSERT_OK_AND_ASSIGN(LogicalPlanPtr optimized, session.Optimize(df.plan()));
  ASSERT_OK_AND_ASSIGN(PhysicalPlanPtr physical,
                       session.PlanPhysical(optimized));
  ExecContext ctx(session.config().cluster);
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, physical->Execute(&ctx));
  size_t seen = 0;
  for (size_t p = 0; p < rel.partitions.size(); ++p) {
    ASSERT_TRUE(rel.borrowed(p)) << physical->TreeString();
    const RowView view{rel.views[p]->rows, rel.views[p]->ids, {0, 1, 3, 4}};
    for (size_t k = 0; k < view.size(); ++k) {
      const Row& source = expected[view.ids[k]];
      ASSERT_EQ(view.ids[k] % 3, 1u);
      const Row want{source[0], source[1], source[3], source[4]};
      ExpectSameRow(view.Materialize(k), want);
      for (size_t c = 0; c < want.size(); ++c) {
        ExpectSameValue(view.source(k)[view.column(c)], want[c]);
      }
      ++seen;
    }
  }
  size_t kept = 0;
  for (size_t i = 101; i < expected.size(); ++i) kept += i % 3 == 1;
  EXPECT_EQ(seen, kept);
}

// A NULL read from a table column carries the column's type, whatever tag
// it was appended or inserted with.
TEST(TypedChunkTest, NullsTakeTheColumnType) {
  auto table = std::make_shared<Table>("typed", TypedSchema());
  ASSERT_OK(table->AppendRow({Value::Int64(0), Value::Null(), Value::Null(),
                              Value::Null(), Value::Null()}));
  Catalog catalog;
  ASSERT_OK(catalog.RegisterTable(table));
  ASSERT_OK(catalog.InsertInto(
      "typed", {{Value::Int64(1), Value::Null(DataType::String()),
                 Value::Null(DataType::Double()), Value::Null(DataType::Bool()),
                 Value::Null(DataType::Int64())}}));
  ASSERT_OK_AND_ASSIGN(TablePtr live, catalog.GetTable("typed"));
  const Schema schema = TypedSchema();
  for (const RowRef row : live->rows()) {
    for (size_t c = 1; c < schema.num_fields(); ++c) {
      EXPECT_TRUE(row[c].is_null());
      EXPECT_EQ(row[c].type(), schema.field(c).type) << "column " << c;
    }
  }
}

// Owned rows keep every value's type: a column mixing BIGINT and DOUBLE,
// or DOUBLE values next to a BIGINT-tagged NULL, stays boxed; a column of
// one type tag becomes words and reads back with that tag.
TEST(TypedChunkTest, SingleOverOwnedRowsKeepsEveryValueType) {
  const std::vector<Row> rows = {
      {Value::Int64(1), Value::Double(1.5), Value::Null(DataType::Double())},
      {Value::Double(2.5), Value::Null(), Value::Double(-0.0)},
      {Value::Null(), Value::Double(3.5), Value::Double(4.0)}};
  auto store = ChunkedRows::Single(rows);
  ASSERT_EQ(store->size(), rows.size());
  ASSERT_EQ(store->chunks().size(), 1u);
  const RowChunk& chunk = *store->chunks()[0];
  EXPECT_TRUE(chunk.column(0).boxed);
  EXPECT_TRUE(chunk.column(1).boxed);
  EXPECT_FALSE(chunk.column(2).boxed);
  for (size_t r = 0; r < rows.size(); ++r) {
    SCOPED_TRACE(StrCat("row ", r));
    ExpectSameRow((*store)[r].Materialize(), rows[r]);
  }
}

// SELECT without FROM plans a local relation of one row and no columns: a
// chunk of zero columns still holds that row.
TEST(TypedChunkTest, ZeroColumnLocalRelationHoldsItsRow) {
  auto store = ChunkedRows::Single({Row{}});
  ASSERT_EQ(store->size(), 1u);
  ASSERT_EQ(store->chunks().size(), 1u);
  EXPECT_EQ(store->chunks()[0]->size(), 1u);
  EXPECT_EQ((*store)[0].size(), 0u);
  const std::vector<Row> rows = RowView::All(store).Materialize();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].empty());

  Session session;
  const std::vector<Row> answer = Rows(&session, "SELECT 1 + 2 AS three");
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(RowToString(answer[0]), "(3)");
}

// --- the matrix build over several chunks -----------------------------------

// A view over a three-chunk table, reading its ids out of order across
// chunk boundaries through a column map, or the ascending, non-contiguous
// ids a WHERE keeps, builds the same matrix as the materialized view rows:
// keys, null bitmaps, ranked mask, dictionaries. The columns hold NaN
// (ranked), BIGINT beyond 2^53 (ranked), VARCHAR (ranked, MIN and DIFF),
// BOOLEAN, -0.0 and NULLs next to a directly keyed DOUBLE.
TEST(ChunkedTableTest, MatrixBuildOverAMultiChunkViewMatchesMaterializedRows) {
  Schema schema({Field{"id", DataType::Int64(), false},
                 Field{"x", DataType::Double(), true},
                 Field{"nan", DataType::Double(), true},
                 Field{"wide", DataType::Int64(), true},
                 Field{"name", DataType::String(), true},
                 Field{"flag", DataType::Bool(), true},
                 Field{"zero", DataType::Double(), false}});
  auto table = std::make_shared<Table>("wide", schema);
  Rng rng(17);
  const size_t n = 2 * kChunkRows + 77;
  for (size_t i = 0; i < n; ++i) {
    auto maybe_null = [&](Value v, DataType type) {
      return rng.Bernoulli(0.05) ? Value::Null(type) : std::move(v);
    };
    const int64_t wide =
        (int64_t{1} << 60) + rng.UniformInt(-1000, 1000) * (int64_t{1} << 8);
    Row row{Value::Int64(static_cast<int64_t>(i)),
            maybe_null(Value::Double(rng.Uniform(0.0, 1.0)),
                       DataType::Double()),
            maybe_null(Value::Double(rng.Bernoulli(0.1)
                                         ? std::nan("")
                                         : rng.Uniform(-1.0, 1.0)),
                       DataType::Double()),
            maybe_null(Value::Int64(rng.Bernoulli(0.5) ? wide : -wide),
                       DataType::Int64()),
            maybe_null(Value::String(StrCat("s", rng.UniformInt(0, 40))),
                       DataType::String()),
            maybe_null(Value::Bool(rng.Bernoulli(0.5)), DataType::Bool()),
            Value::Double(rng.Bernoulli(0.3)   ? -0.0
                          : rng.Bernoulli(0.5) ? 0.0
                                               : rng.Uniform(-1.0, 1.0))};
    ASSERT_OK(table->AppendRow(std::move(row)));
  }
  ASSERT_EQ(table->rows().chunks().size(), 3u);

  const auto store = std::shared_ptr<const ChunkedRows>(table, &table->rows());
  // name, x, nan, wide, name, flag, zero
  const std::vector<size_t> columns = {4, 1, 2, 3, 4, 5, 6};
  RowView reversed{store, {}, columns};
  for (size_t id = n; id-- > 0;) {
    if (id % 3 != 1) reversed.ids.push_back(static_cast<uint32_t>(id));
  }
  // The ids a borrowed Filter keeps for WHERE x < 0.5.
  RowView filtered{store, {}, columns};
  for (uint32_t id = 0; id < n; ++id) {
    const Value x = (*store)[id][1];
    if (!x.is_null() && x.double_value() < 0.5) filtered.ids.push_back(id);
  }

  const std::vector<std::vector<BoundDimension>> dim_sets = {
      {{1, SkylineGoal::kMin}, {0, SkylineGoal::kMax}},  // direct x; VARCHAR
      {{1, SkylineGoal::kMax},
       {2, SkylineGoal::kMin},
       {3, SkylineGoal::kMax},
       {4, SkylineGoal::kDiff}},
      {{1, SkylineGoal::kMin}},  // direct only, with NULLs
      // BOOLEAN and -0.0 key directly; -0.0 keys equal to 0.0.
      {{5, SkylineGoal::kMax}, {6, SkylineGoal::kMin}, {1, SkylineGoal::kMin}},
  };
  for (size_t run = 0; run < 2 * dim_sets.size(); ++run) {
    const bool filter = run >= dim_sets.size();
    const size_t s = run % dim_sets.size();
    SCOPED_TRACE(StrCat(filter ? "filtered" : "reversed",
                        " view, dimension set ", s));
    const RowView& view = filter ? filtered : reversed;
    const std::vector<Row> materialized = view.Materialize();
    const auto& dims = dim_sets[s];
    ASSERT_OK_AND_ASSIGN(DominanceMatrix chunked,
                         DominanceMatrix::Build(view, dims));
    ASSERT_OK_AND_ASSIGN(DominanceMatrix flat,
                         DominanceMatrix::Build(materialized, dims));
    ASSERT_EQ(chunked.num_rows(), view.size());
    ASSERT_EQ(flat.num_rows(), view.size());
    EXPECT_EQ(chunked.ranked_mask(), flat.ranked_mask());
    EXPECT_EQ(chunked.all_numeric_minmax(), flat.all_numeric_minmax());
    if (!filter) EXPECT_TRUE(chunked.has_nulls());
    EXPECT_EQ(chunked.has_nulls(), flat.has_nulls());
    for (size_t d = 0; d < dims.size(); ++d) {
      const auto& a = chunked.dictionary(d);
      const auto& b = flat.dictionary(d);
      ASSERT_EQ(a.size(), b.size()) << "dimension " << d;
      for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].ToString(), b[k].ToString()) << "dimension " << d;
      }
    }
    for (uint32_t r = 0; r < view.size(); ++r) {
      ASSERT_EQ(chunked.null_bitmap(r), flat.null_bitmap(r)) << "row " << r;
      for (size_t d = 0; d < dims.size(); ++d) {
        ASSERT_EQ(chunked.row_keys(r)[d], flat.row_keys(r)[d])
            << "row " << r << " dimension " << d;
        // The direct x dimension keys the value itself (negated for MAX);
        // a NULL sets its bit and keys the placeholder 0.0.
        if (dims[d].ordinal != 1) continue;
        const Value& x = view.source(r)[1];
        const double sign = dims[d].goal == SkylineGoal::kMax ? -1.0 : 1.0;
        EXPECT_EQ((chunked.null_bitmap(r) >> d) & 1u, x.is_null() ? 1u : 0u);
        EXPECT_EQ(chunked.row_keys(r)[d],
                  x.is_null() ? 0.0 : sign * x.double_value());
      }
    }
    if (s == 3) {
      EXPECT_EQ(chunked.ranked_mask(), 0u);
      EXPECT_FALSE(chunked.all_numeric_minmax());  // BOOLEAN
    }
  }
  // A dimension without a NULL in the view allocates no bitmaps.
  ASSERT_OK_AND_ASSIGN(
      DominanceMatrix ids_only,
      DominanceMatrix::Build(RowView{store, reversed.ids, {0}},
                             {{0, SkylineGoal::kMin}}));
  EXPECT_FALSE(ids_only.has_nulls());
  EXPECT_TRUE(ids_only.all_numeric_minmax());
}

}  // namespace
}  // namespace sparkline
