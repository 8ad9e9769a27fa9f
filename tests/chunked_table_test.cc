// Chunked table snapshots (ChunkedRows in types/row_view.h,
// Table::Successor). A table keeps its rows in shared, immutable chunks of
// kChunkRows rows; an insert shares every full chunk of the snapshot it
// extends, copies only the partial tail chunk and appends the batch. These
// tests pin the sharing and the chunk boundaries, and run skylines,
// borrowing filters, the angle exchange, DISTINCT and cached answers over
// tables of one, two and three chunks against BruteForceSkyline,
// strategy=reference and a fresh session. sl_bench's smoke tables hold
// less than one chunk, so this suite is the only coverage of multi-chunk
// tables.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/datagen.h"
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
      ASSERT_EQ(&next->rows()[id], &row) << "row " << id;
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

// --- the matrix build over several chunks -----------------------------------

// A view over a three-chunk table, reading its ids out of order across
// chunk boundaries through a column map, builds the same matrix as the
// materialized view rows: keys, null bitmaps, ranked mask, dictionaries.
// The columns hold NaN (ranked), BIGINT beyond 2^53 (ranked), VARCHAR
// (ranked, MIN and DIFF) and NULLs next to a directly keyed DOUBLE.
TEST(ChunkedTableTest, MatrixBuildOverAMultiChunkViewMatchesMaterializedRows) {
  Schema schema({Field{"id", DataType::Int64(), false},
                 Field{"x", DataType::Double(), true},
                 Field{"nan", DataType::Double(), true},
                 Field{"wide", DataType::Int64(), true},
                 Field{"name", DataType::String(), true}});
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
                       DataType::String())};
    ASSERT_OK(table->AppendRow(std::move(row)));
  }
  ASSERT_EQ(table->rows().chunks().size(), 3u);

  RowView view;
  view.rows = std::shared_ptr<const ChunkedRows>(table, &table->rows());
  for (size_t id = n; id-- > 0;) {
    if (id % 3 != 1) view.ids.push_back(static_cast<uint32_t>(id));
  }
  view.columns = {4, 1, 2, 3, 4};  // name, x, nan, wide, name
  const std::vector<Row> materialized = view.Materialize();

  const std::vector<std::vector<BoundDimension>> dim_sets = {
      {{1, SkylineGoal::kMin}, {0, SkylineGoal::kMax}},  // direct x; VARCHAR
      {{1, SkylineGoal::kMax},
       {2, SkylineGoal::kMin},
       {3, SkylineGoal::kMax},
       {4, SkylineGoal::kDiff}},
      {{1, SkylineGoal::kMin}},  // direct only, with NULLs
  };
  for (size_t s = 0; s < dim_sets.size(); ++s) {
    SCOPED_TRACE(StrCat("dimension set ", s));
    const auto& dims = dim_sets[s];
    ASSERT_OK_AND_ASSIGN(DominanceMatrix chunked,
                         DominanceMatrix::Build(view, dims));
    ASSERT_OK_AND_ASSIGN(DominanceMatrix flat,
                         DominanceMatrix::Build(materialized, dims));
    ASSERT_EQ(chunked.num_rows(), view.size());
    ASSERT_EQ(flat.num_rows(), view.size());
    EXPECT_EQ(chunked.ranked_mask(), flat.ranked_mask());
    EXPECT_EQ(chunked.all_numeric_minmax(), flat.all_numeric_minmax());
    EXPECT_TRUE(chunked.has_nulls());
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
  }
  // A dimension without a NULL in the view allocates no bitmaps.
  ASSERT_OK_AND_ASSIGN(
      DominanceMatrix ids_only,
      DominanceMatrix::Build(RowView{view.rows, view.ids, {0}},
                             {{0, SkylineGoal::kMin}}));
  EXPECT_FALSE(ids_only.has_nulls());
  EXPECT_TRUE(ids_only.all_numeric_minmax());
}

}  // namespace
}  // namespace sparkline
