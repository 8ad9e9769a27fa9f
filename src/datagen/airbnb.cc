#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "datagen/datagen.h"

namespace sparkline {
namespace datagen {

TablePtr GenerateAirbnb(const AirbnbOptions& options) {
  Schema schema({
      Field{"id", DataType::Int64(), false},
      Field{"price", DataType::Double(), options.incomplete},
      Field{"accommodates", DataType::Int64(), options.incomplete},
      Field{"bedrooms", DataType::Int64(), options.incomplete},
      Field{"beds", DataType::Int64(), options.incomplete},
      Field{"number_of_reviews", DataType::Int64(), options.incomplete},
      Field{"review_scores_rating", DataType::Double(), options.incomplete},
  });
  auto table = std::make_shared<Table>(options.table_name, std::move(schema));
  table->constraints().primary_key = {"id"};
  table->Reserve(options.num_rows);

  Rng rng(options.seed);
  ZipfDistribution accommodates_dist(16, 1.4);
  ZipfDistribution reviews_dist(400, 1.05);

  for (size_t i = 0; i < options.num_rows; ++i) {
    const int64_t accommodates = accommodates_dist.Sample(&rng);
    const int64_t bedrooms =
        std::max<int64_t>(1, accommodates / 2 + rng.UniformInt(-1, 1));
    const int64_t beds =
        std::max<int64_t>(1, accommodates + rng.UniformInt(-1, 1));
    // Price grows with capacity (correlated dimensions shrink skylines, as
    // in the real listings data) plus heavy log-normal noise.
    const double price = std::round(
        100.0 *
        std::exp(3.2 + 0.18 * static_cast<double>(accommodates) +
                 rng.Normal(0.0, 0.55))) /
        100.0;
    const int64_t reviews = reviews_dist.Sample(&rng) - 1;
    // Ratings cluster near the top and improve slightly with review count.
    double rating = 20.0 * std::clamp(4.30 +
                                          0.05 * std::log1p(static_cast<double>(
                                                     reviews)) +
                                          rng.Normal(0.0, 0.35),
                                      1.0, 5.0);
    rating = std::round(rating * 100.0) / 100.0;

    Row row;
    row.reserve(7);
    row.push_back(Value::Int64(static_cast<int64_t>(i) + 1));
    row.push_back(Value::Double(price));
    row.push_back(Value::Int64(accommodates));
    row.push_back(Value::Int64(bedrooms));
    row.push_back(Value::Int64(beds));
    row.push_back(Value::Int64(reviews));
    row.push_back(Value::Double(rating));

    if (options.incomplete) {
      // Column null rates mirror the real dump: bedrooms/beds are often
      // unfilled, review scores missing for unreviewed listings. Together
      // they leave ~69% of rows fully complete (paper section 6.2).
      if (rng.Bernoulli(0.10)) row[3] = Value::Null(DataType::Int64());
      if (rng.Bernoulli(0.05)) row[4] = Value::Null(DataType::Int64());
      if ((reviews == 0 && rng.Bernoulli(0.6)) || rng.Bernoulli(0.06)) {
        row[6] = Value::Null(DataType::Double());
      }
      if (rng.Bernoulli(0.02)) row[5] = Value::Null(DataType::Int64());
    }
    table->AppendRowUnchecked(std::move(row));
  }
  return table;
}

TablePtr CompleteSubset(const Table& table, const std::string& new_name) {
  Schema schema;
  for (const auto& f : table.schema().fields()) {
    schema.AddField(Field{f.name, f.type, false});
  }
  auto out = std::make_shared<Table>(new_name, std::move(schema));
  out->constraints() = table.constraints();
  for (const RowRef row : table.rows()) {
    bool complete = true;
    for (size_t c = 0; c < row.size(); ++c) complete &= !row[c].is_null();
    if (complete) out->AppendRowUnchecked(row.Materialize());
  }
  return out;
}

}  // namespace datagen
}  // namespace sparkline
