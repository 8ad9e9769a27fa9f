#include "api/query_result.h"

#include <algorithm>

#include "common/string_util.h"

namespace sparkline {

std::string QueryMetrics::ToString() const {
  // Every field, every time, in a stable order (tests pin this format).
  // Conditional fields proved to hide regressions: a counter that silently
  // stopped printing looked identical to one that stopped counting.
  int64_t builds = 0;
  int64_t reuses = 0;
  for (const auto& [label, n] : matrix_builds) builds += n;
  for (const auto& [label, n] : matrix_reuses) reuses += n;
  return StrCat(
      "wall=", DoubleToString(wall_ms),
      "ms simulated=", DoubleToString(simulated_ms),
      "ms peak_mem=", peak_memory_bytes / (1 << 20),
      "MB dominance_tests=", dominance_tests,
      " merge_dom_tests=", merge_dominance_tests,
      " exchange_rows=", exchange_rows_shipped,
      " exchange_bytes=", exchange_bytes,
      " tasks_retried=", tasks_retried,
      " tasks_failed=", tasks_failed,
      " cache=", cache_hit ? "hit" : "miss",
      " cache_lookup=", DoubleToString(cache_lookup_ms),
      "ms cache_deltas=", cache_delta_maintained,
      " projection=", DoubleToString(projection_ms),
      "ms decode=", DoubleToString(decode_ms),
      "ms matrix_builds=", builds,
      " matrix_reuses=", reuses,
      " sfs_skipped=", sfs_rows_skipped,
      " sfs_stops=", sfs_early_stops,
      " rows_served=", rows_served,
      " bytes_served=", bytes_served);
}

std::string QueryResult::TraceJson() const {
  return TraceChromeJson(trace.get());
}

int64_t EstimatedRowsBytes(const std::vector<Row>& rows) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row)) *
                  static_cast<int64_t>(rows.capacity());
  for (const auto& row : rows) {
    for (const auto& value : row) bytes += value.EstimatedBytes();
  }
  return bytes;
}

std::string QueryResult::ToString(size_t max_rows) const {
  const std::vector<Row>& rows = this->rows();
  std::vector<std::string> headers;
  headers.reserve(attrs.size());
  for (const auto& a : attrs) headers.push_back(a.name);

  const size_t shown = std::min(max_rows, rows.size());
  std::vector<std::vector<std::string>> cells(shown);
  std::vector<size_t> widths(headers.size());
  for (size_t c = 0; c < headers.size(); ++c) widths[c] = headers[c].size();
  for (size_t r = 0; r < shown; ++r) {
    cells[r].reserve(attrs.size());
    for (size_t c = 0; c < rows[r].size(); ++c) {
      cells[r].push_back(rows[r][c].ToString());
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }

  auto rule = [&]() {
    std::string out = "+";
    for (size_t w : widths) out += std::string(w + 2, '-') + "+";
    return out + "\n";
  };
  auto line = [&](const std::vector<std::string>& vals) {
    std::string out = "|";
    for (size_t c = 0; c < widths.size(); ++c) {
      std::string v = c < vals.size() ? vals[c] : "";
      out += " " + v + std::string(widths[c] - v.size() + 1, ' ') + "|";
    }
    return out + "\n";
  };

  std::string out = rule() + line(headers) + rule();
  for (size_t r = 0; r < shown; ++r) out += line(cells[r]);
  out += rule();
  if (rows.size() > shown) {
    out += StrCat("(showing ", shown, " of ", rows.size(), " rows)\n");
  }
  return out;
}

}  // namespace sparkline
