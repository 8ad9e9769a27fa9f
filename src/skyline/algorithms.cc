#include "skyline/algorithms.h"

#include <map>

#include "skyline/kernel_common.h"

namespace sparkline {
namespace skyline {

using internal::CountTest;

std::vector<Row> FlawedGulzarGlobal(const std::vector<Row>& input,
                                    const std::vector<BoundDimension>& dims) {
  // sl-lint: allow(kernel-deadline) — deliberately-flawed reference
  // implementation reproduced for the paper's counterexample tests only;
  // it never runs inside a query and takes no SkylineOptions to poll.
  // Cluster by null bitmap, in bitmap order (the order is immaterial for the
  // flaw; any fixed order exhibits it).
  std::map<uint32_t, std::vector<Row>> clusters;
  for (const Row& r : input) clusters[NullBitmap(r, dims)].push_back(r);

  std::vector<std::vector<Row>> cluster_list;
  for (auto& [bitmap, rows] : clusters) cluster_list.push_back(std::move(rows));
  std::vector<std::vector<char>> deleted(cluster_list.size());
  for (size_t c = 0; c < cluster_list.size(); ++c) {
    deleted[c].assign(cluster_list[c].size(), 0);
  }

  for (size_t ci = 0; ci < cluster_list.size(); ++ci) {
    for (size_t pi = 0; pi < cluster_list[ci].size(); ++pi) {
      if (deleted[ci][pi]) continue;
      bool flagged = false;
      for (size_t cj = ci + 1; cj < cluster_list.size(); ++cj) {
        for (size_t qj = 0; qj < cluster_list[cj].size(); ++qj) {
          if (deleted[cj][qj]) continue;
          const Dominance dom =
              CompareRows(cluster_list[ci][pi], cluster_list[cj][qj], dims,
                          NullSemantics::kIncomplete);
          if (dom == Dominance::kLeftDominates) {
            // THE FLAW: eager deletion; q can no longer eliminate anyone.
            deleted[cj][qj] = 1;
          } else if (dom == Dominance::kRightDominates) {
            flagged = true;
          }
        }
      }
      if (flagged) deleted[ci][pi] = 1;
    }
  }
  std::vector<Row> result;
  for (size_t c = 0; c < cluster_list.size(); ++c) {
    for (size_t i = 0; i < cluster_list[c].size(); ++i) {
      if (!deleted[c][i]) result.push_back(cluster_list[c][i]);
    }
  }
  return result;
}

std::vector<Row> BruteForceSkyline(const std::vector<Row>& input,
                                   const std::vector<BoundDimension>& dims,
                                   const SkylineOptions& options) {
  // sl-lint: allow(kernel-deadline) — infallible-by-contract oracle that
  // only tests and benches call; its std::vector return cannot propagate a
  // Status.
  std::vector<Row> result;
  std::vector<uint32_t> bitmaps(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    bitmaps[i] = NullBitmap(input[i], dims);
  }
  for (size_t i = 0; i < input.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < input.size() && !dominated; ++j) {
      if (i == j) continue;
      CountTest(options);
      const Dominance dom =
          CompareRows(input[j], input[i], dims, options.nulls);
      if (dom == Dominance::kLeftDominates) dominated = true;
      if (options.distinct && dom == Dominance::kEqual && j < i &&
          bitmaps[i] == bitmaps[j]) {
        dominated = true;  // keep only the first of a duplicate group
      }
    }
    if (!dominated) result.push_back(input[i]);
  }
  return result;
}

}  // namespace skyline
}  // namespace sparkline
