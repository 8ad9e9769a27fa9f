// The dataset representation flowing between physical operators: a list of
// partitions (the analog of an RDD's partitions in Spark). A partition
// takes one of three forms:
//
//   rows       partitions[i], materialized rows the query owns;
//   borrowed   views[i], a RowView reading a table snapshot (or a local
//              relation's rows) in place — what the leaves emit, and what
//              filters and the re-partitioning exchanges pass on;
//   batch      batches[i], a ColumnarBatch: a shared immutable
//              DominanceMatrix plus a row-index selection over its backing
//              rows, which may themselves be borrowed — what the skyline
//              stages hand each other, so that downstream skyline stages
//              never re-project.
//
// A borrowed or batch partition leaves partitions[i] empty. The skyline
// stages, filters and the re-partitioning exchanges read borrowed rows in
// place; every other operator materializes its input through EnsureRows
// (see docs/ARCHITECTURE.md, "Borrowed rows").
#pragma once

#include <optional>
#include <vector>

#include "common/memory_tracker.h"
#include "expr/expression.h"
#include "skyline/columnar.h"
#include "types/row_view.h"
#include "types/value.h"

namespace sparkline {

/// \brief Rows split into partitions, one per (simulated) executor task.
struct PartitionedRelation {
  std::vector<Attribute> attrs;
  std::vector<std::vector<Row>> partitions;
  /// Borrowed side channel: empty, or exactly partitions.size() entries
  /// where views[i], when engaged, replaces partitions[i]. Produced by
  /// ScanExec and LocalRelationExec, filtered and re-routed by id, read in
  /// place by LocalSkylineExec.
  std::vector<std::optional<RowView>> views;
  /// Columnar side channel: empty, or exactly partitions.size() entries
  /// where batches[i], when engaged, replaces partitions[i]. Only the
  /// skyline operators and the gather exchange produce or consume batches.
  std::vector<std::optional<skyline::ColumnarBatch>> batches;
  /// The bytes this relation holds reserved on the query's MemoryTracker
  /// (attached by PhysicalPlan::ChargeOutput, released by the destructor).
  /// Making the charge a member — instead of the pre-fault-tolerance ad-hoc
  /// Grow/Shrink pairs — is what guarantees the tracker drains to zero on
  /// error and cancellation paths too. Makes the relation move-only.
  MemoryCharge charge;

  /// True when at least one partition is carried as a batch.
  bool has_batches() const {
    for (const auto& b : batches) {
      if (b.has_value()) return true;
    }
    return false;
  }

  /// True when at least one partition is borrowed.
  bool has_views() const {
    for (const auto& v : views) {
      if (v.has_value()) return true;
    }
    return false;
  }

  /// True when partition i is borrowed.
  bool borrowed(size_t i) const {
    return i < views.size() && views[i].has_value();
  }

  size_t PartitionRows(size_t i) const {
    if (borrowed(i)) return views[i]->size();
    if (i < batches.size() && batches[i].has_value()) {
      return batches[i]->num_rows();
    }
    return partitions[i].size();
  }

  size_t TotalRows() const {
    size_t n = 0;
    for (size_t i = 0; i < partitions.size(); ++i) n += PartitionRows(i);
    return n;
  }

  /// The one materialization path: copies a borrowed partition's rows, or
  /// decodes a batch's selected rows, into partitions[i]. A row partition
  /// is left as is, so the call is idempotent. Touches only entry i, so
  /// stage tasks may call it concurrently for distinct partitions.
  void EnsureRows(size_t i) {
    if (borrowed(i)) {
      partitions[i] = views[i]->Materialize();
      views[i].reset();
    } else if (i < batches.size() && batches[i].has_value()) {
      partitions[i] = batches[i]->Decode();
      batches[i].reset();
    }
  }

  /// EnsureRows for every partition; afterwards the relation holds rows
  /// only.
  void EnsureRows() {
    for (size_t i = 0; i < partitions.size(); ++i) EnsureRows(i);
    views.clear();
    batches.clear();
  }

  /// Concatenates all partitions in order (an AllTuples gather),
  /// materializing them first — this is the plan-root decode.
  std::vector<Row> Flatten() && {
    EnsureRows();
    if (partitions.size() == 1) return std::move(partitions[0]);
    std::vector<Row> out;
    out.reserve(TotalRows());
    for (auto& p : partitions) {
      for (auto& r : p) out.push_back(std::move(r));
    }
    return out;
  }
};

/// Bytes the relation holds for the query: materialized rows at their
/// estimated size (one sampled row per partition times the count),
/// borrowed rows at the size of their id list — the table owns them. A
/// batch counts its selection the same way, by whether its backing rows
/// are borrowed; matrix bytes are charged separately through the batch's
/// own reservation.
int64_t EstimateRelationBytes(const PartitionedRelation& rel);

}  // namespace sparkline
