// The skyline physical operators (paper sections 5.5 - 5.7).
//
// Algorithm selection happens in the physical planner (Listing 8); these
// operators only run the algorithm library over partitions:
//
//   distributed:      [Exchange[Angle] ->] LocalSkylineExec (the child's
//                     partitioning; under incomplete semantics one pass
//                     per null-bitmap group)
//                     -> Exchange[AllTuples]
//                     -> GlobalSkylineExec (complete semantics)
//                        or GlobalSkylineIncompleteExec (incomplete)
//   non-distributed:  Exchange[AllTuples] -> GlobalSkylineExec
//
// Every dominance test runs over a DominanceMatrix (skyline/columnar.h),
// and the stages exchange ColumnarBatch views instead of materialized rows.
// The local stage keys each partition: BNL and incomplete skylines
// stream it a block at a time through the BNL window and keep only the
// window, a compact batch of the local skyline; SFS, and a partition
// holding a value that must be ranked, build the whole partition's matrix
// (ColumnarBatch::LocalSkyline). The gather exchange concatenates the
// matrix blocks (re-ranking only when a partition holds a ranked
// dimension); the global stages chunk, validate and concatenate
// index views over the shared matrix (ChunkedGlobalSkyline). On the
// distributed complete path every gathered part is a local skyline in SFS
// order, whichever kernel found it, so the global stage is one parallel
// [merge] that checks each part against the others — no single-task step —
// and a gather of at most one non-empty part is returned as it is, at any
// executor count. Rows are decoded only at the plan root (or by the first
// non-skyline consumer). A global stage whose input arrives as rows
// (non-distributed plans, nested skylines) projects it once in a
// "<label> [project]" stage. QueryMetrics::matrix_builds / matrix_reuses
// record which stages projected vs. reused.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "common/string_util.h"
#include "exec/physical_plan.h"
#include "skyline/columnar.h"

namespace sparkline {

namespace {

/// Balanced contiguous chunk bounds: sizes differ by at most one, so no
/// executor idles and the parallel stage's critical path is as short as the
/// split allows.
std::vector<uint32_t> ChunkBounds(size_t n, size_t chunks) {
  std::vector<uint32_t> bounds(chunks + 1, 0);
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  for (size_t i = 0; i < chunks; ++i) {
    bounds[i + 1] =
        bounds[i] + static_cast<uint32_t>(base + (i < extra ? 1 : 0));
  }
  return bounds;
}

/// True when every part [bounds[j], bounds[j+1]) of `view` is a run of
/// consecutive matrix rows, so the part's keys are packed densely in the
/// matrix — how Concat lays out a gather.
bool ContiguousRuns(const std::vector<uint32_t>& view,
                    const std::vector<uint32_t>& bounds) {
  for (size_t j = 0; j + 1 < bounds.size(); ++j) {
    for (size_t p = bounds[j] + 1; p < bounds[j + 1]; ++p) {
      if (view[p] != view[p - 1] + 1) return false;
    }
  }
  return true;
}

}  // namespace

// --- input of the global stages ---------------------------------------------

Result<skyline::ColumnarBatch> PhysicalPlan::GatheredBatch(
    ExecContext* ctx, PartitionedRelation* in,
    const std::vector<skyline::BoundDimension>& dims,
    bool require_ascending) const {
  // A batch projected for other dimensions (a nested skyline's output
  // feeding this one directly) encodes the wrong columns: decode instead.
  if (in->batches.size() == 1 && in->batches[0].has_value() &&
      in->batches[0]->ProjectedFor(dims) &&
      (!require_ascending ||
       std::is_sorted(in->batches[0]->indices().begin(),
                      in->batches[0]->indices().end()))) {
    ctx->AddMatrixReuse(label());
    return std::move(*in->batches[0]);
  }
  SL_RETURN_NOT_OK(DecodeInput(ctx, in));
  std::vector<Row> rows = std::move(*in).Flatten();
  const std::string project_label = StrCat(label(), " [project]");
  std::optional<skyline::ColumnarBatch> batch;
  SL_RETURN_NOT_OK(RunStage(ctx, project_label, 1, [&](size_t) -> Status {
    StopWatch project;
    SL_ASSIGN_OR_RETURN(batch, skyline::ColumnarBatch::Project(
                                   std::move(rows), dims, ctx->memory()));
    ctx->AddProjectionMs(project.ElapsedMillis());
    ctx->AddMatrixBuilds(project_label, 1);
    return Status::OK();
  }));
  return std::move(*batch);
}

Result<std::vector<uint32_t>> PhysicalPlan::ChunkedGlobalSkyline(
    ExecContext* ctx, size_t chunks, const char* candidates_stage,
    const std::function<Status(size_t)>& candidates,
    const char* validate_stage,
    const std::function<Result<std::vector<uint32_t>>(size_t)>& validate)
    const {
  if (candidates) {
    SL_RETURN_NOT_OK(RunStage(ctx, StrCat(label(), " ", candidates_stage),
                              chunks, candidates));
  }
  std::vector<std::vector<uint32_t>> kept(chunks);
  SL_RETURN_NOT_OK(RunStage(ctx, StrCat(label(), " ", validate_stage), chunks,
                            [&](size_t i) -> Status {
                              SL_ASSIGN_OR_RETURN(kept[i], validate(i));
                              return Status::OK();
                            }));
  std::vector<uint32_t> survivors;
  for (const std::vector<uint32_t>& k : kept) {
    survivors.insert(survivors.end(), k.begin(), k.end());
  }
  return survivors;
}

LocalSkylineExec::LocalSkylineExec(std::vector<skyline::BoundDimension> dims,
                                   bool distinct, skyline::NullSemantics nulls,
                                   PhysicalPlanPtr child,
                                   SkylineKernel kernel)
    : PhysicalPlan(child->output(), {child}),
      dims_(std::move(dims)),
      distinct_(distinct),
      nulls_(nulls),
      kernel_(kernel) {}

std::string LocalSkylineExec::label() const {
  return StrCat("LocalSkyline [",
                nulls_ == skyline::NullSemantics::kComplete ? "complete"
                                                            : "incomplete",
                ", ", dims_.size(), " dims",
                kernel_ == SkylineKernel::kSortFilterSkyline ? ", sfs" : "",
                "]");
}

Result<PartitionedRelation> LocalSkylineExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));

  skyline::SkylineOptions options;
  options.distinct = distinct_;
  options.nulls = nulls_;
  options.counter = ctx->dominance();
  options.deadline_nanos = ctx->deadline_nanos();
  options.cancel = ctx->cancel_token();
  options.early_stop = ctx->early_stop();
  options.memory = ctx->memory();

  const size_t n = in.partitions.size();

  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(n, {});
  out.batches.assign(n, std::nullopt);

  SL_RETURN_NOT_OK(RunStage(ctx, n, [&](size_t i) -> Status {
    // A skyline stage feeding another skyline operator (nested queries)
    // decodes between them: the two matrices project different dimensions.
    if (!in.borrowed(i)) in.EnsureRows(i);
    // Key this partition — borrowed rows in place — into the local
    // skyline's batch; every downstream skyline stage reuses its matrix.
    double keying_ms = 0;
    Result<skyline::ColumnarBatch> local =
        in.borrowed(i)
            ? skyline::ColumnarBatch::LocalSkyline(std::move(*in.views[i]),
                                                   kernel_, dims_, options,
                                                   &keying_ms)
            : skyline::ColumnarBatch::LocalSkyline(
                  &in.partitions[i], kernel_, dims_, options, &keying_ms);
    ctx->AddProjectionMs(keying_ms);
    SL_RETURN_NOT_OK(local.status());
    ctx->AddMatrixBuilds(label(), 1);
    out.batches[i] = std::move(local).MoveValue();
    return Status::OK();
  }));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- GlobalSkylineExec ------------------------------------------------------

GlobalSkylineExec::GlobalSkylineExec(std::vector<skyline::BoundDimension> dims,
                                     bool distinct, PhysicalPlanPtr child,
                                     SkylineKernel kernel)
    : PhysicalPlan(child->output(), {child}),
      dims_(std::move(dims)),
      distinct_(distinct),
      kernel_(kernel) {}

Result<PartitionedRelation> GlobalSkylineExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  // AllTuples distribution: everything on one executor, as one batch. `in`
  // keeps its charge until this function returns, so the gathered input
  // stays accounted while the kernels run.
  SL_ASSIGN_OR_RETURN(
      skyline::ColumnarBatch batch,
      GatheredBatch(ctx, &in, dims_, /*require_ascending=*/false));

  skyline::SkylineOptions options;
  options.distinct = distinct_;
  options.nulls = skyline::NullSemantics::kComplete;
  options.counter = ctx->merge_dominance();
  options.deadline_nanos = ctx->deadline_nanos();
  options.cancel = ctx->cancel_token();
  options.early_stop = ctx->early_stop();

  const skyline::DominanceMatrix& matrix = batch.matrix();
  const std::vector<uint32_t>& view = batch.indices();
  // A gather of at most one non-empty skyline part is already the answer:
  // one local skyline, at one executor or over a single-partition child.
  const std::vector<uint32_t>& skyline_parts = batch.skyline_parts();
  size_t non_empty = 0;
  for (size_t j = 0; j + 1 < skyline_parts.size(); ++j) {
    non_empty += skyline_parts[j] < skyline_parts[j + 1] ? 1 : 0;
  }
  const bool one_part = !skyline_parts.empty() && non_empty <= 1;

  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.emplace_back();
  out.batches.emplace_back();

  const size_t num_executors =
      static_cast<size_t>(std::max(1, ctx->config().num_executors));
  std::vector<uint32_t> survivors;
  if (one_part || num_executors <= 1 || view.size() < 2) {
    // The classic single-task global pass, which runs no kernel over a
    // finished skyline.
    SL_RETURN_NOT_OK(RunStage(ctx, 1, [&](size_t) -> Status {
      if (one_part) {
        survivors = view;
        return Status::OK();
      }
      SL_ASSIGN_OR_RETURN(
          survivors,
          skyline::RunColumnarKernel(kernel_, matrix, view, options));
      return Status::OK();
    }));
  } else {
    // Skyline parts laid out as contiguous matrix runs (a gather of local
    // skylines) are already candidates, and [merge] reads their keys packed
    // into blocks. Anything else is chunked and reduced to candidates first.
    std::vector<uint32_t> bounds = skyline_parts;
    const bool parts = !bounds.empty() && ContiguousRuns(view, bounds);
    if (!parts) {
      bounds = ChunkBounds(view.size(), std::min(num_executors, view.size()));
    }
    const size_t chunks = bounds.size() - 1;
    auto chunk = [&](size_t i) {
      return std::vector<uint32_t>(view.begin() + bounds[i],
                                   view.begin() + bounds[i + 1]);
    };
    std::vector<std::vector<uint32_t>> candidates(chunks);
    // Each peer's rows in SFS order, and their keys packed into blocks.
    std::vector<std::vector<uint32_t>> by_score(chunks);
    std::vector<skyline::BlockedKeys> packed(chunks);
    std::function<Status(size_t)> partial;
    std::optional<ScopedReservation> packed_charge;
    if (parts) {
      // Every part's keys are packed once, before [merge]'s tasks start,
      // which read them shared.
      int64_t bytes = 0;
      for (size_t i = 0; i < chunks; ++i) {
        candidates[i] = chunk(i);
        packed[i] = skyline::PackKeys(matrix, candidates[i]);
        bytes += packed[i].MemoryBytes();
      }
      packed_charge.emplace(ctx->memory(), bytes);
    } else {
      partial = [&](size_t i) -> Status {
        SL_ASSIGN_OR_RETURN(
            candidates[i],
            skyline::RunColumnarKernel(kernel_, matrix, chunk(i), options));
        // The list itself keeps the kernel's order for the output.
        by_score[i] = candidates[i];
        skyline::SortInSfsOrder(matrix, &by_score[i]);
        packed[i] = skyline::PackKeys(matrix, by_score[i]);
        return Status::OK();
      };
    }
    SL_ASSIGN_OR_RETURN(
        survivors,
        ChunkedGlobalSkyline(
            ctx, chunks, "[partial]", partial, "[merge]",
            [&](size_t i) -> Result<std::vector<uint32_t>> {
              std::vector<skyline::PeerKeys> others;
              for (size_t j = 0; j < chunks; ++j) {
                if (j == i || packed[j].size() == 0) continue;
                others.push_back(
                    {parts ? &candidates[j] : &by_score[j], &packed[j], j < i});
              }
              return skyline::ColumnarValidateAgainstPeers(
                  matrix, candidates[i], others, options);
            }));
  }
  out.batches[0] = std::move(batch).WithSelection(std::move(survivors));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- GlobalSkylineIncompleteExec --------------------------------------------

Result<std::vector<uint32_t>> GlobalSkylineIncompleteExec::ReduceBitmapGroups(
    ExecContext* ctx, const skyline::ColumnarBatch& batch,
    const skyline::SkylineOptions& options) const {
  const skyline::DominanceMatrix& matrix = batch.matrix();
  const std::vector<uint32_t>& view = batch.indices();
  const std::vector<uint32_t>& bounds = batch.skyline_parts();
  const size_t parts = bounds.size() - 1;
  // Every part's bitmap groups: runs of the view in SFS order, their rows
  // and, packed once before [reduce]'s tasks start (which read them
  // shared), their keys.
  struct Group {
    std::vector<uint32_t> rows;
    skyline::BlockedKeys keys;
  };
  std::vector<std::map<uint32_t, Group>> groups(parts);
  for (size_t j = 0; j < parts; ++j) {
    for (uint32_t p = bounds[j]; p < bounds[j + 1]; ++p) {
      groups[j][matrix.null_bitmap(view[p])].rows.push_back(view[p]);
    }
  }
  int64_t packed_bytes = 0;
  for (auto& part : groups) {
    for (auto& [bitmap, group] : part) {
      group.keys = skyline::PackKeys(matrix, group.rows);
      packed_bytes += group.keys.MemoryBytes();
    }
  }
  ScopedReservation packed_charge(ctx->memory(), packed_bytes);
  // Within one bitmap group complete dominance over all key slots is
  // incomplete dominance, and it is transitive.
  skyline::SkylineOptions group_options = options;
  group_options.nulls = skyline::NullSemantics::kComplete;
  std::vector<std::vector<uint32_t>> kept(parts);
  SL_RETURN_NOT_OK(RunStage(
      ctx, StrCat(label(), " [reduce]"), parts, [&](size_t i) -> Status {
        for (const auto& [bitmap, group] : groups[i]) {
          std::vector<skyline::PeerKeys> peers;
          for (size_t j = 0; j < parts; ++j) {
            auto peer = groups[j].find(bitmap);
            if (j == i || peer == groups[j].end()) continue;
            peers.push_back({&peer->second.rows, &peer->second.keys, j < i});
          }
          SL_ASSIGN_OR_RETURN(std::vector<uint32_t> survivors,
                              skyline::ColumnarValidateAgainstPeers(
                                  matrix, group.rows, peers, group_options));
          kept[i].insert(kept[i].end(), survivors.begin(), survivors.end());
        }
        return Status::OK();
      }));
  std::vector<uint32_t> out;
  for (const std::vector<uint32_t>& k : kept) {
    out.insert(out.end(), k.begin(), k.end());
  }
  return out;
}

GlobalSkylineIncompleteExec::GlobalSkylineIncompleteExec(
    std::vector<skyline::BoundDimension> dims, bool distinct,
    PhysicalPlanPtr child)
    : PhysicalPlan(child->output(), {child}),
      dims_(std::move(dims)),
      distinct_(distinct) {}

Result<PartitionedRelation> GlobalSkylineIncompleteExec::Execute(
    ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  // The validation's DISTINCT tie-break (t < c on matrix indices) and the
  // chunk-order concatenation are sound only over a view ascending in
  // matrix index. The gather's Concat always produces one, so the is_sorted
  // check inside GatheredBatch is an O(n) insurance premium against a
  // future plan shape that bypasses it (n^2 kernel work follows).
  SL_ASSIGN_OR_RETURN(
      skyline::ColumnarBatch batch,
      GatheredBatch(ctx, &in, dims_, /*require_ascending=*/true));

  skyline::SkylineOptions options;
  options.distinct = distinct_;
  options.nulls = skyline::NullSemantics::kIncomplete;
  options.counter = ctx->merge_dominance();
  options.deadline_nanos = ctx->deadline_nanos();
  options.cancel = ctx->cancel_token();

  const skyline::DominanceMatrix& matrix = batch.matrix();
  // The view is ascending in matrix index (GatheredBatch checks it), and
  // matrix row order is gathered input order — exactly the DISTINCT
  // tie-break and ascending-chunk preconditions of the chunked kernels.
  const std::vector<uint32_t>& view = batch.indices();

  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.emplace_back();
  out.batches.emplace_back();

  const size_t num_executors =
      static_cast<size_t>(std::max(1, ctx->config().num_executors));
  std::vector<uint32_t> survivors;
  if (num_executors <= 1 || view.size() < 2) {
    // Single-task all-pairs (the paper's algorithm as written).
    SL_RETURN_NOT_OK(RunStage(ctx, 1, [&](size_t) -> Status {
      SL_ASSIGN_OR_RETURN(
          survivors, skyline::ColumnarAllPairsIncomplete(matrix, view, options));
      return Status::OK();
    }));
  } else {
    std::vector<uint32_t> input = view;
    const std::vector<uint32_t>& parts = batch.skyline_parts();
    if (parts.size() > 2 && ContiguousRuns(view, parts)) {
      SL_ASSIGN_OR_RETURN(input, ReduceBitmapGroups(ctx, batch, options));
    }
    // Parallel all-pairs over index slices of the shared matrix (see the
    // class comment): unlike the complete path, survivor-only validation is
    // unsound under non-transitive dominance, so candidates are validated
    // against every peer chunk's *full* tuple set. Contiguous chunks keep
    // chunk order == global input order, which the DISTINCT tie-break and
    // the concatenation rely on.
    const size_t chunks = std::min(num_executors, input.size());
    const std::vector<uint32_t> bounds = ChunkBounds(input.size(), chunks);
    std::vector<std::vector<uint32_t>> chunk_indices(chunks);
    for (size_t i = 0; i < chunks; ++i) {
      chunk_indices[i].assign(input.begin() + bounds[i],
                              input.begin() + bounds[i + 1]);
    }
    std::vector<std::vector<uint32_t>> candidates(chunks);
    SL_ASSIGN_OR_RETURN(
        survivors,
        ChunkedGlobalSkyline(
            ctx, chunks, "[candidates]",
            [&](size_t i) -> Status {
              // All-pairs deferred deletion within the chunk: every
              // elimination cites a witness inside the chunk, so it is
              // sound, and the survivors are only candidates.
              SL_ASSIGN_OR_RETURN(candidates[i],
                                  skyline::ColumnarAllPairsIncomplete(
                                      matrix, chunk_indices[i], options));
              return Status::OK();
            },
            "[validate]",
            [&](size_t i) -> Result<std::vector<uint32_t>> {
              std::vector<uint32_t> kept = candidates[i];
              for (size_t step = 1; step < chunks; ++step) {
                SL_ASSIGN_OR_RETURN(
                    kept, skyline::ColumnarValidateAgainstChunk(
                              matrix, kept,
                              chunk_indices[(i + step) % chunks], options));
              }
              return kept;
            }));
  }
  out.batches[0] = std::move(batch).WithSelection(std::move(survivors));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

}  // namespace sparkline
