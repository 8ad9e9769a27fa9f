#include "exec/physical_plan.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "exec/subquery_expr.h"
#include "expr/evaluator.h"

namespace sparkline {

namespace {

/// Partition i's rows at their estimated size, whoever owns them: the
/// estimated size of its first (for a batch: first backing) row times its
/// row count.
int64_t PartitionRowBytes(const PartitionedRelation& rel, size_t i) {
  const int64_t rows = static_cast<int64_t>(rel.PartitionRows(i));
  if (rows == 0) return 0;
  if (rel.borrowed(i)) return rel.views[i]->EstimateRowBytes(0) * rows;
  if (i < rel.batches.size() && rel.batches[i].has_value()) {
    return rel.batches[i]->backing().EstimateRowBytes(0) * rows;
  }
  return EstimateRowBytes(rel.partitions[i].front()) * rows;
}

/// True when every partition is borrowed from one source through one
/// column map, so an operator can work on row ids alone. Scans, local
/// relations, filters and the re-partitioning exchanges produce exactly
/// this shape.
bool RoutableViews(const PartitionedRelation& rel) {
  if (rel.views.size() != rel.partitions.size() || rel.views.empty()) {
    return false;
  }
  for (const auto& v : rel.views) {
    if (!v.has_value() || !v->SameSource(*rel.views[0])) return false;
  }
  return true;
}

/// `e` bound to the source rows of `view`: every bound ordinal moves
/// through the column map once, so `e` evaluates on view.source(k) without
/// projecting the row (as DominanceMatrix::Build does for its dimensions).
Result<ExprPtr> BindToSource(const ExprPtr& e, const RowView& view) {
  if (view.columns.empty()) return e;
  Status error = Status::OK();
  ExprPtr out = Expression::Transform(e, [&](const ExprPtr& n) -> ExprPtr {
    if (n->kind() != ExprKind::kBoundReference) return n;
    const auto& ref = static_cast<const BoundReference&>(*n);
    if (ref.ordinal() >= view.columns.size()) {
      error = Status::Internal(StrCat("bound ordinal ", ref.ordinal(),
                                      " out of range (row has ",
                                      view.columns.size(), " columns)"));
      return n;
    }
    return BoundReference::Make(view.columns[ref.ordinal()], ref.type(),
                                ref.nullable());
  });
  SL_RETURN_NOT_OK(error);
  return out;
}

}  // namespace

int64_t EstimateRelationBytes(const PartitionedRelation& rel) {
  int64_t total = 0;
  for (size_t i = 0; i < rel.partitions.size(); ++i) {
    const bool borrowed =
        rel.borrowed(i) || (i < rel.batches.size() &&
                            rel.batches[i].has_value() &&
                            rel.batches[i]->borrowed());
    total += borrowed
                 ? static_cast<int64_t>(rel.PartitionRows(i) * sizeof(uint32_t))
                 : PartitionRowBytes(rel, i);
  }
  return total;
}

std::string PhysicalPlan::TreeString() const {
  std::string out = label();
  for (const auto& c : children_) {
    out += "\n";
    out += Indent(c->TreeString(), 2);
  }
  return out;
}

Status PhysicalPlan::RunStage(ExecContext* ctx, size_t num_partitions,
                              const std::function<Status(size_t)>& fn) const {
  return RunStage(ctx, label(), num_partitions, fn);
}

Status PhysicalPlan::RunStage(ExecContext* ctx, const std::string& stage_label,
                              size_t num_partitions,
                              const std::function<Status(size_t)>& fn) const {
  if (num_partitions == 0) return Status::OK();
  // Stage-boundary cancellation points: before dispatching any task and
  // after the barrier.
  SL_RETURN_NOT_OK(ctx->CheckInterrupt());
  Trace* trace = ctx->trace();
  TraceSpan* stage_span =
      trace ? trace->StartSpan(nullptr, stage_label, "stage") : nullptr;
  std::vector<Status> statuses(num_partitions);
  std::vector<double> cpu_ms(num_partitions, 0.0);
  ParallelFor(ctx->pool(), num_partitions, [&](size_t i) {
    TraceSpan* task_span =
        trace ? trace->StartSpan(stage_span, StrCat("task ", i), "task",
                                 static_cast<int64_t>(i))
              : nullptr;
    ThreadCpuTimer timer;
    statuses[i] = RunTask(ctx, stage_label, i, fn, task_span);
    cpu_ms[i] = static_cast<double>(timer.ElapsedNanos()) / 1e6;
    if (task_span != nullptr) {
      trace->Annotate(task_span, "cpu_ms", FormatFixed(cpu_ms[i], 3));
      trace->EndSpan(task_span);
    }
  });
  // Critical-path model: the stage takes as long as its slowest task
  // (retries included — a re-executed task lengthens its stage).
  const double critical_ms = *std::max_element(cpu_ms.begin(), cpu_ms.end());
  ctx->AddStageTime(stage_label, critical_ms);
  metrics::MetricsRegistry::Global()
      .GetHistogram("sparkline_stage_us", {{"stage", stage_label}})
      ->Observe(static_cast<int64_t>(critical_ms * 1000.0));
  if (stage_span != nullptr) {
    trace->Annotate(stage_span, "critical_path_ms",
                    FormatFixed(critical_ms, 3));
    trace->Annotate(stage_span, "tasks", std::to_string(num_partitions));
    trace->EndSpan(stage_span);
  }
  for (const auto& s : statuses) SL_RETURN_NOT_OK(s);
  return ctx->CheckInterrupt();
}

Status PhysicalPlan::RunTask(ExecContext* ctx, const std::string& stage_label,
                             size_t index,
                             const std::function<Status(size_t)>& fn,
                             TraceSpan* span) const {
  // Resolved once per process; Increment is one relaxed atomic add.
  static metrics::Counter* retried_counter =
      metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_exec_tasks_retried_total");
  static metrics::Counter* failed_counter =
      metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_exec_tasks_failed_total");
  const int retries = std::max(0, ctx->config().task_retries);
  int64_t backoff_ms = std::max<int64_t>(0, ctx->config().retry_backoff_ms);
  int faults = 0;
  for (int attempt = 0;; ++attempt) {
    SL_RETURN_NOT_OK(ctx->CheckInterrupt());
    Status s;
    try {
      // The injected fault fires BEFORE the task body: a retried attempt
      // must never re-run a body that already consumed (moved out of) its
      // input partition. The bodies themselves never produce retryable
      // statuses, so fn(index) runs at most once to completion.
      s = fail::AnyArmed() ? fail::Hit(failpoint_site()) : Status::OK();
      if (!s.ok()) ++faults;
      if (s.ok()) s = fn(index);
    } catch (const std::exception& e) {
      s = Status::Internal(StrCat("task ", index, " of stage '", stage_label,
                                  "' threw: ", e.what()));
    } catch (...) {
      s = Status::Internal(StrCat("task ", index, " of stage '", stage_label,
                                  "' threw a non-std::exception"));
    }
    if (s.ok() || !s.IsRetryable() || attempt >= retries) {
      if (!s.ok()) {
        ctx->AddTaskFailure();
        failed_counter->Increment();
      }
      if (span != nullptr) {
        Trace* trace = ctx->trace();
        if (attempt > 0) {
          trace->Annotate(span, "retries", std::to_string(attempt));
        }
        if (faults > 0) {
          trace->Annotate(span, "failpoint_fires", std::to_string(faults));
        }
        if (!s.ok()) trace->Annotate(span, "error", s.ToString());
      }
      return s;
    }
    ctx->AddTaskRetries(1);
    retried_counter->Increment();
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
  }
}

Status PhysicalPlan::ChargeOutput(ExecContext* ctx,
                                  PartitionedRelation* out) const {
  const int64_t bytes = EstimateRelationBytes(*out);
  if (!ctx->memory()->TryGrow(bytes)) {
    return Status::ResourceExhausted(
        StrCat(label(), " output of ", bytes,
               " bytes does not fit the memory limit (",
               ctx->memory()->current_bytes(), " of ",
               ctx->memory()->limit_bytes(), " bytes in use)"));
  }
  out->charge = MemoryCharge(ctx->memory(), bytes);
  const int64_t rows = static_cast<int64_t>(out->TotalRows());
  ctx->AddStageRows(label(), rows);
  if (Trace* trace = ctx->trace()) {
    trace->AnnotateStage(label(), "rows", std::to_string(rows));
  }
  // Unconditional side reservations (kernel matrices, hash tables) bypass
  // TryGrow; surface their overshoot here, at the operator boundary.
  return ctx->CheckMemoryLimit();
}

Status PhysicalPlan::DecodeInput(ExecContext* ctx,
                                 PartitionedRelation* in) const {
  if (!in->has_views() && !in->has_batches()) return Status::OK();
  SL_RETURN_NOT_OK(
      RunStage(ctx, in->partitions.size(), [&](size_t i) -> Status {
        StopWatch decode;
        in->EnsureRows(i);
        ctx->AddDecodeMs(decode.ElapsedMillis());
        return Status::OK();
      }));
  in->views.clear();
  in->batches.clear();
  return Status::OK();
}

Result<ExprPtr> EvaluateSubqueries(const ExprPtr& e, ExecContext* ctx) {
  Status error = Status::OK();
  ExprPtr out = Expression::Transform(e, [&](const ExprPtr& n) -> ExprPtr {
    if (!error.ok() || n->kind() != ExprKind::kPhysicalSubquery) return n;
    const auto& sub = static_cast<const PhysicalSubqueryExpr&>(*n);
    auto result = sub.plan()->Execute(ctx);
    if (!result.ok()) {
      error = result.status();
      return n;
    }
    std::vector<Row> rows = std::move(*result).Flatten();
    if (rows.empty()) return Literal::Make(Value::Null(sub.type()));
    if (rows.size() > 1) {
      error = Status::ExecutionError(
          "scalar subquery returned more than one row");
      return n;
    }
    if (rows[0].size() != 1) {
      error = Status::ExecutionError(
          "scalar subquery returned more than one column");
      return n;
    }
    return Literal::Make(rows[0][0]);
  });
  SL_RETURN_NOT_OK(error);
  return out;
}

// --- ScanExec ---------------------------------------------------------------

ScanExec::ScanExec(TablePtr table, std::vector<size_t> column_indices,
                   std::vector<Attribute> output)
    : PhysicalPlan(std::move(output), {}),
      table_(std::move(table)),
      column_indices_(std::move(column_indices)) {}

std::string ScanExec::label() const {
  return StrCat("Scan ", table_->name(), " [", column_indices_.size(),
                " columns]");
}

Result<PartitionedRelation> ScanExec::Execute(ExecContext* ctx) const {
  // Aliases the TablePtr: the snapshot lives as long as any view of it.
  std::shared_ptr<const ChunkedRows> rows(table_, &table_->rows());
  if (rows->size() > std::numeric_limits<uint32_t>::max()) {
    return Status::Invalid(StrCat("table ", table_->name(), " has ",
                                  rows->size(),
                                  " rows; row ids address at most 2^32 - 1"));
  }
  const size_t n = std::max(1, ctx->config().num_executors);
  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(n, {});
  out.views.assign(n, std::nullopt);

  // Contiguous id ranges, like a data source with n splits.
  const size_t per = (rows->size() + n - 1) / n;
  SL_RETURN_NOT_OK(RunStage(ctx, n, [&](size_t i) -> Status {
    const size_t begin = std::min(rows->size(), i * per);
    const size_t end = std::min(rows->size(), begin + per);
    RowView view{rows, std::vector<uint32_t>(end - begin), column_indices_};
    std::iota(view.ids.begin(), view.ids.end(), static_cast<uint32_t>(begin));
    out.views[i] = std::move(view);
    return Status::OK();
  }));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- LocalRelationExec --------------------------------------------------------

LocalRelationExec::LocalRelationExec(std::shared_ptr<const ChunkedRows> rows,
                                     std::vector<Attribute> output)
    : PhysicalPlan(std::move(output), {}), rows_(std::move(rows)) {}

Result<PartitionedRelation> LocalRelationExec::Execute(ExecContext* ctx) const {
  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.emplace_back();
  out.views.emplace_back(RowView::All(rows_));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- ProjectExec ---------------------------------------------------------------

ProjectExec::ProjectExec(std::vector<ExprPtr> bound_list,
                         std::vector<Attribute> output, PhysicalPlanPtr child)
    : PhysicalPlan(std::move(output), {std::move(child)}),
      list_(std::move(bound_list)) {}

Result<PartitionedRelation> ProjectExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  SL_RETURN_NOT_OK(DecodeInput(ctx, &in));
  std::vector<ExprPtr> list = list_;
  for (auto& e : list) {
    SL_ASSIGN_OR_RETURN(e, EvaluateSubqueries(e, ctx));
  }
  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(in.partitions.size(), {});
  SL_RETURN_NOT_OK(RunStage(ctx, in.partitions.size(), [&](size_t i) -> Status {
    auto& part = out.partitions[i];
    part.reserve(in.partitions[i].size());
    for (const Row& row : in.partitions[i]) {
      Row projected;
      projected.reserve(list.size());
      for (const auto& e : list) {
        SL_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, row));
        projected.push_back(std::move(v));
      }
      part.push_back(std::move(projected));
    }
    return Status::OK();
  }));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- FilterExec -----------------------------------------------------------------

FilterExec::FilterExec(ExprPtr bound_condition, PhysicalPlanPtr child)
    : PhysicalPlan(child->output(), {child}),
      condition_(std::move(bound_condition)) {}

Result<PartitionedRelation> FilterExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  // Borrowed input is read in place and stays borrowed: each partition
  // keeps the ids of its passing rows. Anything else is materialized first.
  const bool borrowed = RoutableViews(in);
  if (!borrowed) SL_RETURN_NOT_OK(DecodeInput(ctx, &in));
  SL_ASSIGN_OR_RETURN(ExprPtr cond, EvaluateSubqueries(condition_, ctx));
  if (borrowed) {
    SL_ASSIGN_OR_RETURN(cond, BindToSource(cond, *in.views[0]));
  }
  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(in.partitions.size(), {});
  if (borrowed) out.views.assign(in.partitions.size(), std::nullopt);
  SL_RETURN_NOT_OK(RunStage(ctx, in.partitions.size(), [&](size_t i) -> Status {
    if (borrowed) {
      const RowView& view = *in.views[i];
      RowView kept{view.rows, {}, view.columns};
      for (size_t k = 0; k < view.size(); ++k) {
        SL_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*cond, view.source(k)));
        if (pass) kept.ids.push_back(view.ids[k]);
      }
      out.views[i] = std::move(kept);
      return Status::OK();
    }
    auto& part = out.partitions[i];
    for (Row& row : in.partitions[i]) {
      SL_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*cond, row));
      if (pass) part.push_back(std::move(row));
    }
    return Status::OK();
  }));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- ExchangeExec ----------------------------------------------------------------

namespace {

/// Wire-size estimate of a relation crossing an exchange: every row at its
/// estimated size (one sampled row times the count), borrowed or not — a
/// row is serialized whoever owns it — and batch partitions additionally
/// ship their packed matrix keys (null bitmaps and dictionaries are noise
/// next to the keys).
int64_t EstimateShippedBytes(const PartitionedRelation& rel) {
  int64_t total = 0;
  for (size_t i = 0; i < rel.partitions.size(); ++i) {
    total += PartitionRowBytes(rel, i);
  }
  for (const auto& b : rel.batches) {
    if (!b.has_value()) continue;
    total += static_cast<int64_t>(b->num_rows() * b->matrix().num_dims() *
                                  sizeof(double));
  }
  return total;
}

}  // namespace

ExchangeExec::ExchangeExec(ExchangeMode mode,
                           std::vector<skyline::BoundDimension> dims,
                           PhysicalPlanPtr child)
    : PhysicalPlan(child->output(), {child}),
      mode_(mode),
      dims_(std::move(dims)) {}

std::string ExchangeExec::label() const {
  switch (mode_) {
    case ExchangeMode::kGather:
      return "Exchange [AllTuples]";
    case ExchangeMode::kAngle:
      return "Exchange [Angle]";
  }
  return "Exchange";
}

namespace exchange_internal {

namespace {
/// Sign-adjusted numeric key: negated for MAX so "smaller is better" holds
/// in every dimension, exactly like the DominanceMatrix projection. NaN for
/// NULL, non-numeric and non-finite values (skipped by the bounds, neutral
/// in the angle): an infinite bound would turn every scaled coordinate into
/// inf/inf.
template <typename RowT>
double NormalizedKey(const RowT& row, const skyline::BoundDimension& dim) {
  const Value& v = row[dim.ordinal];
  const double value = v.is_null() || !v.type().is_numeric()
                           ? std::numeric_limits<double>::quiet_NaN()
                           : v.ToDouble();
  if (!std::isfinite(value)) return std::numeric_limits<double>::quiet_NaN();
  return dim.goal == SkylineGoal::kMax ? -value : value;
}
}  // namespace

AngleBounds::AngleBounds(size_t num_dims)
    : lo(num_dims, std::numeric_limits<double>::infinity()),
      hi(num_dims, -std::numeric_limits<double>::infinity()) {}

template <typename RowT>
void AngleBounds::Observe(const RowT& row,
                          const std::vector<skyline::BoundDimension>& dims) {
  for (size_t d = 0; d < dims.size(); ++d) {
    const double key = NormalizedKey(row, dims[d]);
    if (std::isnan(key)) continue;
    lo[d] = std::min(lo[d], key);
    hi[d] = std::max(hi[d], key);
  }
}

template <typename RowT>
size_t AnglePartition(const RowT& row,
                      const std::vector<skyline::BoundDimension>& dims,
                      size_t n, const AngleBounds& bounds) {
  if (dims.size() < 2 || n <= 1) return 0;
  // Min-max scale every sign-adjusted key into [0, 1]: the previous raw
  // |value|+1 magnitudes ignored both the MIN/MAX negation and the
  // per-dimension scale, so MAX goals (large raw magnitudes for *good*
  // values) and wide-range dimensions swamped the angle and collapsed most
  // rows into one or two buckets. Degenerate (constant) dimensions and
  // keys the bounds skip contribute a neutral 0.5. Both differences are
  // halved so that a range wider than DBL_MAX cannot overflow to inf/inf.
  auto scaled = [&](size_t d) {
    const double key = NormalizedKey(row, dims[d]);
    if (std::isnan(key) || !(bounds.hi[d] > bounds.lo[d])) return 0.5;
    return (key / 2 - bounds.lo[d] / 2) / (bounds.hi[d] / 2 - bounds.lo[d] / 2);
  };
  double rest = 0;
  for (size_t d = 1; d < dims.size(); ++d) {
    const double m = scaled(d);
    rest += m * m;
  }
  const double angle = std::atan2(std::sqrt(rest), scaled(0));
  constexpr double kHalfPi = 1.5707963267948966;
  size_t bucket = static_cast<size_t>(angle / kHalfPi * static_cast<double>(n));
  return bucket >= n ? n - 1 : bucket;
}

template void AngleBounds::Observe(const Row&,
                                   const std::vector<skyline::BoundDimension>&);
template void AngleBounds::Observe(const RowRef&,
                                   const std::vector<skyline::BoundDimension>&);
template size_t AnglePartition(const Row&,
                               const std::vector<skyline::BoundDimension>&,
                               size_t, const AngleBounds&);
template size_t AnglePartition(const RowRef&,
                               const std::vector<skyline::BoundDimension>&,
                               size_t, const AngleBounds&);

}  // namespace exchange_internal

Result<PartitionedRelation> ExchangeExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  const int64_t moved = static_cast<int64_t>(in.TotalRows());
  // Exchange observability: what actually crosses the stage boundary, per
  // query (QueryMetrics) and process-wide (the registry).
  const int64_t shipped_bytes = EstimateShippedBytes(in);
  ctx->AddExchangeShipped(moved, shipped_bytes);
  static metrics::Counter* shipped_rows_total =
      metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_exchange_rows_shipped_total");
  static metrics::Counter* shipped_bytes_total =
      metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_exchange_bytes_total");
  shipped_rows_total->Increment(moved);
  shipped_bytes_total->Increment(shipped_bytes);

  PartitionedRelation out;
  out.attrs = output_;
  const size_t n = std::max(1, ctx->config().num_executors);

  // Columnar shuffle: a skyline stage's output arrives as batches (every
  // non-empty partition carries one); ship the matrix blocks —
  // concatenate them into one compact batch instead of decoding to rows
  // and letting the global stage re-project.
  if (mode_ == ExchangeMode::kGather && in.has_batches()) {
    // `parts` outlives the timed stage: dropping the old backings (the
    // upstream stage's non-survivor rows) happens outside the critical
    // path.
    std::vector<skyline::ColumnarBatch> parts;
    for (size_t i = 0; i < in.partitions.size(); ++i) {
      if (i < in.batches.size() && in.batches[i].has_value()) {
        parts.push_back(std::move(*in.batches[i]));
      } else if (in.PartitionRows(i) > 0) {
        return Status::Internal(
            StrCat(label(), " received rows next to batches in partition ", i));
      }
    }
    bool reprojected = false;
    SL_RETURN_NOT_OK(RunStage(ctx, 1, [&](size_t) -> Status {
      out.partitions.emplace_back();
      out.batches.emplace_back(
          skyline::ColumnarBatch::Concat(&parts, ctx->memory(), &reprojected));
      return Status::OK();
    }));
    if (reprojected) {
      ctx->AddMatrixBuilds(label(), 1);
    } else {
      ctx->AddMatrixReuse(label());
    }
    // `in` still holds its charge here, so both copies are accounted
    // transiently, as on the row path below.
    SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
    return out;
  }
  // The angle exchange over borrowed rows routes their ids; the gather,
  // and any other input, works on materialized rows.
  const bool route_ids = mode_ == ExchangeMode::kAngle && RoutableViews(in);
  if (!route_ids) SL_RETURN_NOT_OK(DecodeInput(ctx, &in));

  SL_RETURN_NOT_OK(RunStage(ctx, 1, [&](size_t) -> Status {
    if (mode_ == ExchangeMode::kGather) {
      out.partitions.push_back(std::move(in).Flatten());
      return Status::OK();
    }
    // Routed ids index the source rows directly, so the dimensions move to
    // source-column ordinals once.
    std::vector<skyline::BoundDimension> dims = dims_;
    if (route_ids) {
      for (auto& d : dims) d.ordinal = in.views[0]->column(d.ordinal);
      out.views.assign(n, RowView{in.views[0]->rows, {}, in.views[0]->columns});
    }
    out.partitions.assign(n, {});
    // kAngle: scale by the bounds of every row, then route by angle.
    exchange_internal::AngleBounds bounds(dims.size());
    for (size_t p = 0; p < in.partitions.size(); ++p) {
      const size_t rows = in.PartitionRows(p);
      for (size_t k = 0; k < rows; ++k) {
        if (route_ids) {
          bounds.Observe(in.views[p]->source(k), dims);
        } else {
          bounds.Observe(in.partitions[p][k], dims);
        }
      }
    }
    for (size_t p = 0; p < in.partitions.size(); ++p) {
      const size_t rows = in.PartitionRows(p);
      for (size_t k = 0; k < rows; ++k) {
        const size_t target =
            route_ids ? exchange_internal::AnglePartition(
                            in.views[p]->source(k), dims, n, bounds)
                      : exchange_internal::AnglePartition(
                            in.partitions[p][k], dims, n, bounds);
        if (route_ids) {
          out.views[target]->ids.push_back(in.views[p]->ids[k]);
        } else {
          out.partitions[target].push_back(std::move(in.partitions[p][k]));
        }
      }
    }
    return Status::OK();
  }));
  // `in`'s charge is still alive (serialization buffers): the exchange
  // holds both copies transiently (for routed ids, both id lists).
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- SortExec ---------------------------------------------------------------------

SortExec::SortExec(std::vector<BoundSortOrder> orders, PhysicalPlanPtr child)
    : PhysicalPlan(child->output(), {child}),
      orders_(std::move(orders)) {}

Result<PartitionedRelation> SortExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  SL_RETURN_NOT_OK(DecodeInput(ctx, &in));
  std::vector<Row> rows = std::move(in).Flatten();

  // Precompute sort keys so the comparator cannot fail mid-sort.
  std::vector<std::vector<Value>> keys(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    keys[i].reserve(orders_.size());
    for (const auto& o : orders_) {
      SL_ASSIGN_OR_RETURN(Value v, EvalExpr(*o.expr, rows[i]));
      keys[i].push_back(std::move(v));
    }
  }
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  SL_RETURN_NOT_OK(RunStage(ctx, 1, [&](size_t) -> Status {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < orders_.size(); ++k) {
        const Value& va = keys[a][k];
        const Value& vb = keys[b][k];
        if (va.is_null() || vb.is_null()) {
          if (va.is_null() && vb.is_null()) continue;
          return orders_[k].nulls_first ? va.is_null() : vb.is_null();
        }
        const int cmp = CompareValues(va, vb);
        if (cmp != 0) return orders_[k].ascending ? cmp < 0 : cmp > 0;
      }
      return false;
    });
    return Status::OK();
  }));

  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.emplace_back();
  out.partitions[0].reserve(rows.size());
  for (size_t i : order) out.partitions[0].push_back(std::move(rows[i]));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- LimitExec ----------------------------------------------------------------------

LimitExec::LimitExec(int64_t n, PhysicalPlanPtr child)
    : PhysicalPlan(child->output(), {child}), n_(n) {}

Result<PartitionedRelation> LimitExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  SL_RETURN_NOT_OK(DecodeInput(ctx, &in));
  std::vector<Row> rows = std::move(in).Flatten();
  if (static_cast<int64_t>(rows.size()) > n_) {
    rows.resize(static_cast<size_t>(n_));
  }
  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.push_back(std::move(rows));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

}  // namespace sparkline
