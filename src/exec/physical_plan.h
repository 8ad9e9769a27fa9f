// Physical operators (Spark's SparkPlan analog).
//
// Operators execute partition-at-a-time: each operator consumes its
// children's PartitionedRelations and produces its own. Borrowed rows pass
// through the operators that only select or move them (filters, the
// angle exchange, the skyline stages; see partitioned.h);
// every other operator materializes its input. Stage boundaries
// (exchanges) match where Spark would shuffle; narrow operators preserve
// the child partitioning, mirroring the paper's decision to keep Spark's
// partitioning for the local skyline (section 5.6).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "exec/partitioned.h"
#include "plan/logical_plan.h"
#include "skyline/algorithms.h"

namespace sparkline {

class PhysicalPlan;
using PhysicalPlanPtr = std::shared_ptr<const PhysicalPlan>;

/// \brief How an operator's output is distributed across executors.
enum class Partitioning : uint8_t {
  /// num_executors chunks, no particular key (Spark UnspecifiedDistribution).
  kUnspecified,
  /// Exactly one partition (Spark AllTuples).
  kSinglePartition,
};

/// \brief Base class of all physical operators.
class PhysicalPlan {
 public:
  PhysicalPlan(std::vector<Attribute> output,
               std::vector<PhysicalPlanPtr> children)
      : output_(std::move(output)), children_(std::move(children)) {}
  virtual ~PhysicalPlan() = default;

  const std::vector<Attribute>& output() const { return output_; }
  const std::vector<PhysicalPlanPtr>& children() const { return children_; }

  /// One-line description for EXPLAIN.
  virtual std::string label() const = 0;
  virtual Partitioning output_partitioning() const {
    return children_.empty() ? Partitioning::kUnspecified
                             : children_[0]->output_partitioning();
  }

  /// Recursively executes children, then this operator.
  virtual Result<PartitionedRelation> Execute(ExecContext* ctx) const = 0;

  /// The fault-injection site this operator's stage tasks evaluate (see
  /// common/failpoint.h); all stages of one operator share the site. The
  /// generic per-task site is "exec.stage_task"; operators the chaos suite
  /// targets individually override it.
  virtual const char* failpoint_site() const { return "exec.stage_task"; }

  std::string TreeString() const;

 protected:
  /// Runs `fn` once per partition on the executor pool, measuring each task
  /// with the thread-CPU clock and recording the critical path (max task
  /// time) under this operator's label.
  ///
  /// Fault tolerance: each task is retried up to
  /// ClusterConfig::task_retries times (with exponential backoff) when it
  /// fails with a transient IsRetryable status — the Spark-lineage
  /// argument: stage tasks are deterministic pure functions of their input
  /// partition, so re-execution is safe. A task that throws is converted
  /// into a terminal Status::Internal. The stage checks
  /// ExecContext::CheckInterrupt (cancellation + timeout) before
  /// dispatching and after the barrier.
  Status RunStage(ExecContext* ctx, size_t num_partitions,
                  const std::function<Status(size_t)>& fn) const;

  /// Same, but records the critical path under an explicit stage label —
  /// for operators that run more than one stage (e.g. the parallel global
  /// skyline's partial + merge passes) and want them separately visible in
  /// QueryMetrics::operator_ms.
  Status RunStage(ExecContext* ctx, const std::string& stage_label,
                  size_t num_partitions,
                  const std::function<Status(size_t)>& fn) const;

  /// Reserves the output relation's estimated bytes against the query's
  /// memory budget and attaches the RAII charge to `out`; fails with
  /// ResourceExhausted when the reservation would exceed
  /// ClusterConfig::memory_limit_bytes. Input charges release automatically
  /// when the operator's local relations die, so the tracker drains to zero
  /// on every path — success, error, cancellation.
  Status ChargeOutput(ExecContext* ctx, PartitionedRelation* out) const;

  /// Materializes every borrowed or batch partition of `in` into rows
  /// (PartitionedRelation::EnsureRows), one task per partition in a stage
  /// under this operator's label — the copy is the consumer's work and
  /// stays on the simulated clock; the task times are also summed into
  /// QueryMetrics::decode_ms. Every operator that consumes rows calls this
  /// right after executing its child. A filter and a re-partitioning
  /// exchange call it only for input they cannot read by row id (owned
  /// rows, batches, or views of several sources); the skyline stages read
  /// borrowed rows in place.
  Status DecodeInput(ExecContext* ctx, PartitionedRelation* in) const;

  /// The input of a global skyline stage as one batch projected for `dims`:
  /// the gathered batch itself when it already is one (recorded as a matrix
  /// reuse; with `require_ascending` its view must also be ascending in
  /// matrix index), otherwise the decoded rows projected once in a
  /// "<label> [project]" stage.
  Result<skyline::ColumnarBatch> GatheredBatch(
      ExecContext* ctx, PartitionedRelation* in,
      const std::vector<skyline::BoundDimension>& dims,
      bool require_ascending) const;

  /// The parallel global skyline both global skyline operators run with
  /// more than one executor, over `chunks` chunks of their input: unless
  /// `candidates` is empty, a "<label> <candidates_stage>" stage whose task
  /// i computes chunk i's candidates into the caller's storage; then a
  /// "<label> <validate_stage>" stage whose task i returns chunk i's
  /// survivors, reading but never writing the other chunks' candidates;
  /// then the survivors concatenated in chunk order, which needs no task.
  Result<std::vector<uint32_t>> ChunkedGlobalSkyline(
      ExecContext* ctx, size_t chunks, const char* candidates_stage,
      const std::function<Status(size_t)>& candidates,
      const char* validate_stage,
      const std::function<Result<std::vector<uint32_t>>(size_t)>& validate)
      const;

  std::vector<Attribute> output_;
  std::vector<PhysicalPlanPtr> children_;

 private:
  /// One task of a stage: the per-attempt failpoint, the throw guard, and
  /// the transient-fault retry loop (see RunStage). `span` (nullable) is the
  /// task's trace span; retries and fault fires are annotated onto it.
  Status RunTask(ExecContext* ctx, const std::string& stage_label,
                 size_t index, const std::function<Status(size_t)>& fn,
                 TraceSpan* span) const;
};

// --- leaves ----------------------------------------------------------------

/// \brief Scans a catalog table without copying it: splits the snapshot
/// into executor-count contiguous id ranges of borrowed rows (RowView
/// partitions whose column map applies the pruning), which keep the
/// snapshot alive.
class ScanExec : public PhysicalPlan {
 public:
  ScanExec(TablePtr table, std::vector<size_t> column_indices,
           std::vector<Attribute> output);
  std::string label() const override;
  const char* failpoint_site() const override { return "exec.scan"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  TablePtr table_;
  std::vector<size_t> column_indices_;
};

/// \brief Emits in-memory rows as a single borrowed partition.
class LocalRelationExec : public PhysicalPlan {
 public:
  LocalRelationExec(std::shared_ptr<const ChunkedRows> rows,
                    std::vector<Attribute> output);
  std::string label() const override { return "LocalRelation"; }
  Partitioning output_partitioning() const override {
    return Partitioning::kSinglePartition;
  }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  /// The relation's rows as one store, converted once when the logical
  /// node was built, so every view of them has the same source.
  std::shared_ptr<const ChunkedRows> rows_;
};

// --- narrow operators --------------------------------------------------------

/// \brief Row-at-a-time projection.
class ProjectExec : public PhysicalPlan {
 public:
  ProjectExec(std::vector<ExprPtr> bound_list, std::vector<Attribute> output,
              PhysicalPlanPtr child);
  std::string label() const override { return "Project"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<ExprPtr> list_;
};

/// \brief Predicate filter. Scalar subqueries are evaluated first. Over
/// borrowed input whose partitions all read one source through one column
/// map, the predicate's bound ordinals are remapped through the column map
/// once and the predicate evaluates on each source row; each partition
/// keeps a view of the ids it passes, with the same source and map. Any
/// other input is decoded first and the passing rows are moved.
class FilterExec : public PhysicalPlan {
 public:
  FilterExec(ExprPtr bound_condition, PhysicalPlanPtr child);
  std::string label() const override { return "Filter"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  ExprPtr condition_;
};

// --- exchanges ---------------------------------------------------------------

enum class ExchangeMode : uint8_t {
  /// Gather everything into one partition (AllTuples distribution).
  kGather,
  /// Angle-based space partitioning (Vlachou et al.; paper section 7
  /// future work): rows in similar "directions" of the dimension space land
  /// together, which keeps local skylines small on anti-correlated data.
  kAngle,
};

using skyline::SkylineKernel;

/// \brief Angle-partitioning internals, exposed so tests can assert the
/// scheme's bucket spread and pruning power directly.
namespace exchange_internal {

/// Per-dimension [lo, hi] range of the normalized skyline keys (values
/// negated for MAX goals) across all partitions — the scaling context
/// AnglePartition needs. NULL, non-numeric and non-finite (±inf, NaN)
/// values are skipped.
struct AngleBounds {
  /// Empty bounds (lo = +inf, hi = -inf) for `num_dims` dimensions.
  explicit AngleBounds(size_t num_dims);
  /// Widens the bounds by one row's keys.
  /// RowT is a Row or a RowRef.
  template <typename RowT>
  void Observe(const RowT& row,
               const std::vector<skyline::BoundDimension>& dims);

  std::vector<double> lo;
  std::vector<double> hi;
};

/// Simplified angle-based partition assignment (Vlachou et al.): buckets
/// the hyperspherical angle between the first dimension and the remainder
/// of the dimension vector, computed over *normalized* keys — negated for
/// MAX goals and min-max scaled into [0, 1] per dimension — so that MAX
/// goals and mixed-scale dimensions spread over buckets instead of
/// collapsing into one. A key the bounds skip sits at the neutral
/// midpoint 0.5, so one infinite value cannot collapse the other rows.
/// Correctness never depends on the scheme (any partitioning is valid for
/// complete data); only pruning power does.
template <typename RowT>
size_t AnglePartition(const RowT& row,
                      const std::vector<skyline::BoundDimension>& dims,
                      size_t n, const AngleBounds& bounds);

}  // namespace exchange_internal

/// \brief Re-distributes data; the only operator that moves rows between
/// executors (a stage boundary, like a Spark shuffle).
///
/// A kGather exchange whose input arrives as ColumnarBatches (the output of
/// a skyline stage) ships the matrix blocks instead of rows: the batches are
/// concatenated into one compact batch (ColumnarBatch::Concat, which keeps
/// borrowed rows borrowed) and the single output partition stays columnar.
/// The angle exchange over borrowed rows (a scan or a filter) routes their
/// row ids, so its output stays borrowed. Any other input is materialized
/// first (DecodeInput).
class ExchangeExec : public PhysicalPlan {
 public:
  ExchangeExec(ExchangeMode mode, std::vector<skyline::BoundDimension> dims,
               PhysicalPlanPtr child);
  std::string label() const override;
  const char* failpoint_site() const override { return "exec.exchange"; }
  Partitioning output_partitioning() const override {
    return mode_ == ExchangeMode::kGather ? Partitioning::kSinglePartition
                                          : Partitioning::kUnspecified;
  }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  ExchangeMode mode_;
  std::vector<skyline::BoundDimension> dims_;  // for kAngle
};

// --- aggregation -------------------------------------------------------------

/// \brief One aggregate to compute.
struct AggSpec {
  AggFn fn;
  ExprPtr bound_arg;  ///< null for COUNT(*)
  bool distinct = false;
  DataType result_type;
};

enum class AggMode : uint8_t { kPartial, kFinal, kComplete };

/// \brief Hash aggregation. Two-phase (partial per partition, final after a
/// gather) unless a DISTINCT aggregate forces single-phase.
class HashAggregateExec : public PhysicalPlan {
 public:
  HashAggregateExec(std::vector<ExprPtr> bound_groups,
                    std::vector<AggSpec> aggs, AggMode mode,
                    std::vector<Attribute> output, PhysicalPlanPtr child);
  std::string label() const override;
  Partitioning output_partitioning() const override {
    return mode_ == AggMode::kPartial ? children_[0]->output_partitioning()
                                      : Partitioning::kSinglePartition;
  }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<ExprPtr> groups_;
  std::vector<AggSpec> aggs_;
  AggMode mode_;
};

// --- sorting / limiting -------------------------------------------------------

/// \brief Bound ORDER BY item.
struct BoundSortOrder {
  ExprPtr expr;
  bool ascending;
  bool nulls_first;
};

class SortExec : public PhysicalPlan {
 public:
  SortExec(std::vector<BoundSortOrder> orders, PhysicalPlanPtr child);
  std::string label() const override { return "Sort"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<BoundSortOrder> orders_;
};

class LimitExec : public PhysicalPlan {
 public:
  LimitExec(int64_t n, PhysicalPlanPtr child);
  std::string label() const override { return "Limit"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  int64_t n_;
};

// --- joins ---------------------------------------------------------------------

/// \brief Broadcast hash join for equi conditions (INNER / LEFT OUTER).
/// The right side is gathered and hashed once; left partitions probe it.
class HashJoinExec : public PhysicalPlan {
 public:
  HashJoinExec(JoinType type, std::vector<ExprPtr> left_keys,
               std::vector<ExprPtr> right_keys, ExprPtr residual,
               std::vector<Attribute> output, PhysicalPlanPtr left,
               PhysicalPlanPtr right);
  std::string label() const override;
  Partitioning output_partitioning() const override {
    return children_[0]->output_partitioning();
  }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  JoinType type_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;  // bound against combined row; may be null
};

/// \brief Broadcast nested-loop join: arbitrary condition, all join types.
/// This is the operator that executes the plain-SQL "reference" skyline plan
/// (a left-anti self-join with the dominance predicate), matching Spark's
/// BroadcastNestedLoopJoin choice for such queries. Left-anti probes exit
/// early on the first match.
class NestedLoopJoinExec : public PhysicalPlan {
 public:
  NestedLoopJoinExec(JoinType type, ExprPtr condition,
                     std::vector<Attribute> output, PhysicalPlanPtr left,
                     PhysicalPlanPtr right);
  std::string label() const override;
  Partitioning output_partitioning() const override {
    return children_[0]->output_partitioning();
  }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  JoinType type_;
  ExprPtr condition_;  // bound against concat(left row, right row); may be null
};

// --- skyline -------------------------------------------------------------------

/// \brief Local skyline computation (paper section 5.5/5.6): one BNL pass
/// per partition, preserving the child's partitioning. Used for both the
/// complete and the incomplete algorithm. A partition may hold any mix of
/// null bitmaps, so the incomplete algorithm reduces each bitmap group of a
/// partition separately (RunColumnarKernel): within one bitmap, a row that
/// dominates r also dominates every row r dominates, so dropping r loses no
/// witness, and a bitmap spread over several partitions only leaves extra
/// candidates for the global stage.
///
/// Each partition's rows are keyed in the task (a scan's borrowed rows in
/// place) by ColumnarBatch::LocalSkyline: BNL streams them through its
/// window and outputs a compact batch of the local skyline, SFS builds the
/// whole partition's matrix and outputs a survivor view over it. Either
/// way every downstream skyline stage reuses the batch's matrix. A
/// complete run, whichever kernel it used, leaves its view in SFS order
/// and marks it one skyline part (ColumnarBatch::skyline_parts()), so the
/// global stage validates it against the other partitions' skylines
/// without re-running a kernel.
class LocalSkylineExec : public PhysicalPlan {
 public:
  LocalSkylineExec(std::vector<skyline::BoundDimension> dims, bool distinct,
                   skyline::NullSemantics nulls, PhysicalPlanPtr child,
                   SkylineKernel kernel = SkylineKernel::kBlockNestedLoop);
  std::string label() const override;
  const char* failpoint_site() const override { return "exec.local_task"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<skyline::BoundDimension> dims_;
  bool distinct_;
  skyline::NullSemantics nulls_;
  SkylineKernel kernel_;
};

/// \brief Global skyline for complete data over the single gathered
/// partition (requires AllTuples distribution).
///
/// A gather of at most one non-empty skyline part is returned as it is by
/// one task that runs no kernel, at any executor count: one local skyline
/// (one executor, or a single-partition child) is already the answer.
/// Otherwise, with one executor it is one task running the kernel over the
/// whole input (the paper's algorithm). With more executors it has no
/// single-task step (ChunkedGlobalSkyline, after Ciaccia & Martinenghi's
/// parallel final phase):
///
///   [partial]  only for input without skyline parts: executor-count
///              contiguous chunks each run the kernel, and leave their
///              survivors in an SFS-ordered, densely packed copy.
///   [merge]    one task per part (or chunk) keeps the candidates no other
///              part's candidate dominates (ColumnarValidateAgainstPeers);
///              survivors are concatenated in part order, so the output is
///              deterministic for a given executor count.
///
/// Complete dominance is transitive, so a gathered row is in the skyline
/// exactly when no other part's candidate dominates it. A batch from the
/// gather exchange of local skylines arrives split into skyline parts
/// (ColumnarBatch::skyline_parts()), one antichain per partition laid out
/// contiguously, and goes straight to [merge], whichever kernel the local
/// stage ran. Other input — rows projected once in a "<label> [project]"
/// stage (non-distributed plans, nested skylines), or a re-ranked gather —
/// runs [partial] first. No stage re-projects.
class GlobalSkylineExec : public PhysicalPlan {
 public:
  GlobalSkylineExec(std::vector<skyline::BoundDimension> dims, bool distinct,
                    PhysicalPlanPtr child,
                    SkylineKernel kernel = SkylineKernel::kBlockNestedLoop);
  std::string label() const override { return "GlobalSkyline [complete]"; }
  const char* failpoint_site() const override { return "exec.global_task"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<skyline::BoundDimension> dims_;
  bool distinct_;
  SkylineKernel kernel_;
};

/// \brief Global skyline for incomplete data (paper section 5.7 /
/// Appendix A).
///
/// Incomplete dominance is non-transitive, so the complete path's
/// partial-merge scheme (prune chunk-dominated tuples, merge survivors) is
/// unsound here: a tuple eliminated inside its chunk can still be the only
/// witness against another chunk's survivor. With more than one executor
/// the gathered input is instead split into executor-count chunks and run
/// through all-pairs validation (ChunkedGlobalSkyline), after one step
/// that is sound because dominance *within* one null bitmap is transitive:
///
///   [reduce]      only for a gather of local skylines (skyline parts):
///                 one task per part drops the rows that another part's
///                 row of the same bitmap dominates (and, under DISTINCT,
///                 that an earlier part holds equal), reading each bitmap
///                 group in place (ColumnarValidateAgainstPeers). The
///                 dominator dominates every row the dropped one does, so
///                 no witness is lost.
///   [candidates]  each chunk runs the all-pairs deferred-deletion scan
///                 locally; survivors become its candidate set.
///   [validate]    task i checks its candidates against the *full* tuple
///                 set of chunks i+1, i+2, ... (mod chunks) in turn,
///                 eliminating a candidate only when a concrete dominating
///                 witness is found.
///
/// Surviving candidates are then concatenated in input order. Every
/// candidate has been compared against every other input tuple [reduce]
/// kept, so the result equals the single-task all-pairs algorithm exactly.
/// Stage times are recorded under "<label> [reduce]" / "[candidates]" /
/// "[validate]"; the single-executor path (the paper's single-task
/// all-pairs) keeps the bare label.
///
/// A batch from the gather exchange supplies the shared matrix (and its
/// per-row null bitmaps) for every stage, and the output stays a batch
/// view. Matrix row order equals gathered input order (ColumnarBatch::Concat
/// guarantees it), which is the DISTINCT tie-break the validation rounds
/// need.
class GlobalSkylineIncompleteExec : public PhysicalPlan {
 public:
  GlobalSkylineIncompleteExec(std::vector<skyline::BoundDimension> dims,
                              bool distinct, PhysicalPlanPtr child);
  std::string label() const override { return "GlobalSkyline [incomplete]"; }
  const char* failpoint_site() const override { return "exec.global_task"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  /// The [reduce] stage over `batch`, whose skyline parts are contiguous
  /// runs of matrix rows; returns the kept view, ascending in matrix index.
  Result<std::vector<uint32_t>> ReduceBitmapGroups(
      ExecContext* ctx, const skyline::ColumnarBatch& batch,
      const skyline::SkylineOptions& options) const;

  std::vector<skyline::BoundDimension> dims_;
  bool distinct_;
};

}  // namespace sparkline
