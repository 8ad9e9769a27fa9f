// Execution context: the simulated cluster.
//
// Spark in the paper runs on an 18-datanode YARN cluster with a configurable
// number of executors. Here each executor is a worker slot of a thread pool;
// stage tasks (one per partition) are timed with the per-thread CPU clock and
// combined into a critical-path "simulated cluster time":
//
//   simulated_ms = sum over stages of (max over partition tasks of CPU time)
//
// which reproduces the executor-scaling behaviour the paper studies (local
// skyline work shrinks with more executors; the single-task global stage
// becomes the bottleneck) independently of how many physical cores this host
// has. Wall-clock time is reported alongside.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "common/result.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/thread_safety.h"
#include "common/timer.h"
#include "exec/trace.h"
#include "skyline/dominance.h"

namespace sparkline {

/// \brief Shape of the simulated cluster.
struct ClusterConfig {
  /// Number of executors == default number of partitions (paper: 1..10).
  int num_executors = 4;
  /// Simulated resident bytes per executor (each executor "loads its entire
  /// execution environment", paper section 6.5). Added to the tracked peak.
  int64_t executor_overhead_bytes = 64ll << 20;
  /// Query timeout in milliseconds (0 = none); the paper uses 3600 s.
  int64_t timeout_ms = 0;
  /// Re-execution budget per stage task for transient (IsRetryable) faults —
  /// the analogue of spark.task.maxFailures. 2 retries = 3 attempts total.
  int task_retries = 2;
  /// Backoff between retry attempts of one task, in milliseconds. Doubled
  /// per attempt (1 ms, 2 ms, 4 ms, ...); kept tiny because the simulated
  /// cluster's transient faults clear instantly.
  int64_t retry_backoff_ms = 1;
  /// Hard per-query budget for tracked (materialized) bytes, 0 = unlimited.
  /// Relation-output charges that would exceed it fail the query mid-stage
  /// with a clean Status::ResourceExhausted; the executor overhead bytes are
  /// a reporting add-on and do not count against this budget.
  int64_t memory_limit_bytes = 0;
  /// Record a per-query TraceSpan tree (one span per stage, child spans per
  /// partition task), exported via QueryResult::TraceJson(). Span recording
  /// is stage/task-grained, never per-row (sparkline.trace.enabled).
  bool trace_enabled = true;
};

/// \brief Everything measured while running one query.
struct QueryMetrics {
  double wall_ms = 0;
  double simulated_ms = 0;
  int64_t peak_memory_bytes = 0;
  int64_t dominance_tests = 0;

  // --- exchange counters ----------------------------------------------------
  /// Rows that actually crossed an ExchangeExec stage boundary (batch rows
  /// count their view, not their backing).
  int64_t exchange_rows_shipped = 0;
  /// Estimated bytes those rows occupied on the wire (row estimate, plus
  /// packed matrix keys for batch partitions). Borrowed rows count like
  /// owned ones: a row is serialized whoever owns it.
  int64_t exchange_bytes = 0;
  /// Always 0: no operator skips whole partitions. Kept for sl_bench,
  /// which still reports it.
  int64_t partitions_skipped = 0;
  /// Always 0: no operator prunes local skylines before the gather. Kept
  /// for sl_bench, which still reports it.
  int64_t rows_pruned_pre_gather = 0;
  /// The post-gather share of dominance_tests: tests performed by the
  /// GlobalSkyline* merge stages; the local stages' share is
  /// dominance_tests - merge_dominance_tests.
  int64_t merge_dominance_tests = 0;

  // --- fault-tolerance counters ---------------------------------------------
  /// Stage-task attempts that failed with a transient (retryable) fault and
  /// were re-executed. A task that fails twice and then succeeds adds 2.
  int64_t tasks_retried = 0;
  /// Stage-task attempts that failed terminally (non-retryable error, or a
  /// retryable one with the retry budget exhausted) and failed the query.
  int64_t tasks_failed = 0;

  // --- result-cache counters (serve layer) ---------------------------------
  /// True when the rows were served from the fingerprinted result cache
  /// instead of being executed; the lookup also appears as a "[cache-hit]"
  /// stage in operator_ms.
  bool cache_hit = false;
  /// Time spent fingerprinting the plan + probing the cache (hit or miss);
  /// 0 when the cache is disabled or the plan is uncacheable.
  double cache_lookup_ms = 0;
  /// On a cache hit: how many write deltas the served entry has absorbed
  /// since it was first computed (serve/incremental.h). A nonzero value is
  /// the proof a hit survived InsertInto traffic without a recompute;
  /// always 0 on misses.
  int64_t cache_delta_maintained = 0;
  /// Rows returned to the caller (executed or cached).
  int64_t rows_served = 0;
  /// Estimated bytes of the returned rows; computed only when the result
  /// cache is enabled (the estimate is what the cache budget charges),
  /// 0 otherwise.
  int64_t bytes_served = 0;

  // --- columnar exchange counters ------------------------------------------
  /// Milliseconds spent keying rows: each block a streamed local stage
  /// keys, and each whole DominanceMatrix::Build (summed across parallel
  /// tasks, so it can exceed the stage's critical-path time; the per-stage
  /// critical path already includes it).
  double projection_ms = 0;
  /// Milliseconds spent copying rows out of batches and borrowed
  /// partitions: the per-partition tasks of DecodeInput for non-skyline
  /// consumers (summed across tasks, like projection_ms) plus the plan-root
  /// decode.
  double decode_ms = 0;
  /// Key projections per stage label: one per partition at the local
  /// stage, whether it streamed its partition into a compact matrix or
  /// built the whole partition's (DominanceMatrix::Build), and one in the
  /// global stage's "[project]" for non-distributed plans. The stages
  /// after the local one reuse its matrix, so no "[partial]"/"[merge]"/
  /// "[candidates]" label appears here. A gather re-ranking a ranked
  /// dimension adds one build under its own label.
  std::map<std::string, int64_t> matrix_builds;
  /// Stages that consumed an already-built matrix (a batch or a view)
  /// instead of re-projecting, per stage label.
  std::map<std::string, int64_t> matrix_reuses;

  // --- SFS early-termination counters ---------------------------------------
  /// Input rows of SFS passes never scanned because a SaLSa stop point
  /// proved every remaining tuple strictly dominated. Summed across all
  /// passes (local partitions, global partial slices, the global merge).
  int64_t sfs_rows_skipped = 0;
  /// SFS passes that terminated at a stop point before exhausting their
  /// input.
  int64_t sfs_early_stops = 0;

  /// Critical-path milliseconds per operator label.
  std::map<std::string, double> operator_ms;
  /// Output rows per operator label (recorded when the stage's relation is
  /// charged against the memory budget; cache hits and pure pass-through
  /// stages have no entry).
  std::map<std::string, int64_t> operator_rows;

  std::string ToString() const;
};

/// \brief Mutable per-query state shared by all operators.
class ExecContext {
 public:
  explicit ExecContext(const ClusterConfig& config)
      : config_(config),
        pool_(std::make_unique<ThreadPool>(
            static_cast<size_t>(config.num_executors))) {
    if (config_.timeout_ms > 0) {
      deadline_nanos_ = StopWatch::NowNanos() + config_.timeout_ms * 1000000;
    }
    memory_.set_limit_bytes(config_.memory_limit_bytes);
    if (config_.trace_enabled) {
      trace_ = std::make_unique<Trace>();
    }
  }

  const ClusterConfig& config() const { return config_; }
  ThreadPool* pool() { return pool_.get(); }
  MemoryTracker* memory() { return &memory_; }
  skyline::DominanceCounter* dominance() { return &dominance_; }
  /// Separate counter for the post-gather GlobalSkyline* merge stages;
  /// rolls up into QueryMetrics::dominance_tests alongside `dominance()`
  /// and is also surfaced as merge_dominance_tests.
  skyline::DominanceCounter* merge_dominance() { return &merge_dominance_; }
  skyline::EarlyStopStats* early_stop() { return &early_stop_; }
  /// The per-query span recorder, or null when tracing is disabled.
  Trace* trace() { return trace_.get(); }
  /// Closes the root "query" span and hands the tree over (null when
  /// tracing is disabled or the trace was already taken).
  std::unique_ptr<TraceSpan> TakeTrace(double wall_ms) {
    if (trace_ == nullptr) return nullptr;
    return trace_->Finish(wall_ms);
  }

  /// Monotonic deadline in nanoseconds, 0 if none.
  int64_t deadline_nanos() const { return deadline_nanos_; }
  Status CheckTimeout() const {
    if (deadline_nanos_ != 0 && StopWatch::NowNanos() > deadline_nanos_) {
      return Status::Timeout("query exceeded the configured timeout");
    }
    return Status::OK();
  }

  /// The query's cancellation token (never null — a default token is created
  /// so kernels can poll unconditionally). The serving tier installs its own
  /// shared token via set_cancel_token to keep a Cancel() handle.
  const CancellationToken* cancel_token() const { return cancel_.get(); }
  const CancellationTokenPtr& shared_cancel_token() const { return cancel_; }
  void set_cancel_token(CancellationTokenPtr token) {
    if (token != nullptr) cancel_ = std::move(token);
  }

  /// The stage-boundary interrupt check: cancellation first (an explicit
  /// Cancel() beats a deadline that may have expired at the same moment),
  /// then the deadline.
  Status CheckInterrupt() const {
    if (cancel_->cancelled()) {
      return Status::Cancelled("query cancelled");
    }
    return CheckTimeout();
  }

  /// Fails with ResourceExhausted when tracked bytes exceed the configured
  /// limit. Relation-output charges enforce the limit at reservation time
  /// (MemoryTracker::TryGrow); this catches overshoot from unconditional
  /// side reservations (kernel matrix storage, join hash tables).
  Status CheckMemoryLimit() const {
    const int64_t limit = memory_.limit_bytes();
    if (limit > 0 && memory_.current_bytes() > limit) {
      return Status::ResourceExhausted(
          StrCat("query exceeded the memory limit: ", memory_.current_bytes(),
                 " bytes tracked > limit ", limit));
    }
    return Status::OK();
  }

  // --- fault-tolerance accounting (thread-safe) -----------------------------
  void AddTaskRetries(int64_t n) {
    tasks_retried_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddTaskFailure() {
    tasks_failed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one stage's critical-path time under an operator label.
  void AddStageTime(const std::string& label, double ms) {
    sl::MutexLock lock(&mu_);
    simulated_ms_ += ms;
    operator_ms_[label] += ms;
  }
  void AddExchangeShipped(int64_t rows, int64_t bytes) {
    sl::MutexLock lock(&mu_);
    exchange_rows_shipped_ += rows;
    exchange_bytes_ += bytes;
  }
  /// Records a stage's output row count under its operator label.
  void AddStageRows(const std::string& label, int64_t rows) {
    sl::MutexLock lock(&mu_);
    operator_rows_[label] += rows;
  }

  // --- columnar exchange accounting (thread-safe; stage tasks call these
  // concurrently) -----------------------------------------------------------
  void AddProjectionMs(double ms) {
    sl::MutexLock lock(&mu_);
    projection_ms_ += ms;
  }
  void AddDecodeMs(double ms) {
    sl::MutexLock lock(&mu_);
    decode_ms_ += ms;
  }
  void AddMatrixBuilds(const std::string& stage_label, int64_t n) {
    sl::MutexLock lock(&mu_);
    matrix_builds_[stage_label] += n;
  }
  void AddMatrixReuse(const std::string& stage_label) {
    sl::MutexLock lock(&mu_);
    matrix_reuses_[stage_label] += 1;
  }

  /// Finalizes the metrics (called once by the session). Takes the
  /// accumulator mutex: the serving tier calls Finish on the submitting
  /// thread while stage tasks may still be draining (a cancelled or
  /// timed-out query's pool tasks finish asynchronously), so the unlocked
  /// reads this method used to do raced AddStageTime and friends — the
  /// first genuine bug the thread-safety analysis surfaced
  /// (tests/exec_context_test.cc pins the fix).
  QueryMetrics Finish(double wall_ms) const SL_EXCLUDES(mu_) {
    sl::MutexLock lock(&mu_);
    QueryMetrics m;
    m.wall_ms = wall_ms;
    m.simulated_ms = simulated_ms_;
    m.peak_memory_bytes =
        memory_.peak_bytes() +
        static_cast<int64_t>(config_.num_executors) *
            config_.executor_overhead_bytes;
    m.dominance_tests =
        dominance_.tests.load() + merge_dominance_.tests.load();
    m.merge_dominance_tests = merge_dominance_.tests.load();
    m.exchange_rows_shipped = exchange_rows_shipped_;
    m.exchange_bytes = exchange_bytes_;
    m.tasks_retried = tasks_retried_.load();
    m.tasks_failed = tasks_failed_.load();
    m.sfs_rows_skipped = early_stop_.rows_skipped.load();
    m.sfs_early_stops = early_stop_.stops.load();
    m.projection_ms = projection_ms_;
    m.decode_ms = decode_ms_;
    m.matrix_builds = matrix_builds_;
    m.matrix_reuses = matrix_reuses_;
    m.operator_ms = operator_ms_;
    m.operator_rows = operator_rows_;
    return m;
  }

 private:
  ClusterConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Trace> trace_;
  MemoryTracker memory_;
  skyline::DominanceCounter dominance_;
  skyline::DominanceCounter merge_dominance_;
  skyline::EarlyStopStats early_stop_;
  int64_t deadline_nanos_ = 0;
  CancellationTokenPtr cancel_ = std::make_shared<CancellationToken>();
  std::atomic<int64_t> tasks_retried_{0};
  std::atomic<int64_t> tasks_failed_{0};

  mutable sl::Mutex mu_;
  double simulated_ms_ SL_GUARDED_BY(mu_) = 0;
  std::map<std::string, double> operator_ms_ SL_GUARDED_BY(mu_);
  std::map<std::string, int64_t> operator_rows_ SL_GUARDED_BY(mu_);
  int64_t exchange_rows_shipped_ SL_GUARDED_BY(mu_) = 0;
  int64_t exchange_bytes_ SL_GUARDED_BY(mu_) = 0;
  double projection_ms_ SL_GUARDED_BY(mu_) = 0;
  double decode_ms_ SL_GUARDED_BY(mu_) = 0;
  std::map<std::string, int64_t> matrix_builds_ SL_GUARDED_BY(mu_);
  std::map<std::string, int64_t> matrix_reuses_ SL_GUARDED_BY(mu_);
};

}  // namespace sparkline
