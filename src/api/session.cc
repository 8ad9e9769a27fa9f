#include "api/session.h"

#include "api/dataframe.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"

namespace sparkline {

std::string ExplainInfo::ToString() const {
  return StrCat("== Analyzed Logical Plan ==\n", analyzed,
                "\n\n== Optimized Logical Plan ==\n", optimized,
                "\n\n== Physical Plan ==\n", physical, "\n");
}

Session::Session(SessionConfig config)
    : catalog_(std::make_shared<Catalog>()), config_(std::move(config)) {}

namespace {
Result<bool> ParseBool(const std::string& value) {
  const std::string v = ToLower(value);
  if (v == "true" || v == "1" || v == "on") return true;
  if (v == "false" || v == "0" || v == "off") return false;
  return Status::Invalid(StrCat("expected a boolean, got '", value, "'"));
}
/// The whole value must be an integer: "4x" is rejected, not read as 4.
Result<int64_t> ParseInt(const std::string& value) {
  try {
    size_t parsed = 0;
    const int64_t n = static_cast<int64_t>(std::stoll(value, &parsed));
    if (parsed == value.size()) return n;
  } catch (...) {
    // Not a number, or out of range: rejected below.
  }
  return Status::Invalid(StrCat("expected an integer, got '", value, "'"));
}
}  // namespace

Status Session::SetConf(const std::string& key, const std::string& value) {
  const std::string k = ToLower(key);
  if (k == "sparkline.executors") {
    SL_ASSIGN_OR_RETURN(int64_t n, ParseInt(value));
    if (n < 1 || n > 4096) {
      return Status::Invalid("sparkline.executors must be in [1, 4096]");
    }
    config_.cluster.num_executors = static_cast<int>(n);
    return Status::OK();
  }
  if (k == "sparkline.timeout_ms") {
    SL_ASSIGN_OR_RETURN(int64_t n, ParseInt(value));
    // The deadline is NowNanos() + timeout_ms * 10^6: 10^12 ms (~31 years)
    // keeps it far from int64 overflow.
    if (n < 0 || n > 1000000000000) {
      return Status::Invalid("sparkline.timeout_ms must be in [0, 10^12]");
    }
    config_.cluster.timeout_ms = n;
    return Status::OK();
  }
  if (k == "sparkline.memory.executoroverheadmb") {
    SL_ASSIGN_OR_RETURN(int64_t n, ParseInt(value));
    // 4096 executors x 2^20 MB stays below 2^53 bytes.
    if (n < 0 || n > (int64_t{1} << 20)) {
      return Status::Invalid(
          "sparkline.memory.executorOverheadMb must be in [0, 2^20]");
    }
    config_.cluster.executor_overhead_bytes = n << 20;
    return Status::OK();
  }
  if (k == "sparkline.skyline.strategy") {
    SL_ASSIGN_OR_RETURN(config_.skyline_strategy, ParseSkylineStrategy(value));
    return Status::OK();
  }
  if (k == "sparkline.skyline.kernel") {
    if (EqualsIgnoreCase(value, "bnl")) {
      config_.skyline_kernel = SkylineKernel::kBlockNestedLoop;
      return Status::OK();
    }
    if (EqualsIgnoreCase(value, "sfs")) {
      config_.skyline_kernel = SkylineKernel::kSortFilterSkyline;
      return Status::OK();
    }
    return Status::Invalid(
        StrCat("unknown skyline kernel '", value, "' (bnl | sfs)"));
  }
  if (k == "sparkline.skyline.partitioning") {
    SL_ASSIGN_OR_RETURN(config_.skyline_partitioning,
                        ParseSkylinePartitioning(value));
    return Status::OK();
  }
  if (k == "sparkline.cache.enabled") {
    SL_ASSIGN_OR_RETURN(config_.cache_enabled, ParseBool(value));
    if (!config_.cache_enabled) {
      sl::MutexLock lock(&serve_mu_);
      if (cache_ != nullptr) cache_->Clear();
    }
    return Status::OK();
  }
  if (k == "sparkline.cache.capacity_bytes") {
    SL_ASSIGN_OR_RETURN(int64_t n, ParseInt(value));
    if (n < 0) {
      return Status::Invalid("sparkline.cache.capacity_bytes must be >= 0");
    }
    config_.cache_capacity_bytes = n;
    sl::MutexLock lock(&serve_mu_);
    if (cache_ != nullptr) cache_->set_capacity_bytes(n);
    return Status::OK();
  }
  if (k == "sparkline.cache.ttl_ms") {
    SL_ASSIGN_OR_RETURN(int64_t n, ParseInt(value));
    if (n < 0) return Status::Invalid("sparkline.cache.ttl_ms must be >= 0");
    config_.cache_ttl_ms = n;
    sl::MutexLock lock(&serve_mu_);
    if (cache_ != nullptr) cache_->set_ttl_ms(n);
    return Status::OK();
  }
  if (k == "sparkline.cache.max_delta_batch") {
    SL_ASSIGN_OR_RETURN(int64_t n, ParseInt(value));
    if (n < 0) {
      return Status::Invalid("sparkline.cache.max_delta_batch must be >= 0");
    }
    config_.cache_max_delta_batch = n;
    sl::MutexLock lock(&serve_mu_);
    if (maintainer_ != nullptr) maintainer_->set_max_delta_batch(n);
    return Status::OK();
  }
  if (k == "sparkline.exec.task_retries") {
    SL_ASSIGN_OR_RETURN(int64_t n, ParseInt(value));
    if (n < 0 || n > 100) {
      return Status::Invalid("sparkline.exec.task_retries must be in [0, 100]");
    }
    config_.cluster.task_retries = static_cast<int>(n);
    return Status::OK();
  }
  if (k == "sparkline.exec.retry_backoff_ms") {
    SL_ASSIGN_OR_RETURN(int64_t n, ParseInt(value));
    if (n < 0) {
      return Status::Invalid("sparkline.exec.retry_backoff_ms must be >= 0");
    }
    config_.cluster.retry_backoff_ms = n;
    return Status::OK();
  }
  if (k == "sparkline.exec.memory_limit_bytes") {
    SL_ASSIGN_OR_RETURN(int64_t n, ParseInt(value));
    if (n < 0) {
      return Status::Invalid(
          "sparkline.exec.memory_limit_bytes must be >= 0 (0 = unlimited)");
    }
    config_.cluster.memory_limit_bytes = n;
    return Status::OK();
  }
  if (k == "sparkline.trace.enabled") {
    SL_ASSIGN_OR_RETURN(config_.cluster.trace_enabled, ParseBool(value));
    return Status::OK();
  }
  if (k == "sparkline.log.slow_query_ms") {
    SL_ASSIGN_OR_RETURN(int64_t n, ParseInt(value));
    if (n < 0) {
      return Status::Invalid(
          "sparkline.log.slow_query_ms must be >= 0 (0 = off)");
    }
    config_.log_slow_query_ms = n;
    return Status::OK();
  }
  if (k == "sparkline.failpoints") {
    // Process-wide, not per-session: failpoints model machine faults, which
    // do not respect session boundaries. Empty value disarms everything.
    return fail::ArmFromString(value);
  }
  if (k == "sparkline.serve.max_concurrent") {
    SL_ASSIGN_OR_RETURN(int64_t n, ParseInt(value));
    if (n < 1 || n > 1024) {
      return Status::Invalid("sparkline.serve.max_concurrent must be in [1, 1024]");
    }
    {
      sl::MutexLock lock(&serve_mu_);
      if (service_ != nullptr) {
        return Status::Invalid(
            "sparkline.serve.max_concurrent cannot change after the query "
            "service has started");
      }
    }
    config_.serve_max_concurrent = static_cast<int>(n);
    return Status::OK();
  }
  return Status::Invalid(StrCat("unknown configuration key '", key, "'"));
}

serve::ResultCache* Session::cache() const {
  sl::MutexLock lock(&serve_mu_);
  if (cache_ == nullptr) {
    serve::ResultCache::Options options;
    options.capacity_bytes = config_.cache_capacity_bytes;
    options.ttl_ms = config_.cache_ttl_ms;
    cache_ = std::make_shared<serve::ResultCache>(options);
    // Maintain (or invalidate) dependents on every catalog write. The
    // listener holds the maintainer weakly so a dead session's cache (and
    // its resident results) can be reclaimed even if the catalog outlives
    // the session.
    maintainer_ =
        std::make_shared<serve::IncrementalMaintainer>(catalog_.get(), cache_);
    maintainer_->set_max_delta_batch(config_.cache_max_delta_batch);
    catalog_->AddWriteListener(
        [weak = std::weak_ptr<serve::IncrementalMaintainer>(maintainer_)](
            const WriteEvent& event) {
          if (auto maintainer = weak.lock()) maintainer->OnWrite(event);
        });
  }
  return cache_.get();
}

serve::IncrementalMaintainer* Session::maintainer() const {
  cache();  // creates the maintainer + registers the write listener
  sl::MutexLock lock(&serve_mu_);
  return maintainer_.get();
}

Result<uint64_t> Session::Subscribe(const std::string& sql,
                                    serve::SubscriptionCallback callback) {
  SL_ASSIGN_OR_RETURN(LogicalPlanPtr plan, ParseSql(sql));
  SL_ASSIGN_OR_RETURN(LogicalPlanPtr analyzed, Analyze(plan));
  std::shared_ptr<const serve::DeltaRecipe> recipe =
      serve::BuildDeltaRecipe(analyzed);
  if (recipe == nullptr) {
    return Status::Invalid(
        "continuous queries require a maintainable skyline: a single table "
        "scanned through Filter/Project steps only, with complete dominance "
        "(COMPLETE declared or no nullable dimension)");
  }
  return maintainer()->Subscribe(std::move(recipe), std::move(callback));
}

Status Session::Unsubscribe(uint64_t id) {
  // Copy the pointer out instead of calling under serve_mu_: Unsubscribe
  // takes the maintainer's subscription lock, and callbacks run user code —
  // holding serve_mu_ across that couples unrelated lock orders.
  std::shared_ptr<serve::IncrementalMaintainer> maintainer;
  {
    sl::MutexLock lock(&serve_mu_);
    maintainer = maintainer_;
  }
  if (maintainer == nullptr) {
    return Status::Invalid("no subscriptions were ever registered");
  }
  maintainer->Unsubscribe(id);
  return Status::OK();
}

serve::QueryService* Session::service() {
  sl::MutexLock lock(&serve_mu_);
  if (service_ == nullptr) {
    serve::QueryService::Options options;
    options.max_concurrent = config_.serve_max_concurrent;
    service_ = std::make_unique<serve::QueryService>(this, options);
  }
  return service_.get();
}

Result<std::future<Result<QueryResult>>> Session::SqlAsync(
    const std::string& sql) {
  SL_ASSIGN_OR_RETURN(serve::QueryHandle handle, service()->Submit(sql));
  return std::move(handle.future);
}

Result<serve::QueryHandle> Session::SqlSubmit(const std::string& sql) {
  return service()->Submit(sql);
}

Result<DataFrame> Session::Sql(const std::string& sql) {
  SL_ASSIGN_OR_RETURN(LogicalPlanPtr plan, ParseSql(sql));
  SL_ASSIGN_OR_RETURN(LogicalPlanPtr analyzed, Analyze(plan));
  return DataFrame(this, std::move(analyzed));
}

Result<DataFrame> Session::Table(const std::string& name) {
  SL_ASSIGN_OR_RETURN(LogicalPlanPtr analyzed,
                      Analyze(UnresolvedRelation::Make(name)));
  return DataFrame(this, std::move(analyzed));
}

Result<DataFrame> Session::CreateDataFrame(const Schema& schema,
                                           std::vector<Row> rows) {
  for (Row& row : rows) {
    SL_ASSIGN_OR_RETURN(row, schema.Conform(std::move(row), "the DataFrame"));
  }
  return DataFrame(this, LocalRelation::Make(schema, std::move(rows)));
}

Result<LogicalPlanPtr> Session::Analyze(const LogicalPlanPtr& plan) const {
  Analyzer analyzer(catalog_);
  return analyzer.Analyze(plan);
}

Result<LogicalPlanPtr> Session::Optimize(const LogicalPlanPtr& analyzed) const {
  Optimizer optimizer(config_.skyline_strategy == SkylineStrategy::kReference);
  return optimizer.Optimize(analyzed);
}

Result<PhysicalPlanPtr> Session::PlanPhysical(
    const LogicalPlanPtr& optimized) const {
  PlannerOptions opts;
  opts.cluster = config_.cluster;
  opts.skyline_strategy = config_.skyline_strategy;
  opts.skyline_kernel = config_.skyline_kernel;
  opts.skyline_partitioning = config_.skyline_partitioning;
  PhysicalPlanner planner(opts);
  return planner.Plan(optimized);
}

namespace {

/// Renders one physical operator for EXPLAIN ANALYZE: the label annotated
/// with the critical-path milliseconds actually spent in it, its output
/// rows, and its matrix-build economy. Multi-stage operators (e.g.
/// "GlobalSkyline [complete] [partial]"/"[merge]") aggregate their
/// sub-stage entries and show the split inline. Entries are consumed from
/// `remaining_ms` so two same-labelled nodes don't double-report (the
/// topmost occurrence gets the charge — per-label metrics can't tell twins
/// apart).
std::string RenderAnalyzeNode(const PhysicalPlan& node, const QueryMetrics& m,
                              std::map<std::string, double>* remaining_ms) {
  const std::string label = node.label();
  const std::string stage_prefix = label + " [";
  auto belongs = [&](const std::string& key) {
    return key == label ||
           key.compare(0, stage_prefix.size(), stage_prefix) == 0;
  };

  double total_ms = 0;
  std::vector<std::pair<std::string, double>> stages;
  for (auto it = remaining_ms->begin(); it != remaining_ms->end();) {
    if (belongs(it->first)) {
      total_ms += it->second;
      stages.emplace_back(it->first, it->second);
      it = remaining_ms->erase(it);
    } else {
      ++it;
    }
  }

  std::string line = StrCat(label, " (", FormatFixed(total_ms, 3), " ms");
  auto rows_it = m.operator_rows.find(label);
  if (rows_it != m.operator_rows.end()) {
    line += StrCat(", rows=", rows_it->second);
  }
  int64_t builds = 0;
  int64_t reuses = 0;
  for (const auto& [key, n] : m.matrix_builds) {
    if (belongs(key)) builds += n;
  }
  for (const auto& [key, n] : m.matrix_reuses) {
    if (belongs(key)) reuses += n;
  }
  if (builds > 0) line += StrCat(", matrix_builds=", builds);
  if (reuses > 0) line += StrCat(", matrix_reuses=", reuses);
  if (label.compare(0, 8, "Exchange") == 0 && m.exchange_rows_shipped > 0) {
    line += StrCat(", shipped_rows=", m.exchange_rows_shipped,
                   ", shipped_bytes=", m.exchange_bytes);
  }
  line += ")";
  if (stages.size() > 1) {
    line += " {";
    for (size_t i = 0; i < stages.size(); ++i) {
      if (i > 0) line += ", ";
      line += StrCat(stages[i].first, "=", FormatFixed(stages[i].second, 3),
                     "ms");
    }
    line += "}";
  }

  for (const auto& child : node.children()) {
    line += "\n";
    line += Indent(RenderAnalyzeNode(*child, m, remaining_ms), 2);
  }
  return line;
}

/// The EXPLAIN ANALYZE report: the annotated physical tree, the per-stage
/// critical-path breakdown (which sums to simulated_ms exactly — every
/// AddStageTime charge lands in both), and the full metrics line.
std::string RenderExplainAnalyze(const PhysicalPlan& root,
                                 const QueryMetrics& m) {
  std::map<std::string, double> remaining = m.operator_ms;
  std::string out = "== Physical Plan (analyzed) ==\n";
  out += RenderAnalyzeNode(root, m, &remaining);
  out += "\n\n== Stage breakdown ==\n";
  double total = 0;
  for (const auto& [label, ms] : m.operator_ms) {
    out += StrCat(label, ": ", FormatFixed(ms, 3), " ms\n");
    total += ms;
  }
  out += StrCat("total (critical path): ", FormatFixed(total, 3),
                " ms = simulated ", FormatFixed(m.simulated_ms, 3), " ms\n");
  out += "\n== Query metrics ==\n";
  out += m.ToString();
  return out;
}

}  // namespace

std::string Session::MetricsText() const {
  return metrics::MetricsRegistry::Global().TextExposition();
}

void Session::MaybeLogSlowQuery(const serve::PlanFingerprint& fp,
                                const QueryMetrics& m,
                                const char* cache_disposition) const {
  const int64_t threshold = config_.log_slow_query_ms;
  if (threshold <= 0 || m.wall_ms < static_cast<double>(threshold)) return;
  static metrics::Counter* slow_total =
      metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_slow_queries_total");
  slow_total->Increment();
  // Versions are read at log time, not query time: the line says which
  // snapshot the tables are at *now*, pairing with the fingerprint key
  // (which pinned the versions the query actually saw).
  std::string tables;
  for (const auto& name : fp.tables) {
    if (!tables.empty()) tables += ",";
    tables += StrCat(name, "@", catalog_->TableVersion(name));
  }
  std::string stages;
  for (const auto& [label, ms] : m.operator_ms) {
    if (!stages.empty()) stages += ",";
    stages += StrCat(label, "=", FormatFixed(ms, 3));
  }
  SL_LOG_WARN << "slow-query key=" << (fp.canonical.empty() ? "-" : fp.Key())
              << " wall_ms=" << FormatFixed(m.wall_ms, 3)
              << " simulated_ms=" << FormatFixed(m.simulated_ms, 3)
              << " threshold_ms=" << threshold << " tables=[" << tables
              << "] stages=[" << stages << "] cache=" << cache_disposition;
}

Result<QueryResult> Session::Execute(const LogicalPlanPtr& plan) const {
  return Execute(plan, nullptr);
}

Result<QueryResult> Session::ExecuteUncached(
    const LogicalPlanPtr& analyzed, const CancellationTokenPtr& cancel,
    PhysicalPlanPtr* physical_out) const {
  SL_ASSIGN_OR_RETURN(LogicalPlanPtr optimized, Optimize(analyzed));
  SL_ASSIGN_OR_RETURN(PhysicalPlanPtr physical, PlanPhysical(optimized));

  ExecContext ctx(config_.cluster);
  if (cancel != nullptr) ctx.set_cancel_token(cancel);
  StopWatch wall;
  SL_ASSIGN_OR_RETURN(PartitionedRelation rel, physical->Execute(&ctx));

  QueryResult result;
  result.attrs = rel.attrs;
  // The plan-root decode: a relation still in columnar-exchange form, or
  // still borrowing its rows (a plain scan), copies out exactly the rows it
  // returns here (timed into decode_ms).
  const bool root_decode = rel.has_batches() || rel.has_views();
  StopWatch decode;
  result.SetRows(std::move(rel).Flatten());
  if (root_decode) ctx.AddDecodeMs(decode.ElapsedMillis());
  const double wall_ms = wall.ElapsedMillis();
  result.metrics = ctx.Finish(wall_ms);
  result.metrics.rows_served = static_cast<int64_t>(result.num_rows());
  if (Trace* trace = ctx.trace()) {
    // Query-level totals live on the root span; only known post-Finish.
    trace->Annotate(nullptr, "dominance_tests",
                    std::to_string(result.metrics.dominance_tests));
    trace->Annotate(nullptr, "peak_memory_bytes",
                    std::to_string(result.metrics.peak_memory_bytes));
    trace->Annotate(nullptr, "rows_served",
                    std::to_string(result.metrics.rows_served));
  }
  result.trace = ctx.TakeTrace(wall_ms);
  if (physical_out != nullptr) *physical_out = std::move(physical);
  return result;
}

Result<QueryResult> Session::Execute(const LogicalPlanPtr& plan,
                                     const CancellationTokenPtr& cancel) const {
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled("query cancelled before execution");
  }
  SL_ASSIGN_OR_RETURN(LogicalPlanPtr analyzed, Analyze(plan));

  if (analyzed->kind() == PlanKind::kExplainAnalyze) {
    // EXPLAIN ANALYZE: run the wrapped statement for real — never from the
    // cache, the point is to measure — then return the annotated physical
    // tree as the single result row. The child's metrics (and trace) ride
    // along so callers can reconcile the rendered numbers programmatically.
    const auto& node = static_cast<const ExplainAnalyzeNode&>(*analyzed);
    PhysicalPlanPtr physical;
    SL_ASSIGN_OR_RETURN(QueryResult executed,
                        ExecuteUncached(node.child(), cancel, &physical));
    MaybeLogSlowQuery(serve::FingerprintPlan(node.child()), executed.metrics,
                      "bypass");
    QueryResult result;
    result.attrs = analyzed->output();
    std::vector<Row> rows;
    rows.push_back(
        Row{Value::String(RenderExplainAnalyze(*physical, executed.metrics))});
    result.SetRows(std::move(rows));
    result.metrics = executed.metrics;
    result.trace = executed.trace;
    return result;
  }

  // Consult the fingerprinted result cache (serve layer). The fingerprint
  // is computed post-analysis so lexically different but semantically
  // identical queries share an entry; table versions inside the hash keep
  // stale hits impossible.
  serve::PlanFingerprint fp;
  double lookup_ms = 0;
  bool use_cache = config_.cache_enabled;
  if (use_cache) {
    StopWatch lookup;
    fp = serve::FingerprintPlan(analyzed);
    use_cache = fp.cacheable;
    if (use_cache) {
      std::shared_ptr<const serve::CachedResult> hit = cache()->Lookup(fp);
      lookup_ms = lookup.ElapsedMillis();
      if (hit != nullptr) {
        QueryResult result;
        result.attrs = hit->attrs;
        result.SetRows(hit->rows);  // shared snapshot, no copy
        result.metrics.cache_hit = true;
        result.metrics.cache_delta_maintained = hit->delta_count;
        result.metrics.cache_lookup_ms = lookup_ms;
        result.metrics.wall_ms = lookup_ms;
        result.metrics.simulated_ms = lookup_ms;
        result.metrics.operator_ms["[cache-hit]"] = lookup_ms;
        result.metrics.rows_served =
            static_cast<int64_t>(hit->rows->size());
        result.metrics.bytes_served = hit->bytes;
        MaybeLogSlowQuery(fp, result.metrics, "hit");
        return result;
      }
    }
    // Uncacheable plans report cache_lookup_ms = 0: no probe happened.
  } else if (config_.log_slow_query_ms > 0) {
    // The slow-query line keys on the fingerprint even with the cache off;
    // only worth computing when the log is armed.
    fp = serve::FingerprintPlan(analyzed);
  }

  SL_ASSIGN_OR_RETURN(QueryResult result,
                      ExecuteUncached(analyzed, cancel, nullptr));
  result.metrics.cache_lookup_ms = lookup_ms;
  // The byte estimate walks every result cell; only pay for it when the
  // cache needs it for budget charging.
  if (config_.cache_enabled) {
    result.metrics.bytes_served = EstimatedRowsBytes(result.rows());
  }
  if (use_cache) {
    auto entry = std::make_shared<serve::CachedResult>();
    entry->attrs = result.attrs;
    entry->rows = result.shared_rows();
    entry->bytes = result.metrics.bytes_served;
    entry->fingerprint = fp;
    // Attach the maintenance recipe when the plan shape supports it, so the
    // write listener can delta-advance this entry instead of dropping it.
    uint64_t snapshot_version = 0;
    entry->recipe = serve::BuildDeltaRecipe(analyzed, &snapshot_version);
    entry->table_version = snapshot_version;
    // Caching is an optimization, never a correctness dependency: a failed
    // (or throwing) insert degrades to uncached serving of this result.
    Status cached = Status::OK();
    try {
      cached = cache()->Insert(fp, std::move(entry));
    } catch (const std::exception& e) {
      cached = Status::Internal(e.what());
    }
    if (!cached.ok()) {
      SL_LOG_WARN << "result-cache insert failed, serving uncached: "
                  << cached.ToString();
    }
  }
  MaybeLogSlowQuery(
      fp, result.metrics,
      use_cache ? "miss" : (config_.cache_enabled ? "uncacheable" : "off"));
  return result;
}

Result<ExplainInfo> Session::Explain(const LogicalPlanPtr& plan) const {
  SL_ASSIGN_OR_RETURN(LogicalPlanPtr analyzed, Analyze(plan));
  SL_ASSIGN_OR_RETURN(LogicalPlanPtr optimized, Optimize(analyzed));
  SL_ASSIGN_OR_RETURN(PhysicalPlanPtr physical, PlanPhysical(optimized));
  ExplainInfo info;
  info.analyzed = analyzed->TreeString();
  info.optimized = optimized->TreeString();
  info.physical = physical->TreeString();
  return info;
}

}  // namespace sparkline
