// sl_bench: the repository benchmark. One process sets up one workload,
// runs it in a closed loop from a single client thread for a fixed window,
// checks every answer, and prints one JSON object with the raw samples
// (run.py pools them across processes and prints the metrics).
//
//   sl_bench --workload=NAME [--seed=N] [--window-s=S] [--verify]
//            [--trace] [--trace-out=PATH]
//   sl_bench --smoke      all workloads, small tables, short windows,
//                         traced and verified (a ctest)
//
// Every operation goes through the public API: Session::Sql + Collect for
// reads, Catalog::InsertInto + DrainWrites for writes. With --trace, every
// second operation instead calls the entry points that Session::Sql and
// Session::ExecuteUncached call, in the same order, and records a span
// around each call; the other half stays untraced so the tracing overhead
// is measured in the same process.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/dataframe.h"
#include "api/session.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "datagen/datagen.h"
#include "sql/parser.h"
#include "verify.h"

namespace sparkline {
namespace slbench {
namespace {

using skyline::BoundDimension;
using skyline::NullSemantics;

const std::vector<std::string> kWorkloads = {
    "paper_complete", "paper_incomplete", "points_anticorr",
    "points_clustered", "dashboard_rw"};

/// The skyline dimensions of paper Tables 1 (store_sales) and 2 (airbnb),
/// in the order the paper adds them. Kept here, not shared with bench/, so
/// the benchmark's queries change only when this file does.
const std::vector<std::string> kStoreSalesDims = {
    "ss_quantity MAX",         "ss_wholesale_cost MIN",
    "ss_list_price MIN",       "ss_sales_price MIN",
    "ss_ext_discount_amt MAX", "ss_ext_sales_price MIN"};
const std::vector<std::string> kAirbnbDims = {
    "price MIN",             "accommodates MAX",
    "bedrooms MAX",          "beds MAX",
    "number_of_reviews MAX", "review_scores_rating MAX"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double window_s = 2.5;
  bool verify = false;
  bool trace = false;
  std::string trace_out;
  bool smoke = false;
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "sl_bench: %s\n", message.c_str());
  std::exit(3);
}

/// Independent generator seeds per table, all derived from --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t NowNanos() { return StopWatch::NowNanos(); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads -------------------------------------------------------------

/// One distinct query, as SQL for the engine and as the verifier's view of
/// the same question: which rows it ranges over and how they compare.
struct Query {
  std::string sql;
  std::string table;
  std::vector<BoundDimension> dims;
  NullSemantics nulls = NullSemantics::kComplete;
  /// The WHERE clause as the verifier evaluates it: rows whose column
  /// `filter_ordinal` is below `filter_below`; -1 means no WHERE clause.
  int filter_ordinal = -1;
  double filter_below = 0;
};

struct Workload {
  std::vector<TablePtr> tables;
  std::vector<Query> queries;
  bool cache = false;
  /// Reads pick queries Zipf(1.1)-skewed; otherwise in a fixed rotation.
  bool zipf = false;
  /// Percentage of operations that insert 1-4 rows into store_sales.
  int write_pct = 0;
  std::vector<Row> insert_pool;
};

/// `dims` are "column GOAL" strings (kStoreSalesDims, kAirbnbDims); the
/// query uses the first `n`. A non-empty `filter_col` adds
/// "WHERE filter_col < filter_below".
Query MakeQuery(const Table& table, const std::vector<std::string>& dims,
                size_t n, bool complete, const std::string& filter_col = "",
                double filter_below = 0) {
  Query q;
  q.table = table.name();
  bool nullable = false;
  std::vector<std::string> items;
  for (size_t i = 0; i < n; ++i) {
    const auto parts = Split(dims[i], ' ');
    const int ordinal = table.schema().IndexOf(parts[0]);
    SL_CHECK(ordinal >= 0) << "no column " << parts[0] << " in " << q.table;
    const SkylineGoal goal = EqualsIgnoreCase(parts[1], "MIN")
                                 ? SkylineGoal::kMin
                                 : SkylineGoal::kMax;
    q.dims.push_back({static_cast<size_t>(ordinal), goal});
    nullable |= table.schema().field(static_cast<size_t>(ordinal)).nullable;
    items.push_back(dims[i]);
  }
  q.nulls = complete || !nullable ? NullSemantics::kComplete
                                  : NullSemantics::kIncomplete;
  q.sql = StrCat("SELECT * FROM ", q.table);
  if (!filter_col.empty()) {
    q.filter_ordinal = table.schema().IndexOf(filter_col);
    q.filter_below = filter_below;
    q.sql += StrCat(" WHERE ", filter_col, " < ", FormatFixed(filter_below, 0));
  }
  q.sql += StrCat(" SKYLINE OF ", complete ? "COMPLETE " : "",
                  JoinStrings(items, ", "));
  return q;
}

/// Re-ingests `src` sorted on column `col`, so contiguous scan partitions
/// own disjoint value ranges (the layout zone maps are built for).
TablePtr SortedByColumn(const Table& src, const std::string& name,
                        size_t col) {
  std::vector<Row> rows = src.rows();
  std::stable_sort(rows.begin(), rows.end(), [col](const Row& a, const Row& b) {
    return a[col].ToDouble() < b[col].ToDouble();
  });
  auto table = std::make_shared<Table>(name, src.schema());
  table->constraints().primary_key = src.constraints().primary_key;
  table->Reserve(rows.size());
  for (auto& row : rows) table->AppendRowUnchecked(std::move(row));
  return table;
}

TablePtr StoreSales(uint64_t seed, size_t rows, bool incomplete) {
  datagen::StoreSalesOptions opts;
  opts.num_rows = rows;
  opts.seed = SubSeed(seed, 1);
  opts.incomplete = incomplete;
  return datagen::GenerateStoreSales(opts);
}

TablePtr Airbnb(uint64_t seed, size_t rows) {
  datagen::AirbnbOptions opts;
  opts.table_name = "airbnb";
  opts.num_rows = rows;
  opts.seed = SubSeed(seed, 2);
  return datagen::GenerateAirbnb(opts);
}

/// The paper's headline queries (Figs 3-7): SKYLINE OF COMPLETE over the
/// first 2..6 dimensions of paper Tables 1 and 2.
void AddPaperQueries(const Table& store, const Table& airbnb,
                     const std::string& store_filter,
                     const std::string& airbnb_filter, Workload* w) {
  for (size_t d = 2; d <= 6; ++d) {
    w->queries.push_back(
        MakeQuery(store, kStoreSalesDims, d, true, store_filter, 1e6));
  }
  for (size_t d = 2; d <= 6; ++d) {
    w->queries.push_back(
        MakeQuery(airbnb, kAirbnbDims, d, true, airbnb_filter, 1e6));
  }
}

Workload MakeWorkload(const std::string& name, uint64_t seed, double scale) {
  auto rows = [scale](size_t n) {
    return std::max<size_t>(200, static_cast<size_t>(n * scale));
  };
  Workload w;
  if (name == "paper_complete" || name == "dashboard_rw") {
    TablePtr store = StoreSales(seed, rows(50000), false);
    TablePtr airbnb = Airbnb(seed, rows(50000));
    w.tables = {store, airbnb};
    AddPaperQueries(*store, *airbnb, "", "", &w);
    if (name == "dashboard_rw") {
      // Ten more fingerprints whose filters keep every row, so the cache
      // holds 20 entries of paper-sized skylines.
      AddPaperQueries(*store, *airbnb, "ss_quantity", "price", &w);
      w.cache = true;
      w.zipf = true;
      w.write_pct = 10;
      w.insert_pool = StoreSales(SubSeed(seed, 5), 4096, false)->rows();
    }
  } else if (name == "paper_incomplete") {
    TablePtr store = StoreSales(seed, rows(50000), true);
    w.tables = {store};
    for (size_t d = 2; d <= 6; ++d) {
      w.queries.push_back(MakeQuery(*store, kStoreSalesDims, d, false));
    }
  } else if (name == "points_anticorr" || name == "points_clustered") {
    const bool anti = name == "points_anticorr";
    TablePtr points = datagen::GeneratePoints(
        anti ? "points" : "points_src", rows(anti ? 20000 : 100000), 4,
        anti ? datagen::PointDistribution::kAntiCorrelated
             : datagen::PointDistribution::kCorrelated,
        SubSeed(seed, 3));
    if (!anti) points = SortedByColumn(*points, "points", 1);
    w.tables = {points};
    w.queries.push_back(MakeQuery(
        *points, {"d0 MIN", "d1 MIN", "d2 MIN", "d3 MIN"}, 4, false));
  } else {
    Fail(StrCat("unknown workload '", name, "' (one of ",
                JoinStrings(kWorkloads, ", "), ")"));
  }
  return w;
}

// --- spans -----------------------------------------------------------------

/// Spans recorded by the benchmark around its calls into the engine. Kept
/// in memory; written as Chrome trace events when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;  ///< index into spans(), -1 for an operation's root
    int64_t op;  ///< operation (query or write) id
  };

  int Open(const char* name, int parent, int64_t op) {
    spans_.push_back({name, NowNanos(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNanos(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus direct children) of every span of the
  /// operation whose root is `root`; spans of one operation are contiguous.
  std::map<std::string, double> SelfMs(int root) const {
    std::map<std::string, double> self;
    std::vector<double> ms(spans_.size() - static_cast<size_t>(root), 0);
    for (size_t i = static_cast<size_t>(root); i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      ms[i - root] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      if (s.parent >= root) {
        ms[static_cast<size_t>(s.parent - root)] -=
            static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    for (size_t i = 0; i < ms.size(); ++i) {
      self[spans_[static_cast<size_t>(root) + i].name] += ms[i];
    }
    return self;
  }

  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                   "\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.op), s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// --- the run -----------------------------------------------------------------

/// Per-query metric values taken from QueryMetrics, keyed by layer-metric
/// name. Stage times group operator_ms labels by physical stage.
std::map<std::string, double> MetricsLayers(const QueryMetrics& m,
                                            const ClusterConfig& cluster) {
  std::map<std::string, double> out = {
      {"exec.stage.scan_ms", 0},        {"exec.stage.local_ms", 0},
      {"exec.stage.bcast_ms", 0},       {"exec.stage.exchange_ms", 0},
      {"exec.stage.partial_ms", 0},     {"exec.stage.merge_ms", 0},
      {"exec.stage.incomplete_ms", 0},  {"exec.stage.other_ms", 0}};
  for (const auto& [label, ms] : m.operator_ms) {
    auto starts = [&label](const char* prefix) {
      return label.rfind(prefix, 0) == 0;
    };
    if (label == "[cache-hit]") continue;  // serve.probe_ms
    const char* stage = "exec.stage.other_ms";
    if (starts("Scan")) {
      stage = "exec.stage.scan_ms";
    } else if (starts("LocalSkyline")) {
      stage = "exec.stage.local_ms";
    } else if (starts("BroadcastFilter")) {
      stage = "exec.stage.bcast_ms";
    } else if (starts("Exchange")) {
      stage = "exec.stage.exchange_ms";
    } else if (starts("GlobalSkyline [incomplete]")) {
      stage = "exec.stage.incomplete_ms";
    } else if (label == "GlobalSkyline [complete] [partial]") {
      stage = "exec.stage.partial_ms";
    } else if (label == "GlobalSkyline [complete] [merge]" ||
               label == "GlobalSkyline [complete]") {
      stage = "exec.stage.merge_ms";
    }
    out[stage] += ms;
  }
  const double shipped = static_cast<double>(m.exchange_rows_shipped);
  out["skyline.dominance_tests"] = static_cast<double>(m.dominance_tests);
  out["skyline.merge_dominance_tests"] =
      static_cast<double>(m.merge_dominance_tests);
  out["skyline.sfs_rows_skipped"] = static_cast<double>(m.sfs_rows_skipped);
  out["exec.rows_shipped"] = shipped;
  out["exec.bytes_shipped"] = static_cast<double>(m.exchange_bytes);
  out["exec.ship_useful_frac"] =
      shipped > 0 ? static_cast<double>(m.rows_served) / shipped : 0;
  out["exec.partitions_skipped"] = static_cast<double>(m.partitions_skipped);
  out["exec.rows_pruned_pre_gather"] =
      static_cast<double>(m.rows_pruned_pre_gather);
  // peak_memory_bytes adds a fixed simulated footprint per executor; only
  // the tracked (materialized) part depends on the query.
  const int64_t tracked =
      m.cache_hit ? 0
                  : m.peak_memory_bytes -
                        static_cast<int64_t>(cluster.num_executors) *
                            cluster.executor_overhead_bytes;
  out["exec.peak_tracked_mb"] = static_cast<double>(tracked) / (1 << 20);
  out["serve.probe_ms"] = m.cache_lookup_ms;
  return out;
}

/// The row count and multiset hash every repetition of a query must match.
struct Answer {
  std::shared_ptr<const std::vector<Row>> rows;  ///< kept alive on purpose
  size_t count = 0;
  uint64_t hash = 0;
  bool valid = false;
};

class Runner {
 public:
  Runner(const Options& opts, int64_t process_start_ns)
      : opts_(opts), start_ns_(process_start_ns) {}

  void Run() {
    workload_ = MakeWorkload(opts_.workload, opts_.seed,
                             opts_.smoke ? 0.05 : 1.0);
    executors_ = std::max(
        1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
    SL_CHECK_OK(session_.SetConf("sparkline.executors",
                                 std::to_string(executors_)));
    SL_CHECK_OK(session_.SetConf("sparkline.timeout_ms", "10000"));
    SL_CHECK_OK(session_.SetConf("sparkline.cache.enabled",
                                 workload_.cache ? "true" : "false"));
    for (const TablePtr& t : workload_.tables) {
      SL_CHECK_OK(session_.catalog()->RegisterTable(t));
    }
    answers_.resize(workload_.queries.size());
    // Warm-up: each distinct query once (fills the cache on dashboard_rw)
    // and pins the answer every timed repetition must match.
    for (size_t q = 0; q < workload_.queries.size(); ++q) {
      if (!PlainRead(q, /*record=*/false)) {
        Fail(StrCat("warm-up failed for ", workload_.queries[q].sql));
      }
    }
    setup_s_ = static_cast<double>(NowNanos() - start_ns_) / 1e9;

    TimedWindow();
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    if (opts_.verify) Verify();
    if (opts_.trace && !opts_.trace_out.empty() &&
        !spans_.WriteChromeJson(opts_.trace_out)) {
      Fail(StrCat("cannot write ", opts_.trace_out));
    }
  }

  std::string ToJson() const {
    auto array = [](const std::vector<double>& v) {
      std::string s = "[";
      for (size_t i = 0; i < v.size(); ++i) {
        s += StrCat(i == 0 ? "" : ",", Num(v[i]));
      }
      return s + "]";
    };
    std::string json = StrCat(
        "{\"workload\":\"", opts_.workload, "\",\"seed\":", opts_.seed,
        ",\"executors\":", executors_, ",\"setup_s\":", Num(setup_s_),
        ",\"window_s\":", Num(window_s_),
        ",\"attempted\":", attempted_, ",\"failed\":", failed_,
        ",\"reads\":", reads_, ",\"hits\":", hits_,
        ",\"delta_hits\":", delta_hits_,
        ",\"verified\":", opts_.verify ? "true" : "false",
        ",\"peak_rss_mb\":", Num(peak_rss_mb_),
        ",\"query_ms\":", array(query_ms_), ",\"sim_ms\":", array(sim_ms_),
        ",\"write_ms\":", array(write_ms_));
    if (opts_.trace) {
      json += ",\"layers\":{";
      bool first = true;
      for (const auto& [name, value] : TraceLayers()) {
        json += StrCat(first ? "" : ",", "\"", name, "\":", Num(value));
        first = false;
      }
      json += "}";
    }
    return json + "}";
  }

 private:
  static std::string Num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  void TimedWindow() {
    Rng rng(SubSeed(opts_.seed, 6));
    const ZipfDistribution zipf(
        static_cast<int64_t>(workload_.queries.size()), 1.1);
    const int64_t start_ns = NowNanos();
    const int64_t end_ns =
        start_ns + static_cast<int64_t>(opts_.window_s * 1e9);
    size_t rotation = 0;
    for (int64_t op = 0; NowNanos() < end_ns; ++op) {
      const bool traced = opts_.trace && op % 2 == 1;
      if (workload_.write_pct > 0 &&
          rng.UniformInt(0, 99) < workload_.write_pct) {
        Write(rng.UniformInt(1, 4), traced, op);
      } else {
        const size_t q =
            workload_.zipf
                ? static_cast<size_t>(zipf.Sample(&rng) - 1)
                : rotation++ % workload_.queries.size();
        if (traced) {
          TracedRead(q, op);
        } else {
          PlainRead(q, /*record=*/true);
        }
      }
    }
    // The last operation may end after the deadline; it still counts.
    window_s_ = static_cast<double>(NowNanos() - start_ns) / 1e9;
  }

  /// Sql + Collect. Returns false when the engine returned an error.
  bool PlainRead(size_t q, bool record) {
    const Query& query = workload_.queries[q];
    const int64_t t0 = NowNanos();
    auto df = session_.Sql(query.sql);
    Result<QueryResult> result =
        df.ok() ? df->Collect() : Result<QueryResult>(df.status());
    const double ms = static_cast<double>(NowNanos() - t0) / 1e6;
    if (record) ++attempted_;
    if (!result.ok()) {
      ReportFailure(query, result.status());
      return false;
    }
    if (record) {
      ++reads_;
      query_ms_.push_back(ms);
      sim_ms_.push_back(result->metrics.simulated_ms);
      RecordMetrics(result->metrics);
    }
    Check(q, *result);
    return true;
  }

  /// The same read, one span per engine entry point. Cache-off workloads
  /// follow Session::Sql and Session::ExecuteUncached call by call (see
  /// TracedPipeline); dashboard_rw keeps Session::Execute whole so the
  /// cache is consulted.
  void TracedRead(size_t q, int64_t op) {
    const Query& query = workload_.queries[q];
    ++attempted_;
    const int root = spans_.Open("query", -1, op);
    QueryResult result;
    Status status = TracedPipeline(query, root, op, &result);
    spans_.Close(root);
    if (!status.ok()) {
      ReportFailure(query, status);
      return;
    }
    ++reads_;
    const SpanLog::Span& r = spans_.spans()[static_cast<size_t>(root)];
    traced_query_ms_.push_back(static_cast<double>(r.end_ns - r.start_ns) /
                               1e6);
    const auto self = spans_.SelfMs(root);
    for (const auto& [name, ms] : self) {
      if (name == "query") {
        unattributed_pct_.push_back(100.0 * ms / traced_query_ms_.back());
      } else {
        span_self_ms_[name + "_ms"].push_back(ms);
      }
    }
    RecordMetrics(result.metrics);
    Check(q, result);
  }

  /// From Optimize on, this is a copy of Session::ExecuteUncached
  /// (src/api/session.cc) with a span around each call, and must track it:
  /// a change there does not show in these spans until it is copied here.
  /// The engine's own trace is left untaken; it is not a layer here.
  Status TracedPipeline(const Query& query, int root, int64_t op,
                        QueryResult* out) {
    // Runs `call` inside a span named `name` and moves its value to `*value`.
    auto step = [&](const char* name, auto call, auto* value) -> Status {
      const int s = spans_.Open(name, root, op);
      auto result = call();
      spans_.Close(s);
      SL_RETURN_NOT_OK(result.status());
      *value = std::move(result).MoveValue();
      return Status::OK();
    };
    LogicalPlanPtr parsed, analyzed;
    SL_RETURN_NOT_OK(step(
        "sql.parse", [&] { return ParseSql(query.sql); }, &parsed));
    SL_RETURN_NOT_OK(step(
        "analysis.analyze", [&] { return session_.Analyze(parsed); },
        &analyzed));
    if (workload_.cache) {
      return step(
          "serve.execute", [&] { return session_.Execute(analyzed); }, out);
    }

    LogicalPlanPtr reanalyzed, optimized;
    PhysicalPlanPtr physical;
    SL_RETURN_NOT_OK(step(
        "analysis.reanalyze", [&] { return session_.Analyze(analyzed); },
        &reanalyzed));
    SL_RETURN_NOT_OK(step(
        "optimizer.optimize", [&] { return session_.Optimize(reanalyzed); },
        &optimized));
    SL_RETURN_NOT_OK(step(
        "exec.plan", [&] { return session_.PlanPhysical(optimized); },
        &physical));

    int s = spans_.Open("exec.context", root, op);
    auto ctx = std::make_unique<ExecContext>(session_.config().cluster);
    spans_.Close(s);
    StopWatch wall;
    std::optional<PartitionedRelation> rel;
    Status status = step(
        "exec.execute", [&] { return physical->Execute(ctx.get()); }, &rel);
    if (status.ok()) {
      const SpanLog::Span& execute = spans_.spans().back();
      const double execute_ms =
          static_cast<double>(execute.end_ns - execute.start_ns) / 1e6;
      s = spans_.Open("exec.decode", root, op);
      out->attrs = rel->attrs;
      const bool root_decode = rel->has_batches();
      StopWatch decode;
      out->SetRows(std::move(*rel).Flatten());
      if (root_decode) ctx->AddDecodeMs(decode.ElapsedMillis());
      spans_.Close(s);

      s = spans_.Open("exec.finish", root, op);
      out->metrics = ctx->Finish(wall.ElapsedMillis());
      out->metrics.rows_served = static_cast<int64_t>(out->num_rows());
      spans_.Close(s);
      model_gap_ms_.push_back(execute_ms - out->metrics.simulated_ms);
    }

    // The relation's memory charge points into the context, so it goes
    // first; then the context, which joins the executor threads.
    s = spans_.Open("exec.teardown", root, op);
    rel.reset();
    ctx.reset();
    physical.reset();
    optimized.reset();
    reanalyzed.reset();
    spans_.Close(s);
    return status;
  }

  void Write(int64_t n, bool traced, int64_t op) {
    std::vector<Row> batch;
    for (int64_t i = 0; i < n; ++i) {
      batch.push_back(workload_.insert_pool[next_insert_++ %
                                            workload_.insert_pool.size()]);
      // Unique ticket numbers keep every inserted row distinct.
      batch.back()[1] = Value::Int64(next_ticket_++);
    }
    Catalog* catalog = session_.catalog();
    ++attempted_;
    const int64_t t0 = NowNanos();
    Status status;
    if (traced) {
      const int root = spans_.Open("write", -1, op);
      int s = spans_.Open("catalog.insert", root, op);
      status = catalog->InsertInto("store_sales", batch);
      spans_.Close(s);
      s = spans_.Open("serve.maintain", root, op);
      catalog->DrainWrites();
      spans_.Close(s);
      spans_.Close(root);
      for (const auto& [name, ms] : spans_.SelfMs(root)) {
        if (name != "write") span_self_ms_[name + "_ms"].push_back(ms);
      }
    } else {
      status = catalog->InsertInto("store_sales", batch);
      catalog->DrainWrites();
      write_ms_.push_back(static_cast<double>(NowNanos() - t0) / 1e6);
    }
    if (!status.ok()) {
      ++failed_;
      std::fprintf(stderr, "insert failed: %s\n", status.ToString().c_str());
      return;
    }
    // Answers over store_sales legitimately change; the next read pins them
    // again. Final answers are checked against a fresh session in Verify.
    for (size_t q = 0; q < workload_.queries.size(); ++q) {
      if (workload_.queries[q].table == "store_sales") {
        answers_[q].valid = false;
      }
    }
  }

  void ReportFailure(const Query& query, const Status& status) {
    ++failed_;
    if (failed_ <= 5) {
      std::fprintf(stderr, "query failed: %s\n  %s\n",
                   status.ToString().c_str(), query.sql.c_str());
    }
  }

  void RecordMetrics(const QueryMetrics& m) {
    if (m.cache_hit) {
      ++hits_;
      if (m.cache_delta_maintained > 0) ++delta_hits_;
    }
    if (!opts_.trace) return;
    for (const auto& [name, value] :
         MetricsLayers(m, session_.config().cluster)) {
      metric_layers_[name].push_back(value);
    }
  }

  /// Every repetition must return the rows the first one returned. A cache
  /// hit that aliases the pinned snapshot is the same answer by identity.
  void Check(size_t q, const QueryResult& result) {
    Answer& ref = answers_[q];
    if (ref.valid && ref.rows == result.shared_rows()) return;
    const size_t count = result.num_rows();
    const uint64_t hash = MultisetHash(result.rows());
    if (ref.valid && (count != ref.count || hash != ref.hash)) {
      Fail(StrCat("wrong answer: ", workload_.queries[q].sql, " returned ",
                  count, " rows, an earlier repetition returned ", ref.count,
                  count == ref.count ? " (same count, different rows)" : ""));
    }
    ref = {result.shared_rows(), count, hash, true};
  }

  /// Rows the query ranges over, as the verifier sees them.
  std::vector<Row> Input(const Query& q) {
    TablePtr table = session_.catalog()->GetTable(q.table).MoveValue();
    if (q.filter_ordinal < 0) return table->rows();
    std::vector<Row> rows;
    for (const Row& row : table->rows()) {
      const Value& v = row[static_cast<size_t>(q.filter_ordinal)];
      if (!v.is_null() && v.ToDouble() < q.filter_below) rows.push_back(row);
    }
    return rows;
  }

  void Verify() {
    std::unique_ptr<Session> oracle;
    if (workload_.cache) {
      // Cached answers (maintained through every insert) must equal a fresh
      // cache-off session over deep copies of the final tables.
      oracle = std::make_unique<Session>();
      SL_CHECK_OK(oracle->SetConf("sparkline.executors",
                                  std::to_string(executors_)));
      for (const TablePtr& t : workload_.tables) {
        TablePtr live = session_.catalog()->GetTable(t->name()).MoveValue();
        auto copy = std::make_shared<Table>(live->name(), live->schema());
        for (const Row& row : live->rows()) copy->AppendRowUnchecked(row);
        SL_CHECK_OK(oracle->catalog()->RegisterTable(copy));
      }
    }
    for (size_t q = 0; q < workload_.queries.size(); ++q) {
      const Query& query = workload_.queries[q];
      if (oracle != nullptr) {
        if (!PlainRead(q, /*record=*/false)) Fail("final read failed");
        auto fresh = oracle->Sql(query.sql);
        SL_CHECK(fresh.ok()) << fresh.status().ToString();
        auto fresh_result = fresh->Collect();
        SL_CHECK(fresh_result.ok()) << fresh_result.status().ToString();
        if (fresh_result->num_rows() != answers_[q].count ||
            MultisetHash(fresh_result->rows()) != answers_[q].hash) {
          Fail(StrCat("cached answer differs from a fresh session: ",
                      query.sql));
        }
      }
      const std::string error = VerifySkyline(Input(query), *answers_[q].rows,
                                              query.dims, query.nulls);
      if (!error.empty()) {
        Fail(StrCat("wrong answer: ", query.sql, ": ", error));
      }
    }
  }

  std::map<std::string, double> TraceLayers() const {
    std::map<std::string, double> out;
    for (const auto& [name, v] : span_self_ms_) out[name] = Median(v);
    for (const auto& [name, v] : metric_layers_) out[name] = Median(v);
    if (!model_gap_ms_.empty()) {
      out["exec.model_gap_ms"] = Median(model_gap_ms_);
    }
    if (!unattributed_pct_.empty()) {
      out["bench.trace_unattributed_pct"] = Median(unattributed_pct_);
    }
    const double plain = Median(query_ms_);
    if (plain > 0 && !traced_query_ms_.empty()) {
      out["bench.trace_overhead_pct"] =
          100.0 * (Median(traced_query_ms_) / plain - 1.0);
    }
    return out;
  }

  const Options opts_;
  const int64_t start_ns_;
  Session session_;
  Workload workload_;
  int executors_ = 1;
  std::vector<Answer> answers_;
  size_t next_insert_ = 0;
  int64_t next_ticket_ = 200000000;

  double setup_s_ = 0;
  double window_s_ = 0;
  double peak_rss_mb_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t reads_ = 0;
  int64_t hits_ = 0;
  int64_t delta_hits_ = 0;
  std::vector<double> query_ms_;
  std::vector<double> sim_ms_;
  std::vector<double> write_ms_;

  SpanLog spans_;
  std::vector<double> traced_query_ms_;
  std::vector<double> unattributed_pct_;
  std::vector<double> model_gap_ms_;
  std::map<std::string, std::vector<double>> span_self_ms_;
  std::map<std::string, std::vector<double>> metric_layers_;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int Main(int argc, char** argv) {
  const int64_t start_ns = NowNanos();
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--workload", &value)) {
      opts.workload = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--window-s", &value)) {
      opts.window_s = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--trace-out", &value)) {
      opts.trace_out = value;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opts.trace = true;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      opts.verify = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --workload=NAME [--seed=N] [--window-s=S] "
                   "[--verify] [--trace] [--trace-out=PATH] | --smoke\n",
                   argv[0]);
      return 2;
    }
  }
  if (opts.smoke) {
    for (const std::string& name : kWorkloads) {
      Options smoke = opts;
      smoke.workload = name;
      smoke.window_s = 0.3;
      smoke.verify = smoke.trace = true;
      Runner runner(smoke, NowNanos());
      runner.Run();
      std::printf("smoke %s ok\n", name.c_str());
    }
    return 0;
  }
  if (opts.workload.empty()) {
    std::fprintf(stderr, "--workload is required (or --smoke)\n");
    return 2;
  }
  Runner runner(opts, start_ns);
  runner.Run();
  std::printf("%s\n", runner.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace slbench
}  // namespace sparkline

int main(int argc, char** argv) { return sparkline::slbench::Main(argc, argv); }
