#include "serve/incremental.h"

#include <algorithm>
#include <map>
#include <utility>

#include "api/query_result.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "expr/evaluator.h"
#include "skyline/algorithms.h"
#include "skyline/columnar.h"
#include "types/value.h"

namespace sparkline {
namespace serve {

namespace {

/// Deterministic, row-local expressions only: everything a Filter/Project
/// between scan and skyline may evaluate against a single inserted row.
/// Subqueries, aggregates and unresolved nodes disqualify the plan (they
/// read state beyond the row, so replaying them against a batch would
/// diverge from a fresh execution).
bool WhitelistedExpr(const ExprPtr& e) {
  if (e == nullptr || !e->resolved()) return false;
  switch (e->kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kAttributeRef:
    case ExprKind::kBoundReference:
    case ExprKind::kAlias:
    case ExprKind::kBinary:
    case ExprKind::kUnary:
    case ExprKind::kCast:
    case ExprKind::kFunctionCall:
    case ExprKind::kSkylineDimension:
      break;
    default:
      return false;
  }
  for (const ExprPtr& child : e->children()) {
    if (!WhitelistedExpr(child)) return false;
  }
  return true;
}

skyline::SkylineOptions RecipeOptions(const DeltaRecipe& recipe) {
  skyline::SkylineOptions options;
  options.distinct = recipe.distinct;
  // Maintainable recipes are complete-semantics by construction (COMPLETE
  // declared, or no nullable dimension) — the planner's own strategy rule.
  options.nulls = skyline::NullSemantics::kComplete;
  return options;
}

}  // namespace

std::shared_ptr<const DeltaRecipe> BuildDeltaRecipe(
    const LogicalPlanPtr& analyzed, uint64_t* snapshot_version) {
  if (analyzed == nullptr || analyzed->kind() != PlanKind::kSkyline) {
    return nullptr;
  }
  const auto& sky = static_cast<const SkylineNode&>(*analyzed);

  // Planner strategy rule (exec/planner.cc): complete semantics iff COMPLETE
  // was declared or no dimension is nullable. Incomplete dominance is not
  // transitive, so the cached skyline is not a sufficient witness set.
  bool any_nullable = false;
  for (const ExprPtr& d : sky.dimensions()) {
    if (d == nullptr || d->kind() != ExprKind::kSkylineDimension ||
        !WhitelistedExpr(d)) {
      return nullptr;
    }
    const auto& dim = static_cast<const SkylineDimension&>(*d);
    if (dim.child() == nullptr || dim.child()->nullable()) any_nullable = true;
  }
  if (!sky.complete() && any_nullable) return nullptr;

  // Only Scan -> Filter*/Project* -> Skyline chains map inserted table rows
  // 1:1 onto skyline input. Anything else (joins, aggregates, sorts, limits,
  // DISTINCT nodes, nested skylines, inline relations) is invalidation-only.
  std::vector<const LogicalPlan*> chain;  // top-down, skyline's child first
  const LogicalPlan* node = sky.child().get();
  while (node != nullptr) {
    switch (node->kind()) {
      case PlanKind::kSubqueryAlias:
        node = static_cast<const SubqueryAlias*>(node)->child().get();
        continue;
      case PlanKind::kFilter:
        chain.push_back(node);
        node = static_cast<const Filter*>(node)->child().get();
        continue;
      case PlanKind::kProject:
        chain.push_back(node);
        node = static_cast<const Project*>(node)->child().get();
        continue;
      case PlanKind::kScan:
        break;
      default:
        return nullptr;
    }
    break;
  }
  if (node == nullptr || node->kind() != PlanKind::kScan) return nullptr;
  const auto& scan = static_cast<const Scan&>(*node);
  if (scan.table() == nullptr) return nullptr;

  auto recipe = std::make_shared<DeltaRecipe>();
  recipe->table = ToLower(scan.table()->name());
  recipe->scan_columns = scan.column_indices();

  // Bind the pipeline bottom-up, tracking the attribute layout like the
  // executor does.
  std::vector<Attribute> attrs = scan.output();
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    DeltaRecipe::Step step;
    if ((*it)->kind() == PlanKind::kFilter) {
      const auto& filter = static_cast<const Filter&>(**it);
      if (!WhitelistedExpr(filter.condition())) return nullptr;
      auto bound = BindExpression(filter.condition(), attrs);
      if (!bound.ok()) return nullptr;
      step.is_filter = true;
      step.predicate = std::move(bound).MoveValue();
    } else {
      const auto& project = static_cast<const Project&>(**it);
      for (const ExprPtr& e : project.list()) {
        if (!WhitelistedExpr(e)) return nullptr;
        auto bound = BindExpression(e, attrs);
        if (!bound.ok()) return nullptr;
        step.exprs.push_back(std::move(bound).MoveValue());
      }
      attrs = project.output();
    }
    recipe->steps.push_back(std::move(step));
  }

  // Dimensions must bind to plain columns of the final layout; the planner
  // gives computed dimensions helper projections, so after analysis a direct
  // BoundReference is the common case and anything else bails out.
  for (const ExprPtr& d : sky.dimensions()) {
    const auto& dim = static_cast<const SkylineDimension&>(*d);
    auto bound = BindExpression(dim.child(), attrs);
    if (!bound.ok() || (*bound)->kind() != ExprKind::kBoundReference) {
      return nullptr;
    }
    const auto& ref = static_cast<const BoundReference&>(**bound);
    recipe->dims.push_back(skyline::BoundDimension{ref.ordinal(), dim.goal()});
  }
  if (!skyline::CheckDimensionLimit(recipe->dims).ok()) return nullptr;

  recipe->distinct = sky.distinct();
  recipe->width = attrs.size();
  if (snapshot_version != nullptr) {
    *snapshot_version = scan.table()->version();
  }
  return recipe;
}

namespace {

template <typename Rows>
Result<std::vector<Row>> ApplyRecipeTo(const DeltaRecipe& recipe,
                                       const Rows& table_rows) {
  std::vector<Row> out;
  out.reserve(table_rows.size());
  // A table row is a Row (an inserted batch) or a RowRef read in place
  // from a chunk (the resync over a snapshot).
  for (const auto& table_row : table_rows) {
    Row row;
    row.reserve(recipe.scan_columns.size());
    for (size_t col : recipe.scan_columns) {
      if (col >= table_row.size()) {
        return Status::Internal(
            StrCat("delta recipe scan column ", col, " out of range for a ",
                   table_row.size(), "-column inserted row"));
      }
      row.push_back(table_row[col]);
    }
    bool keep = true;
    for (const DeltaRecipe::Step& step : recipe.steps) {
      if (step.is_filter) {
        SL_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*step.predicate, row));
        if (!pass) {
          keep = false;
          break;
        }
      } else {
        Row next;
        next.reserve(step.exprs.size());
        for (const ExprPtr& e : step.exprs) {
          SL_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, row));
          next.push_back(std::move(v));
        }
        row = std::move(next);
      }
    }
    if (!keep) continue;
    if (row.size() != recipe.width) {
      return Status::Internal("delta recipe produced a row of wrong width");
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace

Result<std::vector<Row>> ApplyRecipe(const DeltaRecipe& recipe,
                                     const std::vector<Row>& table_rows) {
  return ApplyRecipeTo(recipe, table_rows);
}

Result<std::vector<Row>> ApplyRecipe(const DeltaRecipe& recipe,
                                     const ChunkedRows& table_rows) {
  return ApplyRecipeTo(recipe, table_rows);
}

namespace {
metrics::Counter* FallbackCounter(const char* reason) {
  return metrics::MetricsRegistry::Global().GetCounter(
      "sparkline_incremental_fallbacks_total", {{"reason", reason}});
}
}  // namespace

IncrementalMaintainer::IncrementalMaintainer(Catalog* catalog,
                                             std::shared_ptr<ResultCache> cache)
    : catalog_(catalog),
      cache_(std::move(cache)),
      maintained_counter_(metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_incremental_maintained_total")),
      fb_oversized_batch_(FallbackCounter("oversized_batch")),
      fb_no_recipe_(FallbackCounter("no_recipe")),
      fb_version_gap_(FallbackCounter("version_gap")),
      fb_classify_unsound_(FallbackCounter("classify_unsound")),
      fb_apply_error_(FallbackCounter("apply_error")) {}

void IncrementalMaintainer::OnWrite(const WriteEvent& event) {
  const bool insert =
      event.kind == WriteEvent::Kind::kInsert && event.rows != nullptr;
  const bool incremental =
      insert &&
      static_cast<int64_t>(event.rows->size()) <= max_delta_batch_.load();
  if (!incremental) {
    if (insert) {
      // An oversized batch is a policy fallback, not an invalidation the
      // write would have forced anyway; count it per affected entry.
      const int64_t affected =
          static_cast<int64_t>(cache_->EntriesForTable(event.table).size());
      fallbacks_.fetch_add(affected);
      fb_oversized_batch_->Increment(affected);
    }
    cache_->InvalidateTable(event.table);
  } else {
    for (const auto& entry : cache_->EntriesForTable(event.table)) {
      MaintainEntry(entry, event);
    }
  }

  // Subscriptions advance for every write kind — a drop or replace resyncs.
  // State updates happen under subs_mu_, but callbacks are invoked after it
  // is released: a callback may take arbitrary user locks, and holding
  // subs_mu_ across it would order those locks behind ours (deadlock bait
  // with any thread that holds a user lock while calling Subscribe /
  // Unsubscribe). Per-subscription delta order still equals version order —
  // there is a single notifier thread.
  std::vector<std::pair<std::shared_ptr<SubscriptionCallback>, SkylineDelta>>
      deliveries;
  {
    sl::MutexLock lock(&subs_mu_);
    for (auto& [id, sub] : subs_) {
      if (sub.recipe->table != event.table) continue;
      std::optional<SkylineDelta> delta = AdvanceSubscription(&sub, event);
      if (delta.has_value()) {
        deliveries.emplace_back(sub.callback, *std::move(delta));
      }
    }
  }
  for (auto& [callback, delta] : deliveries) (*callback)(delta);
}

void IncrementalMaintainer::MaintainEntry(
    const std::shared_ptr<const CachedResult>& entry, const WriteEvent& event) {
  if (entry->recipe == nullptr || entry->recipe->table != event.table) {
    // The plan shape is invalidation-only (no recipe was buildable).
    cache_->Remove(entry->fingerprint, entry);
    fallbacks_.fetch_add(1);
    fb_no_recipe_->Increment();
    return;
  }
  if (entry->table_version != event.old_version) {
    // The entry reflects a different snapshot than the one this write
    // replaced (gapped/out-of-order observation): fall back.
    cache_->Remove(entry->fingerprint, entry);
    fallbacks_.fetch_add(1);
    fb_version_gap_->Increment();
    return;
  }
  Status status;
  const char* reason = "apply_error";
  try {
    status = ApplyDelta(entry, event, &reason);
  } catch (const std::exception& e) {
    // Injected "throw" faults (serve.delta_apply) and any classification bug
    // degrade to invalidation — the notifier thread must never die.
    status = Status::Internal(e.what());
  }
  if (!status.ok()) {
    cache_->Remove(entry->fingerprint, entry);
    fallbacks_.fetch_add(1);
    (reason == std::string("classify_unsound") ? fb_classify_unsound_
                                               : fb_apply_error_)
        ->Increment();
  }
}

Status IncrementalMaintainer::ApplyDelta(
    const std::shared_ptr<const CachedResult>& entry, const WriteEvent& event,
    const char** fallback_reason) {
  SL_FAILPOINT("serve.delta_apply");
  const DeltaRecipe& recipe = *entry->recipe;
  SL_ASSIGN_OR_RETURN(std::vector<Row> batch,
                      ApplyRecipe(recipe, *event.rows));

  const skyline::SkylineOptions options = RecipeOptions(recipe);
  SL_ASSIGN_OR_RETURN(
      skyline::DeltaClassification delta,
      skyline::DeltaClassify(*entry->rows, batch, recipe.dims, options));
  if (delta.needs_fallback) {
    *fallback_reason = "classify_unsound";
    return Status::Invalid("delta batch is not incrementally classifiable");
  }

  std::shared_ptr<const std::vector<Row>> rows;
  const bool unchanged = delta.entering.empty() && delta.evicted.empty();
  if (unchanged) {
    rows = entry->rows;  // re-key only; share the snapshot
  } else {
    auto next_rows = std::make_shared<std::vector<Row>>();
    next_rows->reserve(entry->rows->size() - delta.evicted.size() +
                       delta.entering.size());
    size_t evicted_pos = 0;  // `evicted` is ascending by construction
    for (size_t i = 0; i < entry->rows->size(); ++i) {
      if (evicted_pos < delta.evicted.size() &&
          delta.evicted[evicted_pos] == static_cast<uint32_t>(i)) {
        ++evicted_pos;
        continue;
      }
      next_rows->push_back((*entry->rows)[i]);
    }
    for (uint32_t idx : delta.entering) {
      next_rows->push_back(batch[idx]);
    }
    rows = std::move(next_rows);
  }

  // Re-key: the canonical form embeds the scanned snapshot's version, so the
  // successor must be stored under the fingerprint a post-write execution
  // would compute. The trailing comma keeps "@1," from matching "@12,".
  const std::string old_tag =
      StrCat("scan(", recipe.table, "@", entry->table_version, ",");
  const std::string new_tag =
      StrCat("scan(", recipe.table, "@", event.new_version, ",");
  std::string canonical = entry->fingerprint.canonical;
  size_t pos = canonical.find(old_tag);
  if (pos == std::string::npos) {
    return Status::Internal(
        StrCat("cached canonical form lacks the expected scan tag ", old_tag));
  }
  while (pos != std::string::npos) {
    canonical.replace(pos, old_tag.size(), new_tag);
    pos = canonical.find(old_tag, pos + new_tag.size());
  }

  auto next = std::make_shared<CachedResult>();
  next->attrs = entry->attrs;
  next->rows = std::move(rows);
  next->bytes = unchanged ? entry->bytes : EstimatedRowsBytes(*next->rows);
  next->fingerprint = FingerprintFromCanonical(std::move(canonical),
                                               entry->fingerprint.tables);
  next->recipe = entry->recipe;
  next->table_version = event.new_version;
  next->delta_count = entry->delta_count + 1;

  // A lost CAS means a concurrent insert already published an entry for the
  // (table, version) pair this successor describes — nothing to do.
  cache_->Replace(entry->fingerprint, entry, std::move(next));
  maintained_.fetch_add(1);
  maintained_counter_->Increment();
  return Status::OK();
}

std::optional<SkylineDelta> IncrementalMaintainer::AdvanceSubscription(
    Subscription* sub, const WriteEvent& event) {
  if (event.new_version <= sub->version) return std::nullopt;

  const bool insert =
      event.kind == WriteEvent::Kind::kInsert && event.rows != nullptr;
  if (insert && event.old_version == sub->version &&
      static_cast<int64_t>(event.rows->size()) <= max_delta_batch_.load()) {
    const DeltaRecipe& recipe = *sub->recipe;
    auto batch_result = ApplyRecipe(recipe, *event.rows);
    if (batch_result.ok()) {
      std::vector<Row> batch = std::move(batch_result).MoveValue();
      auto classified = skyline::DeltaClassify(sub->skyline, batch, recipe.dims,
                                               RecipeOptions(recipe));
      if (classified.ok() && !(*classified).needs_fallback) {
        const skyline::DeltaClassification& delta = *classified;
        SkylineDelta out;
        out.table = event.table;
        out.version = event.new_version;
        out.resync = false;
        for (uint32_t idx : delta.evicted) {
          out.removed.push_back(sub->skyline[idx]);
        }
        for (uint32_t idx : delta.entering) {
          out.added.push_back(batch[idx]);
        }
        std::vector<Row> next;
        next.reserve(sub->skyline.size() - delta.evicted.size() +
                     delta.entering.size());
        size_t evicted_pos = 0;
        for (size_t i = 0; i < sub->skyline.size(); ++i) {
          if (evicted_pos < delta.evicted.size() &&
              delta.evicted[evicted_pos] == static_cast<uint32_t>(i)) {
            ++evicted_pos;
            continue;
          }
          next.push_back(sub->skyline[i]);
        }
        for (uint32_t idx : delta.entering) next.push_back(batch[idx]);
        sub->skyline = std::move(next);
        sub->version = event.new_version;
        if (out.added.empty() && out.removed.empty()) return std::nullopt;
        deltas_delivered_.fetch_add(1);
        return out;
      }
    }
  }

  resyncs_.fetch_add(1);
  SkylineDelta delta = ResyncSubscription(sub, event.table);
  // A recompute that changed nothing (e.g. an oversized batch of dominated
  // tuples) still advanced the version but has nothing to report.
  if (delta.added.empty() && delta.removed.empty()) return std::nullopt;
  deltas_delivered_.fetch_add(1);
  return delta;
}

SkylineDelta IncrementalMaintainer::ResyncSubscription(
    Subscription* sub, const std::string& table) {
  SkylineDelta out;
  out.table = table;
  out.resync = true;

  std::vector<Row> next;
  uint64_t version = catalog_->TableVersion(table);
  auto table_result = catalog_->GetTable(table);
  if (table_result.ok()) {
    const TablePtr& snapshot = *table_result;
    version = snapshot->version();
    auto input = ApplyRecipe(*sub->recipe, snapshot->rows());
    if (input.ok()) {
      auto computed = skyline::ColumnarSkyline(
          skyline::SkylineKernel::kBlockNestedLoop, *input, sub->recipe->dims,
          RecipeOptions(*sub->recipe));
      if (computed.ok()) next = std::move(*computed);
    }
  }
  // A dropped table (or a recipe the rows no longer satisfy, or a failed
  // kernel) reads as an empty skyline; the version still advances so stale
  // events stay skipped.
  out.version = version;

  // Multiset diff old -> next (row printing is a total key for Values).
  std::map<std::string, int> counts;
  for (const Row& row : next) ++counts[RowToString(row)];
  for (const Row& row : sub->skyline) {
    auto it = counts.find(RowToString(row));
    if (it != counts.end() && it->second > 0) {
      --it->second;
    } else {
      out.removed.push_back(row);
    }
  }
  counts.clear();
  for (const Row& row : sub->skyline) ++counts[RowToString(row)];
  for (const Row& row : next) {
    auto it = counts.find(RowToString(row));
    if (it != counts.end() && it->second > 0) {
      --it->second;
    } else {
      out.added.push_back(row);
    }
  }

  sub->skyline = std::move(next);
  sub->version = version;
  return out;
}

uint64_t IncrementalMaintainer::Subscribe(
    std::shared_ptr<const DeltaRecipe> recipe, SubscriptionCallback callback) {
  uint64_t id;
  {
    sl::MutexLock lock(&subs_mu_);
    id = next_sub_id_++;
  }
  Subscription sub;
  sub.recipe = std::move(recipe);
  sub.callback = std::make_shared<SubscriptionCallback>(std::move(callback));
  // The initial delivery is a resync carrying the full current skyline. It
  // runs on the subscriber's thread with no internal lock held (callbacks
  // may take arbitrary user locks), strictly before any notifier-thread
  // delivery — the subscription is not registered yet. A write landing
  // between this snapshot and the registration below is not lost: its event
  // carries a version ahead of the subscription's, which forces a resync.
  SkylineDelta initial = ResyncSubscription(&sub, sub.recipe->table);
  const std::shared_ptr<SubscriptionCallback> cb = sub.callback;
  (*cb)(initial);
  sl::MutexLock lock(&subs_mu_);
  subs_.emplace(id, std::move(sub));
  return id;
}

void IncrementalMaintainer::Unsubscribe(uint64_t id) {
  sl::MutexLock lock(&subs_mu_);
  subs_.erase(id);
}

IncrementalMaintainer::Stats IncrementalMaintainer::stats() const {
  Stats s;
  s.maintained = maintained_.load();
  s.fallbacks = fallbacks_.load();
  s.resyncs = resyncs_.load();
  s.deltas_delivered = deltas_delivered_.load();
  return s;
}

}  // namespace serve
}  // namespace sparkline
