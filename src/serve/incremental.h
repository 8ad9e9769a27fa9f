// Incremental skyline maintenance: cached results evolve under InsertInto
// instead of being invalidated (ROADMAP item 1; the continuous/streaming
// skyline family surveyed by Kalyvas & Tzouramanis grounds the recipe).
//
// The core observation: inserting rows is *monotone* for skylines — an
// existing tuple can leave the skyline (a new tuple dominates it) but no
// existing non-skyline tuple can enter (its dominator is still present).
// Under complete (transitive) dominance the cached skyline S of input T is
// a sufficient witness set for classifying a new tuple q: if any b in T
// dominates q, then either b is in S, or some s in S dominates b and hence
// (transitivity) dominates q. So
//
//   skyline(T ∪ B) = (S \ {s : ∃q ∈ enter(B), q dominates s}) ∪ enter(B)
//
// where enter(B) is the set of batch tuples dominated by nothing in S ∪ B.
// DeltaClassify (skyline/columnar.h) computes exactly this.
//
// When the argument does not hold, maintenance *falls back to
// invalidation* — a fallback costs a recompute on the next query, never a
// wrong answer:
//   - incomplete-data pipelines (dominance is not transitive, so S is not
//     a sufficient witness set) — mirrored from the planner's strategy
//     rule: maintainable iff COMPLETE was declared or no dimension is
//     nullable;
//   - plan shapes where inserted rows do not map 1:1 onto skyline input
//     (joins, aggregates, DISTINCT/sort/limit above the skyline, skylines
//     under further skylines) — only Scan → Filter*/Project* → Skyline
//     chains with deterministic whitelisted expressions are maintainable;
//   - DISTINCT dim-equal duplicates (the first-encountered tie-break
//     cannot be replayed without the full input order);
//   - any fault injected at the `serve.delta_apply` failpoint.
//
// Re-keying: cache keys fold the scanned table snapshot's version into the
// fingerprint hash, so after a write the *key itself* is stale even when
// the rows are not. The maintainer rewrites `scan(table@old` to
// `scan(table@new` in the entry's retained canonical form, re-hashes it
// (FingerprintFromCanonical), and swaps a successor entry in under the new
// key (ResultCache::Replace, CAS-guarded against concurrent inserts). A
// delta-maintained hit is therefore bit-identical to what a fresh
// execution against the new snapshot would return, by the soundness
// argument above — and stale hits remain *impossible by construction*
// regardless of maintenance timing, because a fingerprint computed after
// the write can only match an entry already advanced to the new version.
//
// Threading: OnWrite runs on the Catalog's notifier thread — writes are
// observed in version order, off every writer's critical section.
// Subscription callbacks run on that same thread, strictly ordered per
// subscription; they must not call back into this maintainer or the
// catalog's write paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/thread_safety.h"
#include "expr/expression.h"
#include "plan/logical_plan.h"
#include "serve/result_cache.h"
#include "skyline/dominance.h"

namespace sparkline {
namespace serve {

/// \brief How to re-derive one cached skyline's input from inserted table
/// rows: the scan's column selection, then the bound Filter/Project steps
/// between scan and skyline (bottom-up), then the skyline dimensions bound
/// against the final attribute layout. Immutable and shared by every
/// successor of an entry.
struct DeltaRecipe {
  struct Step {
    bool is_filter = false;
    /// Bound predicate (is_filter) — rows failing it never reach the
    /// skyline, so they are dropped from the batch.
    ExprPtr predicate;
    /// Bound projection expressions, one per output attribute (!is_filter).
    std::vector<ExprPtr> exprs;
  };

  /// Lower-cased catalog key of the single scanned table.
  std::string table;
  /// Table column ordinal backing each scan output attribute.
  std::vector<size_t> scan_columns;
  /// Scan-to-skyline pipeline, in application (bottom-up) order.
  std::vector<Step> steps;
  /// Skyline dimensions, bound against the post-steps attribute layout
  /// (which equals the cached entry's output layout).
  std::vector<skyline::BoundDimension> dims;
  bool distinct = false;
  /// Number of output attributes (sanity-checked on apply).
  size_t width = 0;
};

/// \brief Builds the maintenance recipe for an analyzed plan, or null when
/// the shape is invalidation-only (see header comment for the conditions).
/// When maintainable and `snapshot_version` is non-null, it receives the
/// version of the scanned-table snapshot the plan was analyzed against.
std::shared_ptr<const DeltaRecipe> BuildDeltaRecipe(
    const LogicalPlanPtr& analyzed, uint64_t* snapshot_version = nullptr);

/// \brief Applies the recipe's scan projection + steps to raw table rows,
/// producing the rows the cached skyline's input would have gained.
Result<std::vector<Row>> ApplyRecipe(const DeltaRecipe& recipe,
                                     const std::vector<Row>& table_rows);

/// \brief Same over a table snapshot's rows, read in place chunk by chunk
/// (the subscription resync).
Result<std::vector<Row>> ApplyRecipe(const DeltaRecipe& recipe,
                                     const ChunkedRows& table_rows);

/// \brief One continuous-query notification: the skyline gained `added`
/// and lost `removed` going to table version `version`. `resync` marks
/// deltas derived from a full recompute (unsound batch, non-insert write,
/// missed event) rather than an incremental classify — contents are exact
/// either way, and cumulative adds minus removes always equals the current
/// skyline.
struct SkylineDelta {
  std::string table;
  uint64_t version = 0;
  std::vector<Row> added;
  std::vector<Row> removed;
  bool resync = false;
};

using SubscriptionCallback = std::function<void(const SkylineDelta&)>;

/// \brief The write-side maintenance engine: a Catalog write listener that
/// advances (or invalidates) affected ResultCache entries and feeds
/// continuous-query subscriptions.
class IncrementalMaintainer {
 public:
  struct Stats {
    /// Cache entries advanced by delta application (no-op deltas that only
    /// re-keyed the entry included — surviving a write *is* the point).
    int64_t maintained = 0;
    /// Cache entries invalidated instead (no recipe, unsound batch, gapped
    /// version, oversized batch, or injected delta_apply fault).
    int64_t fallbacks = 0;
    /// Subscription recomputes (non-insert write, unsound/oversized batch,
    /// missed event) — counts the recompute even when its diff was empty
    /// and nothing was delivered.
    int64_t resyncs = 0;
    /// Non-empty subscription deltas delivered (incremental and resync).
    int64_t deltas_delivered = 0;
  };

  IncrementalMaintainer(Catalog* catalog, std::shared_ptr<ResultCache> cache);

  /// Catalog write listener body (runs on the catalog notifier thread).
  void OnWrite(const WriteEvent& event);

  /// Registers a continuous skyline query. The callback fires immediately
  /// (on the calling thread) with an initial resync delta carrying the
  /// full current skyline, then once per relevant catalog write on the
  /// notifier thread. Returns the id to pass to Unsubscribe.
  uint64_t Subscribe(std::shared_ptr<const DeltaRecipe> recipe,
                     SubscriptionCallback callback);

  /// Drops a subscription. One in-flight delivery may still complete
  /// concurrently with (but never after *and* ordered behind) this call.
  void Unsubscribe(uint64_t id);

  /// Runtime setting (sparkline.cache.max_delta_batch).
  void set_max_delta_batch(int64_t n) { max_delta_batch_.store(n); }
  int64_t max_delta_batch() const { return max_delta_batch_.load(); }

  Stats stats() const;

 private:
  struct Subscription {
    std::shared_ptr<const DeltaRecipe> recipe;
    std::shared_ptr<SubscriptionCallback> callback;
    std::vector<Row> skyline;  ///< current state
    uint64_t version = 0;
  };

  /// Advances one cache entry for an insert event; on any uncertainty the
  /// entry is removed (fallback). Never returns an error to the caller —
  /// maintenance is an optimization, not a correctness dependency.
  void MaintainEntry(const std::shared_ptr<const CachedResult>& entry,
                     const WriteEvent& event);
  /// The fault-injectable core of MaintainEntry: classify + successor
  /// build + CAS replace. An error (including one injected at
  /// serve.delta_apply) makes the caller invalidate the entry;
  /// `fallback_reason` is then set to the taxonomy label of the failure
  /// ("classify_unsound" for an unsound batch, "apply_error" otherwise).
  Status ApplyDelta(const std::shared_ptr<const CachedResult>& entry,
                    const WriteEvent& event, const char** fallback_reason);
  /// Updates one subscription for an event (insert -> classify; anything
  /// else or any uncertainty -> recompute). Returns the delta to deliver,
  /// or nullopt when the event is already reflected / changed nothing.
  /// Caller holds subs_mu_.
  std::optional<SkylineDelta> AdvanceSubscription(Subscription* sub,
                                                  const WriteEvent& event);
  /// Full recompute from the live catalog snapshot (a missing table reads
  /// as empty); returns the resync delta as the multiset diff against the
  /// subscription's previous state, which it replaces. Caller holds
  /// subs_mu_, unless `sub` is not yet registered (Subscribe's initial
  /// delivery builds a local Subscription outside the lock).
  SkylineDelta ResyncSubscription(Subscription* sub, const std::string& table);

  Catalog* catalog_;  ///< outlives the maintainer (session owns both)
  std::shared_ptr<ResultCache> cache_;

  std::atomic<int64_t> max_delta_batch_{1024};

  sl::Mutex subs_mu_;
  std::map<uint64_t, Subscription> subs_ SL_GUARDED_BY(subs_mu_);
  uint64_t next_sub_id_ SL_GUARDED_BY(subs_mu_) = 1;

  mutable std::atomic<int64_t> maintained_{0};
  mutable std::atomic<int64_t> fallbacks_{0};
  mutable std::atomic<int64_t> resyncs_{0};
  mutable std::atomic<int64_t> deltas_delivered_{0};

  // Registry mirrors (common/metrics.h), resolved once at construction.
  // Fallbacks are additionally labeled by reason — the taxonomy the lumped
  // fallbacks_ total hides: which soundness condition actually fired.
  metrics::Counter* maintained_counter_;
  metrics::Counter* fb_oversized_batch_;
  metrics::Counter* fb_no_recipe_;
  metrics::Counter* fb_version_gap_;
  metrics::Counter* fb_classify_unsound_;
  metrics::Counter* fb_apply_error_;
};

}  // namespace serve
}  // namespace sparkline
