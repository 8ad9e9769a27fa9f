// The catalog maps table names to Table objects (paper Figure 2: the
// Analyzer resolves identifiers against the Catalog).
//
// Thread safety: all methods may be called concurrently. Lookups take a
// shared (reader) lock; DDL and inserts take an exclusive (writer) lock.
// Tables themselves are immutable once registered — InsertInto replaces the
// registered Table with its Table::Successor, which shares every full row
// chunk of the old snapshot and copies only its partial tail chunk, so an
// insert costs its batch plus at most one chunk, not the table. Plans
// holding a TablePtr snapshot keep reading a consistent row set while
// concurrent writers publish new versions.
//
// Versioning: every write that touches a name (register, replace, insert,
// drop) draws a fresh value from a process-wide monotonic counter, records
// it as that name's version, and stamps it on the registered Table
// snapshot. Versions survive drops, so drop + recreate never reuses a
// version, and the global counter means a stamp identifies one immutable
// snapshot even across catalogs. The serve layer folds snapshot versions
// into plan fingerprints and subscribes to write events to invalidate or
// delta-maintain cached results (docs/ARCHITECTURE.md: invalidation
// protocol, incremental maintenance).
//
// Write notification: events are *enqueued under the write lock* — so the
// queue order equals the version order, per table and globally — but
// *dispatched on a dedicated notifier thread*, so a slow listener (delta
// maintenance classifying a large batch, say) never sits on a writer's
// critical path and never blocks concurrent writers. Correctness does not
// depend on delivery timing: table versions inside plan fingerprints make
// stale cache hits impossible even if a notification is arbitrarily late.
// DrainWrites() flushes the queue for tests and deterministic handoffs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "common/thread_safety.h"

namespace sparkline {

/// \brief One catalog write, as observed by write listeners. Versions are
/// the written name's version before and after the write; `rows` carries
/// the inserted rows for kInsert (shared, immutable — the same snapshot the
/// successor table appended) and is null for every other kind.
struct WriteEvent {
  enum class Kind : uint8_t { kRegister, kReplace, kInsert, kDrop };

  Kind kind = Kind::kInsert;
  std::string table;  ///< lower-cased catalog key
  uint64_t old_version = 0;  ///< 0 when the name was never written before
  uint64_t new_version = 0;
  std::shared_ptr<const std::vector<Row>> rows;  ///< kInsert only
};

/// \brief Case-insensitive, thread-safe table registry with versions.
class Catalog {
 public:
  /// Called on the catalog's notifier thread — never on the writer's
  /// thread, never under any catalog lock — once per write, in version
  /// order. Listeners must not call back into this catalog's write methods
  /// (a write enqueued from the notifier thread would deadlock
  /// DrainWrites-style waits and can livelock the queue).
  using WriteListener = std::function<void(const WriteEvent&)>;

  Catalog() = default;
  ~Catalog();

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a table; fails if the name is taken.
  Status RegisterTable(TablePtr table);

  /// Registers or replaces.
  void RegisterOrReplaceTable(TablePtr table);

  Result<TablePtr> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  Status DropTable(const std::string& name);

  /// Appends rows to a registered table: builds a successor Table that
  /// shares the old snapshot's full chunks, copies its partial tail chunk
  /// and appends the validated rows, then atomically replaces the
  /// registered pointer and bumps the version. A writer that loses the race
  /// to another rebuilds on the winner's snapshot. Readers holding the old
  /// TablePtr are unaffected.
  Status InsertInto(const std::string& name, const std::vector<Row>& rows);

  /// Monotonic version of a table name; 0 if the name was never written.
  /// Dropped names keep (and continue to advance) their version, so a
  /// fingerprint taken before a drop can never match one taken after a
  /// recreate.
  uint64_t TableVersion(const std::string& name) const;

  std::vector<std::string> ListTables() const;

  /// Registers a write listener (cache invalidation / delta maintenance).
  void AddWriteListener(WriteListener listener);

  /// Blocks until every write event enqueued before this call has been
  /// dispatched to all listeners. Tests use it to observe the post-write
  /// cache state deterministically; correctness never requires it.
  void DrainWrites();

 private:
  /// Bumps and returns the version of `key` (callers hold the write lock).
  uint64_t BumpVersionLocked(const std::string& key) SL_REQUIRES(mu_);
  /// Version of `key` before a write, 0 if never written (write lock held).
  uint64_t VersionBeforeLocked(const std::string& key) const
      SL_REQUIRES_SHARED(mu_);
  /// Enqueues the event for the notifier thread. Called with the write lock
  /// held so queue order equals version order; the enqueue itself is O(1)
  /// plus one mutex, so writers are never blocked behind listener work.
  void EnqueueWrite(WriteEvent event) SL_REQUIRES(mu_)
      SL_EXCLUDES(listeners_mu_, notify_mu_);
  void NotifierLoop() SL_EXCLUDES(notify_mu_, listeners_mu_);

  mutable sl::SharedMutex mu_;
  // keyed by lower-cased name
  std::map<std::string, TablePtr> tables_ SL_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> versions_ SL_GUARDED_BY(mu_);

  mutable sl::Mutex listeners_mu_;
  std::vector<WriteListener> listeners_ SL_GUARDED_BY(listeners_mu_);

  // Notifier queue. notify_mu_ orders enqueue/dequeue; dispatching_ covers
  // the window where an event has left the queue but its listeners are
  // still running (DrainWrites must wait that out too).
  sl::Mutex notify_mu_;
  sl::CondVar notify_cv_;
  std::deque<WriteEvent> queue_ SL_GUARDED_BY(notify_mu_);
  bool dispatching_ SL_GUARDED_BY(notify_mu_) = false;
  bool stop_ SL_GUARDED_BY(notify_mu_) = false;
  bool notifier_started_ SL_GUARDED_BY(notify_mu_) = false;
  std::thread notifier_ SL_GUARDED_BY(notify_mu_);
};

}  // namespace sparkline
