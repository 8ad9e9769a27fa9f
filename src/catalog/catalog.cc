#include "catalog/catalog.h"

#include <atomic>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace sparkline {

namespace {
// Version values are drawn from one process-wide counter, not a per-catalog
// one: a value is then never reused by any catalog, so a stamp on a Table
// snapshot identifies that immutable snapshot globally — even when the same
// TablePtr is registered into several catalogs (re-stamping can only turn
// cache hits into misses, never fabricate a colliding key).
std::atomic<uint64_t> g_version_counter{0};

void CountWrite(WriteEvent::Kind kind) {
  using metrics::Counter;
  using metrics::MetricsRegistry;
  static Counter* reg = MetricsRegistry::Global().GetCounter(
      "sparkline_catalog_writes_total", {{"kind", "register"}});
  static Counter* rep = MetricsRegistry::Global().GetCounter(
      "sparkline_catalog_writes_total", {{"kind", "replace"}});
  static Counter* ins = MetricsRegistry::Global().GetCounter(
      "sparkline_catalog_writes_total", {{"kind", "insert"}});
  static Counter* drp = MetricsRegistry::Global().GetCounter(
      "sparkline_catalog_writes_total", {{"kind", "drop"}});
  switch (kind) {
    case WriteEvent::Kind::kRegister:
      reg->Increment();
      break;
    case WriteEvent::Kind::kReplace:
      rep->Increment();
      break;
    case WriteEvent::Kind::kInsert:
      ins->Increment();
      break;
    case WriteEvent::Kind::kDrop:
      drp->Increment();
      break;
  }
}
}  // namespace

Catalog::~Catalog() {
  // Move the thread handle out under the lock, join outside it: joining
  // while holding notify_mu_ would deadlock against the notifier's own
  // re-acquisitions, and touching notifier_ unlocked would be an unguarded
  // access to a notify_mu_-guarded field.
  std::thread notifier;
  {
    sl::MutexLock lock(&notify_mu_);
    stop_ = true;
    notifier = std::move(notifier_);
  }
  notify_cv_.NotifyAll();
  if (notifier.joinable()) notifier.join();
}

uint64_t Catalog::BumpVersionLocked(const std::string& key) {
  return versions_[key] = g_version_counter.fetch_add(1) + 1;
}

uint64_t Catalog::VersionBeforeLocked(const std::string& key) const {
  auto it = versions_.find(key);
  return it == versions_.end() ? 0 : it->second;
}

void Catalog::EnqueueWrite(WriteEvent event) {
  // Every committed write passes through here exactly once (listener-free
  // catalogs included), so this is the single counting point.
  CountWrite(event.kind);
  {
    // No listeners -> nothing to deliver; skip the queue entirely so
    // listener-free catalogs never grow one.
    sl::MutexLock lock(&listeners_mu_);
    if (listeners_.empty()) return;
  }
  {
    sl::MutexLock lock(&notify_mu_);
    queue_.push_back(std::move(event));
  }
  notify_cv_.NotifyAll();
}

void Catalog::NotifierLoop() {
  for (;;) {
    WriteEvent event;
    {
      sl::MutexLock lock(&notify_mu_);
      while (!(stop_ || !queue_.empty())) notify_cv_.Wait(&notify_mu_);
      // Drain the remaining queue even when stopping: a listener-visible
      // write has a version already published, so dropping its event would
      // leave caches permanently stale in the destructor race window.
      if (queue_.empty()) return;
      event = std::move(queue_.front());
      queue_.pop_front();
      dispatching_ = true;
    }
    std::vector<WriteListener> listeners;
    {
      sl::MutexLock lock(&listeners_mu_);
      listeners = listeners_;
    }
    static metrics::Histogram* dispatch_us =
        metrics::MetricsRegistry::Global().GetHistogram(
            "sparkline_catalog_listener_dispatch_us");
    StopWatch dispatch;
    for (const auto& listener : listeners) listener(event);
    dispatch_us->Observe(dispatch.ElapsedNanos() / 1000);
    {
      sl::MutexLock lock(&notify_mu_);
      dispatching_ = false;
    }
    notify_cv_.NotifyAll();
  }
}

void Catalog::DrainWrites() {
  sl::MutexLock lock(&notify_mu_);
  while (!(queue_.empty() && !dispatching_)) notify_cv_.Wait(&notify_mu_);
}

Status Catalog::RegisterTable(TablePtr table) {
  std::string key = ToLower(table->name());
  WriteEvent event;
  event.kind = WriteEvent::Kind::kRegister;
  event.table = key;
  {
    sl::MutexLock lock(&mu_);
    if (tables_.count(key) > 0) {
      return Status::AlreadyExists(StrCat("table ", table->name()));
    }
    event.old_version = VersionBeforeLocked(key);
    event.new_version = BumpVersionLocked(key);
    table->set_version(event.new_version);
    tables_[key] = std::move(table);
    EnqueueWrite(std::move(event));
  }
  return Status::OK();
}

void Catalog::RegisterOrReplaceTable(TablePtr table) {
  std::string key = ToLower(table->name());
  WriteEvent event;
  event.kind = WriteEvent::Kind::kReplace;
  event.table = key;
  {
    sl::MutexLock lock(&mu_);
    event.old_version = VersionBeforeLocked(key);
    event.new_version = BumpVersionLocked(key);
    table->set_version(event.new_version);
    tables_[key] = std::move(table);
    EnqueueWrite(std::move(event));
  }
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  sl::SharedLock lock(&mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("table ", name, " not found in catalog"));
  }
  return it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  sl::SharedLock lock(&mu_);
  return tables_.count(ToLower(name)) > 0;
}

Status Catalog::DropTable(const std::string& name) {
  std::string key = ToLower(name);
  WriteEvent event;
  event.kind = WriteEvent::Kind::kDrop;
  event.table = key;
  {
    sl::MutexLock lock(&mu_);
    auto it = tables_.find(key);
    if (it == tables_.end()) {
      return Status::NotFound(StrCat("table ", name, " not found in catalog"));
    }
    tables_.erase(it);
    event.old_version = VersionBeforeLocked(key);
    event.new_version = BumpVersionLocked(key);
    EnqueueWrite(std::move(event));
  }
  return Status::OK();
}

Status Catalog::InsertInto(const std::string& name,
                           const std::vector<Row>& rows) {
  // Injected before the snapshot is taken: a failed write publishes nothing
  // and bumps no version, so readers and the result cache never observe a
  // half-applied insert.
  SL_FAILPOINT("catalog.write");
  std::string key = ToLower(name);
  for (;;) {
    // Snapshot under a shared lock, build the successor unlocked (it copies
    // the partial tail chunk and validates the batch), then publish only if
    // no other writer got there first.
    TablePtr old;
    {
      sl::SharedLock lock(&mu_);
      auto it = tables_.find(key);
      if (it == tables_.end()) {
        return Status::NotFound(
            StrCat("table ", name, " not found in catalog"));
      }
      old = it->second;
    }
    // The batch as the table stores it (numerics and NULLs cast to the
    // column types) is both what the successor appends and what the write
    // event publishes, so delta-maintained answers read what a scan reads.
    auto batch = std::make_shared<std::vector<Row>>();
    batch->reserve(rows.size());
    for (const Row& row : rows) {
      SL_ASSIGN_OR_RETURN(Row conformed, old->Conform(row));
      batch->push_back(std::move(conformed));
    }
    TablePtr next = old->Successor(/*extra_rows=*/batch->size());
    for (const Row& row : *batch) next->AppendRowUnchecked(row);
    WriteEvent event;
    event.kind = WriteEvent::Kind::kInsert;
    event.table = key;
    event.rows = std::move(batch);
    {
      sl::MutexLock lock(&mu_);
      auto it = tables_.find(key);
      if (it == tables_.end()) {
        return Status::NotFound(
            StrCat("table ", name, " not found in catalog"));
      }
      if (it->second != old) continue;  // lost a race: rebuild on the winner
      event.old_version = VersionBeforeLocked(key);
      event.new_version = BumpVersionLocked(key);
      next->set_version(event.new_version);
      it->second = std::move(next);
      EnqueueWrite(std::move(event));
    }
    return Status::OK();
  }
}

uint64_t Catalog::TableVersion(const std::string& name) const {
  sl::SharedLock lock(&mu_);
  auto it = versions_.find(ToLower(name));
  return it == versions_.end() ? 0 : it->second;
}

std::vector<std::string> Catalog::ListTables() const {
  sl::SharedLock lock(&mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [k, v] : tables_) out.push_back(v->name());
  return out;
}

void Catalog::AddWriteListener(WriteListener listener) {
  {
    sl::MutexLock lock(&listeners_mu_);
    listeners_.push_back(std::move(listener));
  }
  sl::MutexLock lock(&notify_mu_);
  if (!notifier_started_) {
    notifier_started_ = true;
    notifier_ = std::thread([this] { NotifierLoop(); });
  }
}

}  // namespace sparkline
