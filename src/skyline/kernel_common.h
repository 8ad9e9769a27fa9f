// Internals shared by the skyline kernels (columnar.cc) and the reference
// oracle (algorithms.cc): cooperative deadline checking and dominance-test
// accounting. Not part of the public skyline API.
#pragma once

#include <cstdint>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/timer.h"
#include "skyline/algorithms.h"

namespace sparkline {
namespace skyline {
namespace internal {

/// Checks the deadline — and, when the options carry a CancellationToken,
/// the token — every ~1k polls: a per-pair kernel polls once per dominance
/// test, a block kernel once per block of four. These polls are the
/// kernels' cancellation points: even a single-stage quadratic kernel
/// unwinds with Status::Cancelled/Timeout within microseconds of the signal.
class DeadlineChecker {
 public:
  explicit DeadlineChecker(int64_t deadline_nanos)
      : deadline_(deadline_nanos) {}
  explicit DeadlineChecker(const SkylineOptions& options)
      : deadline_(options.deadline_nanos), cancel_(options.cancel) {}

  Status Check() {
    if (deadline_ == 0 && cancel_ == nullptr) return Status::OK();
    if ((++ticks_ & 0x3ff) != 0) return Status::OK();
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return Status::Cancelled("skyline computation cancelled");
    }
    if (deadline_ != 0 && StopWatch::NowNanos() > deadline_) {
      return Status::Timeout("skyline computation exceeded the deadline");
    }
    return Status::OK();
  }

 private:
  int64_t deadline_;
  const CancellationToken* cancel_ = nullptr;
  uint64_t ticks_ = 0;
};

inline void CountTest(const SkylineOptions& options) {
  if (options.counter != nullptr) {
    options.counter->tests.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Batched dominance-test accounting for the kernels: a per-test atomic
/// fetch_add costs more than the packed-key compare itself, so tests
/// are tallied locally and flushed once (destructor or early return). The
/// observable count is identical to per-test counting.
class BatchedCounter {
 public:
  explicit BatchedCounter(const SkylineOptions& options)
      : counter_(options.counter) {}
  ~BatchedCounter() { Flush(); }

  BatchedCounter(const BatchedCounter&) = delete;
  BatchedCounter& operator=(const BatchedCounter&) = delete;

  void Tick() { ++local_; }
  void Add(int64_t tests) { local_ += tests; }
  void Flush() {
    if (counter_ != nullptr && local_ != 0) {
      counter_->tests.fetch_add(local_, std::memory_order_relaxed);
      local_ = 0;
    }
  }

 private:
  DominanceCounter* counter_;
  int64_t local_ = 0;
};

}  // namespace internal
}  // namespace skyline
}  // namespace sparkline
