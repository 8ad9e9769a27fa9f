// Wall-clock and per-thread CPU timers.
//
// The reproduction runs on a single core, so wall-clock time cannot show the
// effect of adding executors. Stage tasks are therefore timed with the
// per-thread CPU clock; the executor combines task times into a critical-path
// "simulated cluster time" (max over the partitions of a stage, summed over
// stages). See docs/ARCHITECTURE.md, "`src/exec` — physical planning and
// execution".
#pragma once

#include <cstdint>
#include <ctime>

namespace sparkline {

/// \brief Monotonic wall-clock stopwatch (nanosecond resolution).
class StopWatch {
 public:
  StopWatch() { Restart(); }
  void Restart() { start_ = NowNanos(); }
  int64_t ElapsedNanos() const { return NowNanos() - start_; }
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedNanos()) / 1e6;
  }

  static int64_t NowNanos() {
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  }

 private:
  int64_t start_;
};

/// \brief CPU time consumed by the calling thread (immune to time slicing).
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() { Restart(); }
  void Restart() { start_ = NowNanos(); }
  int64_t ElapsedNanos() const { return NowNanos() - start_; }

  static int64_t NowNanos() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  }

 private:
  int64_t start_;
};

}  // namespace sparkline
