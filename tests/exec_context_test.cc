// Regression tests for ExecContext's metrics accumulators — in particular
// the Finish() race the thread-safety analysis surfaced: the serving tier
// calls Finish on the submitting thread while a cancelled or timed-out
// query's pool tasks are still draining and appending to the accumulators.
// Finish() used to read them unlocked; it now takes the accumulator mutex.
// Under TSan the concurrent section below reproduces the original data race
// directly; under plain builds the totals assert the lock gives Finish a
// consistent snapshot.
#include "exec/exec_context.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace sparkline {
namespace {

TEST(ExecContextTest, AccumulatorsSumAcrossThreads) {
  ClusterConfig config;
  config.num_executors = 4;
  config.executor_overhead_bytes = 0;
  ExecContext ctx(config);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ctx] {
      for (int i = 0; i < kPerThread; ++i) {
        ctx.AddStageTime("[local]", 1.0);
        ctx.AddStageRows("[local]", 2);
        ctx.AddExchangeShipped(1, 10);
        ctx.AddMatrixBuilds("[local]", 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const QueryMetrics m = ctx.Finish(12.5);
  EXPECT_DOUBLE_EQ(m.wall_ms, 12.5);
  EXPECT_DOUBLE_EQ(m.simulated_ms, kThreads * kPerThread * 1.0);
  EXPECT_DOUBLE_EQ(m.operator_ms.at("[local]"), kThreads * kPerThread * 1.0);
  EXPECT_EQ(m.operator_rows.at("[local]"), kThreads * kPerThread * 2);
  EXPECT_EQ(m.exchange_rows_shipped, kThreads * kPerThread);
  EXPECT_EQ(m.exchange_bytes, kThreads * kPerThread * 10);
  EXPECT_EQ(m.matrix_builds.at("[local]"), kThreads * kPerThread);
}

TEST(ExecContextTest, FinishConcurrentWithWritersIsConsistent) {
  // The original bug: Finish() reading the accumulators unlocked while
  // drain-stage tasks keep writing. With the fix, every snapshot Finish
  // returns is internally consistent — simulated_ms_ and operator_ms_ are
  // updated under one critical section by AddStageTime, so their totals
  // must agree in any snapshot taken under the same lock.
  ClusterConfig config;
  config.num_executors = 2;
  config.executor_overhead_bytes = 0;
  ExecContext ctx(config);

  constexpr int kWriters = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&ctx] {
      for (int i = 0; i < kPerThread; ++i) ctx.AddStageTime("[drain]", 0.25);
    });
  }

  double last_total = 0;
  for (int probe = 0; probe < 200; ++probe) {
    const QueryMetrics m = ctx.Finish(0.0);
    double operator_total = 0;
    for (const auto& [label, ms] : m.operator_ms) operator_total += ms;
    EXPECT_DOUBLE_EQ(m.simulated_ms, operator_total);
    EXPECT_GE(m.simulated_ms, last_total);  // accumulators only grow
    last_total = m.simulated_ms;
  }
  for (auto& writer : writers) writer.join();

  const QueryMetrics final = ctx.Finish(0.0);
  EXPECT_DOUBLE_EQ(final.simulated_ms, kWriters * kPerThread * 0.25);
  EXPECT_DOUBLE_EQ(final.operator_ms.at("[drain]"),
                   kWriters * kPerThread * 0.25);
}

}  // namespace
}  // namespace sparkline
