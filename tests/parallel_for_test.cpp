// The thread pool under the experiment pipeline, and the property the
// whole parallel-sweep design rests on: simulations are deterministic
// and self-contained, so a sweep run on N threads is bit-identical to
// the same sweep run serially.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "bench_common.hpp"
#include "memfront/support/parallel_for.hpp"

namespace memfront {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleWorkerRunsInlineInOrder) {
  std::vector<std::size_t> order;
  parallel_for(100, [&](std::size_t i) { order.push_back(i); }, 1);
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      parallel_for(
          100,
          [&](std::size_t i) {
            if (i % 7 == 3) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelMap, GathersResultsInInputOrder) {
  std::vector<int> items(257);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<long> out = parallel_map(
      items, [](int v) { return static_cast<long>(v) * v; }, 4);
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<long>(i) * static_cast<long>(i));
}

TEST(ParallelFor, BodiesKnowTheyRunInsideAParallelLoop) {
  EXPECT_FALSE(in_parallel_body());
  std::atomic<int> inside{0};
  parallel_for(
      8, [&](std::size_t) { inside += in_parallel_body() ? 1 : 0; }, 4);
  EXPECT_EQ(inside.load(), 8);
  EXPECT_FALSE(in_parallel_body());
  // A one-worker loop runs inline: nothing is spread, nothing marked.
  bool serial_inside = true;
  parallel_for(3, [&](std::size_t) { serial_inside &= in_parallel_body(); },
               1);
  EXPECT_FALSE(serial_inside);
}

TEST(DefaultThreadCount, IsAtLeastOne) {
  EXPECT_GE(default_thread_count(), 1u);
}

// ---- the determinism contract of the parallel sweep ------------------------

TEST(ParallelSweep, MatchesSerialSweepBitForBit) {
  // The same Table-1 sweep built serially and on 4 threads: every leg's
  // analysis and in-core run must agree down to the last ulp of the
  // makespan, in the same order — the parallel harness may only change
  // wall-clock time, never results.
  const double scale = 0.2;
  const index_t nprocs = 4;
  const std::vector<bench::BudgetedCase> serial =
      bench::collect_budgeted_cases(scale, nprocs, /*nthreads=*/1);
  const std::vector<bench::BudgetedCase> parallel =
      bench::collect_budgeted_cases(scale, nprocs, /*nthreads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const bench::BudgetedCase& s = serial[i];
    const bench::BudgetedCase& p = parallel[i];
    EXPECT_EQ(s.problem.name, p.problem.name);
    EXPECT_EQ(s.memory_strategy, p.memory_strategy);
    EXPECT_EQ(s.incore.max_stack_peak, p.incore.max_stack_peak);
    EXPECT_EQ(s.incore.makespan, p.incore.makespan);  // bit-identical
    EXPECT_EQ(s.incore.parallel.messages, p.incore.parallel.messages);
    EXPECT_EQ(s.incore.parallel.comm_entries,
              p.incore.parallel.comm_entries);
    EXPECT_EQ(s.incore.parallel.events_processed,
              p.incore.parallel.events_processed);
    EXPECT_EQ(s.ooc_setup.ooc.budget, p.ooc_setup.ooc.budget);
  }
}

TEST(ParallelSweep, BudgetedRunsMatchSerialBitForBit) {
  // And the budgeted OOC leg on top of the shared preparation: run each
  // case's 1.2x-budget simulation serially and in parallel; compare the
  // full I/O accounting, not just the makespan.
  const std::vector<bench::BudgetedCase> cases =
      bench::collect_budgeted_cases(0.2, 4, /*nthreads=*/2);
  std::vector<ExperimentOutcome> serial(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i)
    serial[i] = run_prepared(*cases[i].prepared, cases[i].ooc_setup);
  std::vector<ExperimentOutcome> parallel(cases.size());
  parallel_for(
      cases.size(),
      [&](std::size_t i) {
        parallel[i] = run_prepared(*cases[i].prepared, cases[i].ooc_setup);
      },
      4);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(serial[i].makespan, parallel[i].makespan);
    EXPECT_EQ(serial[i].max_stack_peak, parallel[i].max_stack_peak);
    EXPECT_EQ(serial[i].parallel.ooc_factor_write_entries,
              parallel[i].parallel.ooc_factor_write_entries);
    EXPECT_EQ(serial[i].parallel.ooc_spill_entries,
              parallel[i].parallel.ooc_spill_entries);
    EXPECT_EQ(serial[i].parallel.ooc_stall_time,
              parallel[i].parallel.ooc_stall_time);
    EXPECT_EQ(serial[i].parallel.io_events, parallel[i].parallel.io_events);
  }
}

}  // namespace
}  // namespace memfront
