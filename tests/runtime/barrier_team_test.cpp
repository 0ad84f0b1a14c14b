// The BarrierTeam phase barrier: the worker team the sharded engine steps
// its shards with and parallel_for runs its claim loop on. These suites
// (with parallel_sweep_test, the sharded engine's and the manifest
// runner's) are what the tsan CI job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/barrier_team.hpp"

namespace dfsim::runtime {
namespace {

TEST(BarrierTeamTest, EveryWorkerIndexRunsOncePerRound) {
  constexpr int kWorkers = 4;
  constexpr int kRounds = 200;
  std::vector<std::atomic<int>> hits(kWorkers);
  BarrierTeam team(kWorkers);
  ASSERT_EQ(team.size(), kWorkers);
  for (int r = 0; r < kRounds; ++r) {
    team.run([&hits](int w) { hits[static_cast<std::size_t>(w)]++; });
    // run() returning IS the barrier: every index must have fired in the
    // round just closed, none twice.
    for (int w = 0; w < kWorkers; ++w) {
      ASSERT_EQ(hits[static_cast<std::size_t>(w)].load(), r + 1)
          << "worker " << w << " round " << r;
    }
  }
}

TEST(BarrierTeamTest, HandoffPublishesPlainWritesBothWays) {
  // The documented contract: the caller's pre-run() writes are visible
  // to every worker, and every worker's writes are visible to the caller
  // when run() returns — with PLAIN (non-atomic) variables, exactly how
  // the sharded engine hands its state arrays across phases. A missed
  // release/acquire edge trips tsan and these checks both.
  constexpr int kWorkers = 3;
  std::vector<std::uint64_t> cells(kWorkers, 0);  // plain, not atomic
  std::uint64_t round = 0;                        // plain, caller-owned
  std::atomic<bool> ok{true};
  BarrierTeam team(kWorkers);
  for (round = 0; round < 500; ++round) {
    // A fresh region each round: reads the caller's `round` store and
    // writes only this worker's cell.
    team.run([&](int w) { cells[static_cast<std::size_t>(w)] = round + 1; });
    for (int w = 0; w < kWorkers; ++w) {
      if (cells[static_cast<std::size_t>(w)] != round + 1) ok = false;
    }
  }
  EXPECT_TRUE(ok.load());
}

TEST(BarrierTeamTest, SingleWorkerRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  int ran = 0;
  BarrierTeam team(1);
  EXPECT_EQ(team.size(), 1);
  for (int r = 0; r < 2; ++r) {
    team.run([&](int w) {
      EXPECT_EQ(w, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++ran;
    });
  }
  EXPECT_EQ(ran, 2);
}

TEST(BarrierTeamTest, OversubscribedTeamParksAndStillCompletes) {
  // One worker more than the machine has hardware threads: no waiter may
  // spin, so every wait parks on the futex — the slow edge where
  // lost-wakeup bugs live. Hammer it.
  const int workers = BarrierTeam::hardware_workers() + 1;
  if (workers > 64) GTEST_SKIP() << workers << " workers is too many here";
  std::atomic<int> ran{0};
  BarrierTeam team(workers);
  EXPECT_EQ(team.spin_budget(), 0);
  for (int r = 0; r < 300; ++r) team.run([&ran](int) { ran++; });
  EXPECT_EQ(ran.load(), workers * 300);
}

TEST(BarrierTeamTest, RethrowsTheFirstExceptionAfterEveryWorkerFinished) {
  constexpr int kWorkers = 4;
  BarrierTeam team(kWorkers);
  for (const int thrower : {0, 2}) {  // the caller, then a started thread
    SCOPED_TRACE(thrower);
    std::atomic<int> finished{0};
    const auto region = [&](int w) {
      if (w == thrower) throw std::runtime_error("boom");
      finished++;
    };
    EXPECT_THROW(team.run(region), std::runtime_error);
    EXPECT_EQ(finished.load(), kWorkers - 1);
  }
  // The team survives a throwing region.
  std::atomic<int> ran{0};
  team.run([&ran](int) { ran++; });
  EXPECT_EQ(ran.load(), kWorkers);
}

}  // namespace
}  // namespace dfsim::runtime
