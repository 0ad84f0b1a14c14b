// The BarrierTeam phase barrier the sharded engine steps its shards with.
// These suites (with parallel_sweep_test and the sharded engine's) are
// what the tsan CI job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/barrier_team.hpp"

namespace dfsim::runtime {
namespace {

TEST(BarrierTeamTest, EveryWorkerIndexRunsOncePerRound) {
  constexpr int kWorkers = 4;
  constexpr int kRounds = 200;
  std::vector<std::atomic<int>> hits(kWorkers);
  BarrierTeam team(kWorkers, [&hits](int w) {
    hits[static_cast<std::size_t>(w)]++;
  });
  ASSERT_EQ(team.size(), kWorkers);
  for (int r = 0; r < kRounds; ++r) {
    team.run();
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
  BarrierTeam team(kWorkers, [&](int w) {
    // Reads the caller's `round` store; writes only this worker's cell.
    cells[static_cast<std::size_t>(w)] = round + 1;
  });
  for (round = 0; round < 500; ++round) {
    team.run();
    for (int w = 0; w < kWorkers; ++w) {
      if (cells[static_cast<std::size_t>(w)] != round + 1) ok = false;
    }
  }
  EXPECT_TRUE(ok.load());
}

TEST(BarrierTeamTest, SingleWorkerRunsInline) {
  int ran = 0;
  BarrierTeam team(1, [&ran](int w) {
    EXPECT_EQ(w, 0);
    ++ran;
  });
  EXPECT_EQ(team.size(), 1);
  team.run();
  team.run();
  EXPECT_EQ(ran, 2);
}

TEST(BarrierTeamTest, ZeroSpinBudgetParksAndStillCompletes) {
  // spin_budget = 0 forces the futex path on every round — the slow edge
  // where lost-wakeup bugs live. Hammer it.
  std::atomic<int> ran{0};
  BarrierTeam team(4, [&ran](int) { ran++; }, /*spin_budget=*/0);
  EXPECT_EQ(team.spin_budget(), 0);
  for (int r = 0; r < 300; ++r) team.run();
  EXPECT_EQ(ran.load(), 4 * 300);
}

}  // namespace
}  // namespace dfsim::runtime
