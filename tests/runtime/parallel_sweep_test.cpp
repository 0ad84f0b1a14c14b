// The contract of the parallel sweep runtime: worker count changes
// wall-clock, never results. 1 worker and N workers must produce the same
// ExperimentResult vector — same seeds, same ordering, bit-identical
// metrics — and the primitives underneath (parallel_for, seed
// derivation) must be deterministic and complete.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/config.hpp"
#include "api/sweep.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/seed.hpp"

namespace dfsim {
namespace {

SimConfig tiny_config() {
  SimConfig cfg;
  cfg.h = 2;  // 9 groups, 36 routers — seconds, not minutes
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 600;
  cfg.seed = 42;
  return cfg;
}

void expect_same_points(const std::vector<ExperimentResult>& a,
                        const std::vector<ExperimentResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].series, b[i].series);
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].steady.avg_latency, b[i].steady.avg_latency);
    EXPECT_EQ(a[i].steady.p99_latency, b[i].steady.p99_latency);
    EXPECT_EQ(a[i].steady.accepted_load, b[i].steady.accepted_load);
    EXPECT_EQ(a[i].steady.avg_hops, b[i].steady.avg_hops);
    EXPECT_EQ(a[i].steady.delivered, b[i].steady.delivered);
    EXPECT_EQ(a[i].steady.deadlock, b[i].steady.deadlock);
  }
}

TEST(ParallelSweepTest, OneWorkerAndManyWorkersBitIdentical) {
  const SimConfig base = tiny_config();
  const std::vector<std::string> routings = {"minimal", "olm"};
  const std::vector<double> loads = {0.1, 0.3};

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 4;

  const auto grid = sweep_grid(base, routings, loads);
  const auto a = run_experiments(grid, serial);
  const auto b = run_experiments(grid, parallel);
  ASSERT_EQ(a.size(), routings.size() * loads.size());
  expect_same_points(a, b);
}

TEST(ParallelSweepTest, OrderingIsRoutingsMajorLoadsMinor) {
  const SimConfig base = tiny_config();
  SweepOptions opts;
  opts.jobs = 3;
  const auto points =
      run_experiments(sweep_grid(base, {"minimal", "olm"}, {0.1, 0.2}), opts);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].series, "minimal");
  EXPECT_EQ(points[0].x, 0.1);
  EXPECT_EQ(points[1].series, "minimal");
  EXPECT_EQ(points[1].x, 0.2);
  EXPECT_EQ(points[2].series, "olm");
  EXPECT_EQ(points[2].x, 0.1);
  EXPECT_EQ(points[3].series, "olm");
  EXPECT_EQ(points[3].x, 0.2);
}

TEST(ParallelSweepTest, GenericJobGridPreservesOrderAndDerivesSeeds) {
  const SimConfig base = tiny_config();
  std::vector<ExperimentPoint> grid;
  for (const double th : {0.3, 0.6}) {
    ExperimentPoint pt;
    pt.series = "th";
    pt.x = th;
    pt.cfg = base;
    pt.cfg.routing = "rlm";
    pt.cfg.misroute_threshold = th;
    pt.cfg.load = 0.2;
    grid.push_back(pt);
  }
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 2;
  const auto a = run_experiments(grid, serial);
  const auto b = run_experiments(grid, parallel);
  expect_same_points(a, b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].seed, runtime::derive_seed(base.seed, 0));
  EXPECT_EQ(a[1].seed, runtime::derive_seed(base.seed, 1));
  EXPECT_NE(a[0].seed, a[1].seed);
}

TEST(ParallelSweepTest, BurstPointsRunTheBurstShapeWithDerivedSeeds) {
  SimConfig base = tiny_config();
  base.burst_packets = 20;
  std::vector<ExperimentPoint> grid;
  for (const std::string routing : {"minimal", "olm"}) {
    ExperimentPoint pt;
    pt.series = routing;
    pt.cfg = base;
    pt.cfg.routing = routing;
    pt.burst = true;
    grid.push_back(pt);
  }
  SweepOptions opts;
  opts.jobs = 2;
  const auto points = run_experiments(grid, opts);
  ASSERT_EQ(points.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(points[i].is_burst);
    EXPECT_FALSE(points[i].is_phased);
    EXPECT_EQ(points[i].seed, runtime::derive_seed(base.seed, i));
    SimConfig direct = grid[i].cfg;
    direct.seed = points[i].seed;
    const BurstResult ref = run_burst(direct);
    EXPECT_TRUE(points[i].burst.completed);
    EXPECT_EQ(points[i].burst.consumption_cycles, ref.consumption_cycles);
  }

  grid[0].phases = {{800, 2, "", -1.0}};
  EXPECT_THROW(run_experiments(grid, opts), std::invalid_argument);
}

TEST(ParallelSweepTest, DeriveSeedsOffKeepsConfigSeed) {
  const SimConfig base = tiny_config();
  SweepOptions opts;
  opts.jobs = 1;
  opts.derive_seeds = false;
  const auto points =
      run_experiments(sweep_grid(base, {"minimal"}, {0.1, 0.2}), opts);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].seed, base.seed);
  EXPECT_EQ(points[1].seed, base.seed);
}

TEST(DeriveSeedTest, DeterministicAndDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 42ull}) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      const std::uint64_t s = runtime::derive_seed(base, i);
      EXPECT_EQ(s, runtime::derive_seed(base, i));
      seen.insert(s);
    }
  }
  EXPECT_EQ(seen.size(), 300u);  // no collisions across bases/indices
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  runtime::parallel_for(kN, 8,
                        [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, PropagatesBodyException) {
  EXPECT_THROW(
      runtime::parallel_for(16, 4,
                            [](std::size_t i) {
                              if (i == 7) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
}

TEST(ParallelForTest, SplitsTheJobsBudgetAcrossWorkers) {
  // A body asking for the default worker count (the sharded engine's
  // shard team does) gets its worker's share of the budget, so nested
  // parallelism never multiplies past `jobs` threads.
  const int before = runtime::resolve_jobs(0);
  for (const auto& [n, share] : {std::pair<std::size_t, int>{4, 1},
                                 std::pair<std::size_t, int>{2, 2}}) {
    SCOPED_TRACE(n);
    std::vector<int> seen(n, 0);
    std::vector<int> explicit_request(n, 0);
    runtime::parallel_for(n, 4, [&](std::size_t i) {
      seen[i] = runtime::resolve_jobs(0);
      explicit_request[i] = runtime::resolve_jobs(3);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(seen[i], share) << "index " << i;
      EXPECT_EQ(explicit_request[i], 3) << "index " << i;
    }
  }
  // The caller's own resolution is untouched afterwards.
  EXPECT_EQ(runtime::resolve_jobs(0), before);
}

TEST(ResolveJobsTest, ExplicitRequestWinsOverDefault) {
  runtime::set_default_jobs(3);
  EXPECT_EQ(runtime::resolve_jobs(5), 5);
  EXPECT_EQ(runtime::resolve_jobs(0), 3);
  runtime::set_default_jobs(0);  // back to auto
  EXPECT_GE(runtime::resolve_jobs(0), 1);
}

}  // namespace
}  // namespace dfsim
