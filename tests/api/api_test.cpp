// Facade-level behaviour: config derivation, environment defaults,
// replication, sweeps and CSV output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>

#include "api/experiment.hpp"
#include "api/simulator.hpp"
#include "api/sweep.hpp"
#include "common/csv.hpp"
#include "common/env.hpp"
#include "routing/factory.hpp"

namespace dfsim {
namespace {

TEST(Config, RaisesVcsToMechanismMinimum) {
  const DragonflyTopology topo(2);
  SimConfig cfg;
  cfg.local_vcs = 3;
  const auto par = make_routing("par-6/2", topo, cfg.routing_params());
  EXPECT_EQ(cfg.engine_config(*par).local_vcs, 6);
  const auto olm = make_routing("olm", topo, cfg.routing_params());
  EXPECT_EQ(cfg.engine_config(*olm).local_vcs, 3);
}

TEST(Config, RoutingParamsCarryThreshold) {
  SimConfig cfg;
  cfg.misroute_threshold = 0.6;
  cfg.pb_threshold = 0.2;
  const RoutingParams rp = cfg.routing_params();
  EXPECT_DOUBLE_EQ(rp.adaptive.threshold, 0.6);
  EXPECT_DOUBLE_EQ(rp.piggyback.saturation_threshold, 0.2);
}

TEST(Config, BenchDefaultsHonourEnvironment) {
  ::setenv("DF_H", "2", 1);
  ::setenv("DF_WARMUP", "111", 1);
  ::setenv("DF_MEASURE", "222", 1);
  ::setenv("DF_SEED", "33", 1);
  const SimConfig cfg = bench_defaults();
  EXPECT_EQ(cfg.h, 2);
  EXPECT_EQ(cfg.warmup_cycles, 111u);
  EXPECT_EQ(cfg.measure_cycles, 222u);
  EXPECT_EQ(cfg.seed, 33u);
  ::unsetenv("DF_H");
  ::unsetenv("DF_WARMUP");
  ::unsetenv("DF_MEASURE");
  ::unsetenv("DF_SEED");
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("DF_TEST_INT", "42", 1);
  EXPECT_EQ(env_number("DF_TEST_INT", 7), 42);
  EXPECT_EQ(env_number("DF_TEST_MISSING", 7), 7);
  ::setenv("DF_TEST_INT", "junk", 1);
  EXPECT_EQ(env_number("DF_TEST_INT", 7), 7);
  ::setenv("DF_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("DF_TEST_FLAG"));
  ::setenv("DF_TEST_FLAG", "1", 1);
  EXPECT_TRUE(env_flag("DF_TEST_FLAG"));
  ::setenv("DF_TEST_DBL", "0.25", 1);
  EXPECT_DOUBLE_EQ(env_number("DF_TEST_DBL", 1.0), 0.25);
  EXPECT_EQ(env_str("DF_TEST_MISSING", "dflt"), "dflt");
  ::unsetenv("DF_TEST_INT");
  ::unsetenv("DF_TEST_FLAG");
  ::unsetenv("DF_TEST_DBL");
}

TEST(Replication, AggregatesAcrossSeeds) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = "minimal";
  cfg.load = 0.2;
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 2000;
  const ReplicatedResult r = run_replicated(cfg, 3);
  EXPECT_EQ(r.replications, 3);
  EXPECT_EQ(r.deadlocks, 0);
  EXPECT_EQ(r.accepted_load.count(), 3u);
  EXPECT_NEAR(r.accepted_mean(), 0.2, 0.03);
  // Independent seeds differ, so there is *some* spread.
  EXPECT_GT(r.latency_stddev(), 0.0);
}

// Regression: replication k used to run with seed `base + k`, so
// replication 1 of base seed s was the *same stream* as replication 0 of
// base seed s+1 — neighboring sweep points shared error-bar samples.
TEST(Replication, SeedsAreDerivedNotOffsets) {
  EXPECT_NE(replication_seed(1, 1), replication_seed(2, 0));
  EXPECT_NE(replication_seed(1, 2), replication_seed(3, 0));
  std::set<std::uint64_t> all;
  for (std::uint64_t base = 1; base <= 4; ++base) {
    for (int k = 0; k < 4; ++k) all.insert(replication_seed(base, k));
  }
  EXPECT_EQ(all.size(), 16u);  // base+k collides 6 of these
}

TEST(Replication, ExposesPerRunSeedsAndResults) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = "minimal";
  cfg.load = 0.2;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 1000;
  const ReplicatedResult r = run_replicated(cfg, 2);
  ASSERT_EQ(r.seeds.size(), 2u);
  ASSERT_EQ(r.runs.size(), 2u);
  EXPECT_EQ(r.seeds[0], replication_seed(cfg.seed, 0));
  EXPECT_EQ(r.seeds[1], replication_seed(cfg.seed, 1));
  EXPECT_NE(r.seeds[0], r.seeds[1]);
  EXPECT_GT(r.runs[0].delivered, 0u);
}

// Regression: the collector counted generated/dropped packets but
// run_steady never surfaced them, so a saturated point (sources dropping
// under the queue cap) looked identical to a healthy accepted-load
// plateau.
TEST(Facade, SurfacesOfferedLoadAndDropRate) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = "minimal";
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 4000;

  cfg.load = 0.2;  // far below saturation: healthy sources
  const SteadyResult light = run_steady(cfg);
  EXPECT_NEAR(light.offered_load, 0.2, 0.05);
  EXPECT_DOUBLE_EQ(light.source_drop_rate, 0.0);

  // Full load on ADVG+1: minimal routing caps at the single global link
  // (~1/(a*p) accepted), so the source-queue cap must bind and drop.
  cfg.pattern = "advg";
  cfg.pattern_offset = 1;
  cfg.load = 1.0;
  const SteadyResult heavy = run_steady(cfg);
  EXPECT_GT(heavy.offered_load, heavy.accepted_load);
  EXPECT_GT(heavy.source_drop_rate, 0.0);
}

TEST(Sweep, ProducesOnePointPerComboInOrder) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 1000;
  const auto pts =
      run_experiments(sweep_grid(cfg, {"minimal", "valiant"}, {0.1, 0.2}));
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].series, "minimal");
  EXPECT_DOUBLE_EQ(pts[0].x, 0.1);
  EXPECT_EQ(pts[3].series, "valiant");
  EXPECT_DOUBLE_EQ(pts[3].x, 0.2);
}

TEST(Sweep, PrintFormatsCsv) {
  std::ostringstream os;
  std::vector<ExperimentResult> pts(1);
  pts[0].series = "olm";
  pts[0].x = 0.5;
  pts[0].steady.avg_latency = 123.5;
  pts[0].steady.accepted_load = 0.25;
  pts[0].steady.offered_load = 0.5;
  pts[0].steady.source_drop_rate = 0.125;
  print_sweep(os, pts, Metric::kLatency, "offered_load");
  EXPECT_EQ(os.str(),
            "series,offered_load,avg_latency_cycles,offered_load_measured,"
            "source_drop_rate\nolm,0.5,123.5,0.5,0.125\n");
}

TEST(Sweep, DefaultLoadsAreEvenlySpaced) {
  const auto loads = default_loads(1.0, 4);
  ASSERT_EQ(loads.size(), 4u);
  EXPECT_DOUBLE_EQ(loads[0], 0.25);
  EXPECT_DOUBLE_EQ(loads[3], 1.0);
}

TEST(Csv, EscapesNothingButFormatsCompactly) {
  std::ostringstream os;
  CsvWriter csv(os, {"a", "b"});
  csv.row({"x", CsvWriter::fmt(0.123456789)});
  csv.point("s", 1.0, 2.5);
  EXPECT_EQ(os.str(), "a,b\nx,0.123457\ns,1,2.5\n");
}

TEST(Facade, RejectsUnknownRouting) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = "nonsense";
  EXPECT_THROW(run_steady(cfg), std::invalid_argument);
}

TEST(Facade, RejectsUnknownPattern) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.pattern = "nonsense";
  EXPECT_THROW(run_steady(cfg), std::invalid_argument);
}

TEST(Facade, BurstCompletesOnTinyNetwork) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = "rlm";
  cfg.pattern = "uniform";
  cfg.burst_packets = 10;
  cfg.max_cycles = 200000;
  const BurstResult r = run_burst(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.deadlock);
  EXPECT_GT(r.consumption_cycles, 0u);
}

}  // namespace
}  // namespace dfsim
