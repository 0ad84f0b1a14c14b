// The workload layer: spec parsing with pointed errors, job placement
// (a bijection onto the terminals under every policy), per-job metric
// attribution (windows tile the run and sum to the whole-run totals),
// request-reply causality, and trace replay round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/simulator.hpp"
#include "common/rng.hpp"
#include "topology/dragonfly_topology.hpp"
#include "traffic/workload.hpp"

namespace dfsim {
namespace {

// --- placement -----------------------------------------------------------

void expect_partition_bijection(const DragonflyTopology& topo,
                                const std::string& spec) {
  SCOPED_TRACE(spec);
  const auto w = make_workload(&topo, spec);
  ASSERT_NE(w, nullptr);
  const int n = topo.num_terminals();
  const auto& job_of = w->job_of_terminal();
  ASSERT_EQ(job_of.size(), static_cast<std::size_t>(n));
  std::vector<int> counted(static_cast<std::size_t>(w->num_jobs()), 0);
  for (int t = 0; t < n; ++t) {
    const std::int32_t j = job_of[static_cast<std::size_t>(t)];
    ASSERT_GE(j, 0) << "terminal " << t << " belongs to no job";
    ASSERT_LT(j, w->num_jobs());
    ++counted[static_cast<std::size_t>(j)];
  }
  const std::vector<std::int32_t> sizes = w->job_sizes();
  ASSERT_EQ(sizes.size(), counted.size());
  int total = 0;
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    EXPECT_EQ(sizes[j], counted[j]) << "job " << j;
    EXPECT_GE(sizes[j], 2) << "job " << j;
    total += sizes[j];
  }
  EXPECT_EQ(total, n);
}

TEST(WorkloadPlacement, EveryPolicyPartitionsTheTerminals) {
  const DragonflyTopology balanced(2);            // 72 terminals
  const DragonflyTopology unbalanced(2, 6, 3, 8);  // 96 terminals
  for (const auto* topo : {&balanced, &unbalanced}) {
    for (const char* place : {"contig", "random", "rr"}) {
      expect_partition_bijection(
          *topo, std::string("jobs:4:place=") + place + ":alltoall|ring");
    }
    // 5 jobs does not divide either terminal count: remainders must be
    // absorbed, not dropped.
    expect_partition_bijection(*topo, "jobs:5:shift+1");
  }
}

TEST(WorkloadPlacement, ContigIsAscendingBlocksAndRrIsModulo) {
  const DragonflyTopology topo(2);  // 72 terminals
  const auto contig = make_workload(&topo, "jobs:4:alltoall");
  const auto& cj = contig->job_of_terminal();
  EXPECT_EQ(cj[0], 0);
  EXPECT_EQ(cj[17], 0);
  EXPECT_EQ(cj[18], 1);
  EXPECT_EQ(cj[71], 3);
  const auto rr = make_workload(&topo, "jobs:4:place=rr:alltoall");
  for (int t = 0; t < 72; ++t) {
    EXPECT_EQ(rr->job_of_terminal()[static_cast<std::size_t>(t)], t % 4);
  }
}

TEST(WorkloadPlacement, RandomPlacementIsSeedStableAndSeedSensitive) {
  const DragonflyTopology topo(2);
  const auto a = make_workload(&topo, "jobs:4:place=random:alltoall");
  const auto b = make_workload(&topo, "jobs:4:place=random:alltoall");
  EXPECT_EQ(a->job_of_terminal(), b->job_of_terminal());
  const auto c = make_workload(&topo, "jobs:4:place=random:seed=9:alltoall");
  EXPECT_NE(a->job_of_terminal(), c->job_of_terminal());
  // Random placement scatters: the first contiguous block must not all
  // land in one job.
  std::set<std::int32_t> first_block(a->job_of_terminal().begin(),
                                     a->job_of_terminal().begin() + 18);
  EXPECT_GT(first_block.size(), 1u);
}

TEST(WorkloadMotifs, DestinationsStayJobLocalAndNeverSelf) {
  const DragonflyTopology topo(2, 6, 3, 8);  // 96 terminals
  for (const char* spec :
       {"jobs:3:alltoall", "jobs:3:ring", "jobs:3:halo2d",
        "jobs:3:shift+5", "jobs:3:place=random:alltoall|halo2d|ring"}) {
    SCOPED_TRACE(spec);
    const auto w = make_workload(&topo, spec);
    Rng rng(7);
    const auto& job_of = w->job_of_terminal();
    for (int t = 0; t < topo.num_terminals(); ++t) {
      for (int draw = 0; draw < 8; ++draw) {
        const NodeId dst = w->dest(t, rng);
        ASSERT_NE(dst, t) << "terminal " << t << " drew itself";
        ASSERT_EQ(job_of[static_cast<std::size_t>(dst)],
                  job_of[static_cast<std::size_t>(t)])
            << "terminal " << t << " drew dst " << dst << " across jobs";
      }
    }
  }
}

TEST(WorkloadMotifs, MessageSizesRespectTheSpecRange) {
  const DragonflyTopology topo(2);
  const auto fixed = make_workload(&topo, "coll:alltoall:size=4");
  const auto ranged = make_workload(&topo, "coll:alltoall:size=2-6");
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(fixed->message_packets(0, rng), 4);
    const int k = ranged->message_packets(0, rng);
    ASSERT_GE(k, 2);
    ASSERT_LE(k, 6);
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), 5u);  // the whole range shows up in 200 draws
}

// --- pointed spec errors -------------------------------------------------

void expect_spec_error(const std::string& spec, const std::string& needle,
                       const DragonflyTopology* topo = nullptr) {
  SCOPED_TRACE(spec);
  try {
    make_workload(topo, spec);
    FAIL() << "spec accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(WorkloadSpec, ErrorsArePointed) {
  expect_spec_error("", "known workloads: coll, jobs, trace");
  expect_spec_error("bogus:x", "unknown workload \"bogus\"");
  expect_spec_error("coll:warp", "unknown motif \"warp\"");
  expect_spec_error("coll:alltoall:reply=2", "reply=0 or reply=1");
  expect_spec_error("coll:alltoall:size=0", "1 <= min <= max");
  expect_spec_error("coll:alltoall:size=5-3", "1 <= min <= max");
  expect_spec_error("jobs:0:alltoall", "job count must be >= 1");
  expect_spec_error("jobs:2", "job list is missing");
  expect_spec_error("jobs:2:place=diagonal:alltoall",
                    "unknown placement policy \"diagonal\"");
  expect_spec_error("jobs:2:alltoall|ring|shift+1", "more job entries");
  expect_spec_error("jobs:2:alltoall@1.5", "job load must be in [0, 1]");
  const DragonflyTopology topo(2);  // 72 terminals
  expect_spec_error("jobs:40:alltoall", "40 jobs need at least 80", &topo);
  expect_spec_error("coll:halo2d:5x5", "does not match", &topo);
  expect_spec_error("coll:shift+72", "0 mod 72", &topo);
  expect_spec_error("trace:/nonexistent/file.csv", "cannot be opened",
                    &topo);
}

TEST(WorkloadSpec, ConfigValidatesSpecsAndRejectsOnOffCombination) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.workload = "coll:bogus";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.workload = "coll:alltoall";
  EXPECT_NO_THROW(cfg.validate());
  cfg.onoff_on = 0.05;
  cfg.onoff_off = 0.2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(WorkloadSpec, DescribeRoundTripsTheKnob) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.workload = "jobs:4:place=random:alltoall|ring";
  const std::string text = cfg.describe();
  EXPECT_NE(text.find("workload=jobs:4:place=random:alltoall|ring"),
            std::string::npos);
  const SimConfig back = SimConfig::parse(text);
  EXPECT_EQ(back.workload, cfg.workload);
  EXPECT_EQ(back.describe(), text);
}

// --- per-job metrics -----------------------------------------------------

SimConfig jobs_config() {
  SimConfig cfg;
  cfg.h = 2;
  cfg.load = 0.2;
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 1200;
  cfg.seed = 5;
  cfg.workload = "jobs:3:alltoall|ring|shift+1";
  return cfg;
}

TEST(WorkloadMetrics, PerJobTotalsSumToTheRunTotals) {
  const SimConfig cfg = jobs_config();
  const SteadyResult r = run_steady(cfg);
  ASSERT_FALSE(r.deadlock);
  ASSERT_EQ(r.per_job.size(), 3u);
  std::uint64_t delivered = 0, phits = 0;
  for (const TrafficWindow& w : r.per_job) {
    EXPECT_GT(w.delivered, 0u);
    delivered += w.delivered;
    phits += w.delivered_phits;
  }
  EXPECT_EQ(delivered, r.delivered);
  // Whole-run accepted load is computed from the same phit total.
  const double span = static_cast<double>(cfg.measure_cycles);
  EXPECT_EQ(r.accepted_load, static_cast<double>(phits) / (span * 72.0));
}

TEST(WorkloadMetrics, PerJobWindowsTileThePhasedRun) {
  SimConfig cfg = jobs_config();
  // Phases may not switch pattern/load under a workload (the gate is its
  // own contract, checked below) — the windows still cut per-job stats.
  const PhasedResult r = run_phased(cfg, {{600, 2, "", -1.0},
                                          {600, 2, "", -1.0}});
  EXPECT_THROW(run_phased(cfg, {{600, 2, "", 0.3}}), std::invalid_argument);
  EXPECT_THROW(run_phased(cfg, {{600, 2, "advg+1", -1.0}}),
               std::invalid_argument);
  ASSERT_FALSE(r.total.deadlock);
  ASSERT_EQ(r.total.per_job.size(), 3u);
  ASSERT_EQ(r.drain_per_job.size(), 3u);
  for (const PhaseWindow& w : r.windows) {
    ASSERT_EQ(w.per_job.size(), 3u);
    for (const TrafficWindow& jw : w.per_job) {
      EXPECT_EQ(jw.start, w.stats.start);
      EXPECT_EQ(jw.end, w.stats.end);
    }
  }
  for (std::size_t j = 0; j < 3; ++j) {
    SCOPED_TRACE(j);
    std::uint64_t delivered = r.drain_per_job[j].delivered;
    std::uint64_t phits = r.drain_per_job[j].delivered_phits;
    for (const PhaseWindow& w : r.windows) {
      delivered += w.per_job[j].delivered;
      phits += w.per_job[j].delivered_phits;
    }
    EXPECT_EQ(delivered, r.total.per_job[j].delivered);
    EXPECT_EQ(phits, r.total.per_job[j].delivered_phits);
  }
}

TEST(WorkloadMetrics, RunsReplayBySeed) {
  const SimConfig cfg = jobs_config();
  const SteadyResult a = run_steady(cfg);
  const SteadyResult b = run_steady(cfg);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.delivered, b.delivered);
  ASSERT_EQ(a.per_job.size(), b.per_job.size());
  for (std::size_t j = 0; j < a.per_job.size(); ++j) {
    EXPECT_EQ(a.per_job[j].delivered, b.per_job[j].delivered);
    EXPECT_EQ(a.per_job[j].avg_latency, b.per_job[j].avg_latency);
  }
}

// --- request-reply causality ---------------------------------------------

TEST(WorkloadReplies, RepliesRoughlyDoubleDeliveriesAndArriveLater) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.load = 0.1;
  cfg.warmup_cycles = 0;  // count every packet of the run
  cfg.measure_cycles = 2000;
  cfg.seed = 3;
  cfg.workload = "coll:alltoall:reply=0";
  const SteadyResult without = run_steady(cfg);
  cfg.workload = "coll:alltoall:reply=1";
  const SteadyResult with = run_steady(cfg);
  ASSERT_FALSE(with.deadlock);
  // Every delivered request queues a reply; replies created near the end
  // may still be in flight, so the ratio is just under 2.
  EXPECT_GT(static_cast<double>(with.delivered),
            1.7 * static_cast<double>(without.delivered));
  EXPECT_LT(static_cast<double>(with.delivered),
            2.1 * static_cast<double>(without.delivered));
  // A reply exists only after its request was delivered, so round trips
  // push the average latency up against the no-reply run.
  EXPECT_GT(with.avg_latency, without.avg_latency * 0.9);
}

// --- trace replay --------------------------------------------------------

class TraceFile {
 public:
  explicit TraceFile(const std::string& contents) {
    path_ = "workload_test_trace_" + std::to_string(counter_++) + ".csv";
    std::ofstream os(path_, std::ios::binary);
    os << contents;
  }
  ~TraceFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};

int TraceFile::counter_ = 0;

TEST(WorkloadTrace, CsvReplayDeliversEveryRowOnce) {
  // 3 rows, one oversized (33 phits -> 3 packets at packet_phits=16).
  const TraceFile trace(
      "# cycle,src,dst,size\n"
      "10,0,40,16\n"
      "10,1,50,33\n"
      "250,2,60,8\n");
  SimConfig cfg;
  cfg.h = 2;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 3000;
  cfg.packet_phits = 16;
  cfg.workload = "trace:" + trace.path();
  const SteadyResult r = run_steady(cfg);
  ASSERT_FALSE(r.deadlock);
  EXPECT_EQ(r.delivered, 5u);  // 1 + ceil(33/16) + 1 packets
  EXPECT_EQ(r.dead_destination_drops, 0u);
  ASSERT_EQ(r.per_job.size(), 1u);  // the trace pseudo-job
  EXPECT_EQ(r.per_job[0].delivered, 5u);
  // Replays are deterministic.
  const SteadyResult again = run_steady(cfg);
  EXPECT_EQ(again.delivered, r.delivered);
  EXPECT_EQ(again.avg_latency, r.avg_latency);
}

TEST(WorkloadTrace, MalformedRowsAreRejectedWithTheLine) {
  const DragonflyTopology topo(2);
  {
    const TraceFile bad("10,0,40\n");
    expect_spec_error("trace:" + bad.path(), "line 1", &topo);
  }
  {
    const TraceFile bad("10,0,400,4\n");  // dst out of range (72 terms)
    expect_spec_error("trace:" + bad.path(), "terminal ids must be in",
                      &topo);
  }
  {
    const TraceFile bad("10,0,1,4\n5,2,3,4\n");  // cycles go backwards
    expect_spec_error("trace:" + bad.path(), "non-decreasing", &topo);
  }
  {
    const TraceFile bad("10,7,7,4\n");
    expect_spec_error("trace:" + bad.path(), "src equals dst", &topo);
  }
  // Fields are whole decimal numbers: a negative cycle used to wrap to
  // 2^64 - 5, and a trailing field or character was dropped.
  for (const char* row : {"-5,1,2,8\n", "5,1,2,8,\n", "5,1,2,8x\n",
                          "5,1,,8\n"}) {
    const TraceFile bad(row);
    expect_spec_error("trace:" + bad.path(), "line 1", &topo);
    expect_spec_error("trace:" + bad.path(), bad.path(), &topo);
  }
  {
    // Blanks around the fields and a CRLF ending stay accepted.
    const TraceFile ok(" 10 , 0 ,40,4 \r\n");
    EXPECT_NO_THROW(make_workload(&topo, "trace:" + ok.path()));
  }
}

TEST(WorkloadTrace, CursorBoundsAreChecked) {
  const TraceFile trace("10,0,40,4\n");
  const DragonflyTopology topo(2);
  const auto w = make_workload(&topo, "trace:" + trace.path());
  EXPECT_EQ(w->cursor(), 0u);
  w->set_cursor(1);
  EXPECT_THROW(w->set_cursor(2), std::invalid_argument);
}

}  // namespace
}  // namespace dfsim
