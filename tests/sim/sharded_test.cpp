// The sharded engine's determinism contract: results are a function of
// (config, seed) only — never of the worker count, although the worker
// count sets how the groups are cut into shards. jobs=1 and jobs=N must
// produce bit-identical results for every run shape (steady, phased,
// faulted, ON/OFF), checkpoints cut under the sharded engine must be the
// same bytes at every worker count and resume bit-identically at any,
// and the sharded engine must agree with the exact engine statistically
// (same network, same offered load — only the RNG-stream assignment
// differs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/simulator.hpp"
#include "api/sweep.hpp"
#include "common/stats.hpp"
#include "routing/factory.hpp"
#include "runtime/parallel_for.hpp"
#include "sim/engine.hpp"
#include "traffic/factory.hpp"
#include "traffic/pattern.hpp"

namespace dfsim {
namespace {

/// Pins the process-default worker count for one scope; restores the
/// auto default on exit so tests never leak jobs settings into each
/// other (ctest runs the whole binary as one process).
class JobsGuard {
 public:
  explicit JobsGuard(int jobs) { runtime::set_default_jobs(jobs); }
  ~JobsGuard() { runtime::set_default_jobs(0); }
  JobsGuard(const JobsGuard&) = delete;
  JobsGuard& operator=(const JobsGuard&) = delete;
};

SimConfig sharded_config() {
  SimConfig cfg;
  cfg.h = 2;  // 9 groups, 36 routers — seconds, not minutes
  cfg.engine = "sharded";
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 1200;
  cfg.load = 0.3;
  cfg.seed = 11;
  return cfg;
}

/// p2a6h3g8: a < 2h leaves global-port slots unwired, g < a*h + 1 wires
/// several links between each group pair, and its 8 groups split
/// raggedly across worker counts.
SimConfig unbalanced_config() {
  SimConfig cfg = sharded_config();
  cfg.h = 0;
  cfg.topo = "p2a6h3g8";
  return cfg;
}

/// The engine checkpoint of `cfg` cut after `cycles` cycles at `jobs`.
std::string checkpoint_after(const SimConfig& cfg, int jobs, Cycle cycles) {
  JobsGuard guard(jobs);
  SimulationRun run = SimulationRun::steady(cfg);
  run.advance(cycles);
  std::stringstream snap;
  run.save_checkpoint(snap);
  return snap.str();
}

SteadyResult steady_with_jobs(const SimConfig& cfg, int jobs) {
  JobsGuard guard(jobs);
  return run_steady(cfg);
}

void expect_same_steady(const SteadyResult& a, const SteadyResult& b) {
  EXPECT_EQ(a.avg_latency, b.avg_latency);  // exact doubles throughout:
  EXPECT_EQ(a.p99_latency, b.p99_latency);  // the contract is bit
  EXPECT_EQ(a.accepted_load, b.accepted_load);  // identity, not closeness
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.source_drop_rate, b.source_drop_rate);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dead_destination_drops, b.dead_destination_drops);
  EXPECT_EQ(a.deadlock, b.deadlock);
}

// --- worker-count invariance --------------------------------------------

TEST(ShardedDeterminism, SteadyIsWorkerCountInvariant) {
  const SimConfig cfg = sharded_config();
  const SteadyResult serial = steady_with_jobs(cfg, 1);
  const SteadyResult parallel = steady_with_jobs(cfg, 8);
  EXPECT_GT(serial.delivered, 0u);
  expect_same_steady(serial, parallel);
}

TEST(ShardedDeterminism, AdaptiveRoutingIsWorkerCountInvariant) {
  // OLM exercises the keyed per-VC routing streams (escape-ladder
  // tiebreaks draw from ctx.rng) much harder than minimal routing.
  SimConfig cfg = sharded_config();
  cfg.routing = "olm";
  cfg.pattern = "advg+1";
  cfg.load = 0.25;
  expect_same_steady(steady_with_jobs(cfg, 1), steady_with_jobs(cfg, 8));
}

TEST(ShardedDeterminism, OnOffSourcesAreWorkerCountInvariant) {
  // ON/OFF sources chain several draws per terminal per cycle — the
  // keyed injection stream must replay that chain identically no matter
  // which worker owns the terminal's group.
  SimConfig cfg = sharded_config();
  cfg.onoff_on = 0.05;
  cfg.onoff_off = 0.05;
  expect_same_steady(steady_with_jobs(cfg, 1), steady_with_jobs(cfg, 8));
}

TEST(ShardedDeterminism, FaultedTopologyIsWorkerCountInvariant) {
  SimConfig cfg = sharded_config();
  cfg.fault_spec = "r:4,r:5,r:6,r:7";  // one whole dead group
  const SteadyResult serial = steady_with_jobs(cfg, 1);
  const SteadyResult parallel = steady_with_jobs(cfg, 8);
  EXPECT_GT(serial.delivered, 0u);
  expect_same_steady(serial, parallel);
}

TEST(ShardedDeterminism, UnbalancedShapeIsWorkerCountInvariant) {
  // The shard partitioner must handle ragged group-to-worker assignments
  // without the RNG keying noticing.
  const SimConfig cfg = unbalanced_config();
  const SteadyResult serial = steady_with_jobs(cfg, 1);
  const SteadyResult parallel = steady_with_jobs(cfg, 8);
  EXPECT_GT(serial.delivered, 0u);
  expect_same_steady(serial, parallel);
}

TEST(ShardedDeterminism, WorkloadIsWorkerCountInvariant) {
  // A 2-job workload drives per-terminal loads, forced reply/body
  // injections and per-job metric attribution — all of which must stay a
  // pure function of (config, seed) no matter how groups map to workers.
  SimConfig cfg = sharded_config();
  cfg.workload = "jobs:2:alltoall:size=1-3:reply=1|ring@0.15";
  cfg.load = 0.1;
  const SteadyResult serial = steady_with_jobs(cfg, 1);
  const SteadyResult parallel = steady_with_jobs(cfg, 8);
  EXPECT_GT(serial.delivered, 0u);
  expect_same_steady(serial, parallel);
  ASSERT_EQ(serial.per_job.size(), 2u);
  ASSERT_EQ(parallel.per_job.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    SCOPED_TRACE(j);
    EXPECT_GT(serial.per_job[j].delivered, 0u);
    EXPECT_EQ(serial.per_job[j].delivered, parallel.per_job[j].delivered);
    EXPECT_EQ(serial.per_job[j].delivered_phits,
              parallel.per_job[j].delivered_phits);
    EXPECT_EQ(serial.per_job[j].avg_latency, parallel.per_job[j].avg_latency);
    EXPECT_EQ(serial.per_job[j].accepted_load,
              parallel.per_job[j].accepted_load);
  }
}

TEST(ShardedDeterminism, PhasedRunIsWorkerCountInvariant) {
  SimConfig cfg = sharded_config();
  const std::vector<Phase> phases = {
      {600, 2, "", -1.0},          // steady under the config pattern
      {600, 2, "advg+1", 0.2},      // mid-run pattern + load switch
  };
  PhasedResult serial, parallel;
  {
    JobsGuard guard(1);
    serial = run_phased(cfg, phases);
  }
  {
    JobsGuard guard(8);
    parallel = run_phased(cfg, phases);
  }
  ASSERT_EQ(serial.windows.size(), parallel.windows.size());
  for (std::size_t i = 0; i < serial.windows.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial.windows[i].stats.delivered,
              parallel.windows[i].stats.delivered);
    EXPECT_EQ(serial.windows[i].stats.avg_latency,
              parallel.windows[i].stats.avg_latency);
    EXPECT_EQ(serial.windows[i].stats.accepted_load,
              parallel.windows[i].stats.accepted_load);
  }
  EXPECT_EQ(serial.drain.delivered, parallel.drain.delivered);
  EXPECT_EQ(serial.drained, parallel.drained);
  expect_same_steady(serial.total, parallel.total);
}

// --- checkpointing under the sharded engine ------------------------------

TEST(ShardedCheckpoint, MidRunCutResumesBitIdentically) {
  const SimConfig cfg = sharded_config();
  JobsGuard guard(8);

  SimulationRun reference = SimulationRun::steady(cfg);
  reference.run_to_completion();

  SimulationRun cut = SimulationRun::steady(cfg);
  cut.advance(700);  // mid-measurement, flits in flight
  std::stringstream snap;
  cut.save_checkpoint(snap);

  SimulationRun resumed = SimulationRun::steady(cfg);
  resumed.restore(snap);
  resumed.run_to_completion();
  expect_same_steady(reference.steady_result(), resumed.steady_result());
}

TEST(ShardedCheckpoint, CheckpointStreamIsWorkerCountInvariant) {
  // Stronger than result equality: the serialized engine state itself —
  // every queue, credit counter, in-flight packet and per-shard pool
  // slab — must match byte for byte between worker counts.
  for (const SimConfig& cfg : {sharded_config(), unbalanced_config()}) {
    SCOPED_TRACE(cfg.topo.empty() ? "h=2" : cfg.topo);
    EXPECT_EQ(checkpoint_after(cfg, 1, 700), checkpoint_after(cfg, 8, 700));
  }
}

TEST(ShardedCheckpoint, KilledRunResumesToByteIdenticalEnd) {
  // A run cut mid-measurement and resumed in a fresh process image must
  // end in exactly the state of the uninterrupted run: same results and
  // the same final checkpoint bytes. The stream holds no trace of the
  // partition, so this holds across worker counts too: cut at 4 workers,
  // resumed at 2, it ends where a single-worker run ends.
  struct Workers {
    int reference, cut, resume;
  };
  for (const SimConfig& cfg : {sharded_config(), unbalanced_config()}) {
    for (const Workers w : {Workers{4, 4, 4}, Workers{1, 4, 2}}) {
      SCOPED_TRACE((cfg.topo.empty() ? "h=2" : cfg.topo) + " workers " +
                   std::to_string(w.reference) + "/" + std::to_string(w.cut) +
                   "/" + std::to_string(w.resume));
      SteadyResult reference;
      std::stringstream end_ref;
      {
        JobsGuard guard(w.reference);
        SimulationRun run = SimulationRun::steady(cfg);
        run.run_to_completion();
        reference = run.steady_result();
        run.save_checkpoint(end_ref);
      }
      std::stringstream snap;
      {
        JobsGuard guard(w.cut);
        SimulationRun killed = SimulationRun::steady(cfg);
        killed.advance(900);
        killed.save_checkpoint(snap);
      }
      JobsGuard guard(w.resume);
      SimulationRun resumed = SimulationRun::steady(cfg);
      resumed.restore(snap);
      resumed.run_to_completion();
      std::stringstream end_resumed;
      resumed.save_checkpoint(end_resumed);

      expect_same_steady(reference, resumed.steady_result());
      EXPECT_EQ(end_ref.str(), end_resumed.str());
    }
  }
}

TEST(ShardedCheckpoint, ParallelPacketCreationMatchesSerial) {
  // Phase 3 creates packets on every worker at once, each shard from its
  // own pool slab, and grows the slabs' chunks concurrently. At a
  // saturating load on 4 workers every slab must grow, and the saved
  // state must be exactly what a single worker saves (the tsan job runs
  // this case).
  DragonflyTopology topo(3);  // 19 groups: shards of 4, 5, 5, 5 at 4 workers
  UniformPattern pattern(topo);
  InjectionProcess inj;
  inj.load = 1.0;
  const auto run = [&](int jobs) {
    EngineConfig ec;
    ec.sharded = true;
    ec.shard_jobs = jobs;
    const auto routing = make_routing("olm", topo, {});
    Engine engine(topo, ec, *routing, pattern, inj);
    engine.run_until(500);
    EXPECT_FALSE(engine.deadlock_detected());
    const PacketPool& pool = engine.packet_pool();
    EXPECT_EQ(pool.num_slabs(), static_cast<std::size_t>(jobs));
    int multi_chunk = 0;
    for (std::size_t s = 0; s < pool.num_slabs(); ++s) {
      if (pool.handed_out(s) > PacketPool::kChunkPackets) ++multi_chunk;
    }
    EXPECT_EQ(multi_chunk, jobs) << "slabs must grow during the parallel phase";
    std::stringstream snap;
    engine.save_checkpoint(snap);
    return snap.str();
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ShardedCheckpoint, SaturatedFlitSlabsMatchSerial) {
  // Arrivals (phase 1) and sends (phase 3) push and pop flits through
  // each shard's own flit slab on 4 workers at once. At load 1.0 the
  // global VCs fill to several chunks and the slabs grow and recycle
  // chunks every cycle; buffer contents, the chunks the VCs hold and the
  // checkpoint must match a single worker exactly (the tsan job runs this
  // case). How many chunks each slab has allocated depends on how the
  // VCs are grouped into slabs, so only the chunks in use are compared.
  DragonflyTopology topo(3);
  UniformPattern pattern(topo);
  InjectionProcess inj;
  inj.load = 1.0;
  const auto run = [&](int jobs, std::size_t* held,
                       std::size_t* largest_slab) {
    EngineConfig ec;
    ec.sharded = true;
    ec.shard_jobs = jobs;
    const auto routing = make_routing("minimal", topo, {});
    Engine engine(topo, ec, *routing, pattern, inj);
    engine.run_until(800);
    EXPECT_FALSE(engine.deadlock_detected());
    EXPECT_EQ(engine.num_flit_slabs(), static_cast<std::size_t>(jobs));
    for (std::size_t s = 0; s < engine.num_flit_slabs(); ++s) {
      *held += engine.flit_slab(s).chunks_in_use();
      *largest_slab =
          std::max(*largest_slab, engine.flit_slab(s).num_chunks());
    }
    std::stringstream snap;
    engine.save_checkpoint(snap);
    return snap.str();
  };
  std::size_t serial_held = 0, parallel_held = 0;
  std::size_t serial_largest = 0, parallel_largest = 0;
  const std::string serial = run(1, &serial_held, &serial_largest);
  EXPECT_EQ(serial, run(4, &parallel_held, &parallel_largest));
  EXPECT_GT(serial_held, 0u) << "saturated buffers must hold flits";
  EXPECT_EQ(serial_held, parallel_held);
  EXPECT_GT(parallel_largest, 16u)
      << "some slab must grow past its first block";
}

TEST(ShardedCheckpoint, EngineModeMismatchIsRejected) {
  SimConfig exact_cfg = sharded_config();
  exact_cfg.engine = "exact";
  SimulationRun exact_run = SimulationRun::steady(exact_cfg);
  exact_run.advance(500);
  std::stringstream snap;
  exact_run.save_checkpoint(snap);

  SimulationRun sharded_run = SimulationRun::steady(sharded_config());
  try {
    sharded_run.restore(snap);
    FAIL() << "restore() accepted a checkpoint from the other engine";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("engine"), std::string::npos)
        << e.what();
  }
}

// Every older engine section fails with one message naming the version
// it holds and the one this build reads, never a misparse further in.
class CheckpointVersion : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CheckpointVersion, OlderStreamRejectedPointedly) {
  const std::uint32_t version = GetParam();
  std::string bytes = checkpoint_after(sharded_config(), 1, 700);
  // The engine section starts with its own magic; the version u32 sits in
  // the 4 bytes right after it (little-endian).
  const std::size_t eng = bytes.find("DFENGCK\n");
  ASSERT_NE(eng, std::string::npos);
  for (int b = 0; b < 4; ++b) {
    bytes[eng + 8 + static_cast<std::size_t>(b)] =
        static_cast<char>((version >> (8 * b)) & 0xffu);
  }

  SimulationRun fresh = SimulationRun::steady(sharded_config());
  std::istringstream is(bytes);
  try {
    fresh.restore(is);
    FAIL() << "restore() accepted a version-" << version << " engine section";
  } catch (const std::runtime_error& e) {
    const std::string expected =
        "checkpoint format version " + std::to_string(version) +
        " is not supported; this build reads " +
        std::to_string(Engine::kCheckpointVersion) +
        "; re-run the checkpointed experiment";
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardedCheckpoint, CheckpointVersion, ::testing::Values(2u, 3u, 4u, 5u),
    [](const ::testing::TestParamInfo<std::uint32_t>& info) {
      return "v" + std::to_string(info.param);
    });

TEST(ShardedCheckpoint, WorkloadMidRunCutResumesBitIdentically) {
  SimConfig cfg = sharded_config();
  cfg.workload = "jobs:2:alltoall:size=1-3:reply=1|ring@0.15";
  cfg.load = 0.1;
  JobsGuard guard(8);

  SimulationRun reference = SimulationRun::steady(cfg);
  reference.run_to_completion();

  SimulationRun cut = SimulationRun::steady(cfg);
  cut.advance(700);  // mid-measurement: forced queues non-empty
  std::stringstream snap;
  cut.save_checkpoint(snap);

  SimulationRun resumed = SimulationRun::steady(cfg);
  resumed.restore(snap);
  resumed.run_to_completion();
  expect_same_steady(reference.steady_result(), resumed.steady_result());
  const SteadyResult a = reference.steady_result();
  const SteadyResult b = resumed.steady_result();
  ASSERT_EQ(a.per_job.size(), 2u);
  ASSERT_EQ(b.per_job.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(a.per_job[j].delivered, b.per_job[j].delivered);
    EXPECT_EQ(a.per_job[j].avg_latency, b.per_job[j].avg_latency);
  }
}

// --- the partition --------------------------------------------------------

TEST(ShardedPartition, EveryWorkerCountGivesTheSameRun) {
  // W workers cut the groups into W contiguous ranges, so each worker
  // count is a different partition: p2a6h3g8's 8 groups split 8, 4+4,
  // 2+3+3 and 2+2+2+2; h=2's 9 groups with one dead group split 9, 4+5,
  // 3+3+3 and 2+2+2+3. Results (every double compared exactly) and the
  // checkpoint bytes must not see the cut.
  SimConfig unbalanced = unbalanced_config();
  unbalanced.routing = "olm";
  SimConfig faulted = sharded_config();
  faulted.routing = "olm";
  faulted.fault_spec = "r:4,r:5,r:6,r:7";  // group 1, whole
  for (const SimConfig& cfg : {unbalanced, faulted}) {
    SCOPED_TRACE(cfg.topo.empty() ? "h=2 faulted" : cfg.topo);
    const SteadyResult one = steady_with_jobs(cfg, 1);
    const std::string one_snap = checkpoint_after(cfg, 1, 700);
    EXPECT_GT(one.delivered, 0u);
    for (const int jobs : {2, 3, 4}) {
      SCOPED_TRACE(jobs);
      expect_same_steady(one, steady_with_jobs(cfg, jobs));
      EXPECT_EQ(one_snap, checkpoint_after(cfg, jobs, 700));
    }
  }
}

TEST(ShardedPartition, HooksFireInTheSameOrderForEveryWorkerCount) {
  // Hop and generation hooks are staged per shard and replayed at the
  // flush; the sequence a user sees, both kinds interleaved, must not
  // depend on how many shards the groups were cut into.
  DragonflyTopology topo(2);
  UniformPattern pattern(topo);
  InjectionProcess inj;
  inj.load = 0.4;
  const auto run = [&](int jobs) {
    EngineConfig ec;
    ec.sharded = true;
    ec.shard_jobs = jobs;
    ec.seed = 5;
    const auto routing = make_routing("olm", topo, {});
    Engine engine(topo, ec, *routing, pattern, inj);
    std::ostringstream log;
    engine.set_hop_hook(
        [&](const Packet& pkt, const RouteChoice& choice, RouterId r) {
          log << 'h' << pkt.src << '>' << pkt.dst << '@' << r << ':'
              << choice.port << '/' << choice.vc << ' ';
        });
    engine.set_generation_hook([&](Cycle now, bool accepted) {
      log << 'g' << now << (accepted ? '+' : '-') << ' ';
    });
    engine.run_until(400);
    return log.str();
  };
  const std::string one = run(1);
  EXPECT_NE(one.find('h'), std::string::npos);
  EXPECT_NE(one.find('g'), std::string::npos);
  for (const int jobs : {2, 3, 4}) {
    SCOPED_TRACE(jobs);
    EXPECT_EQ(one, run(jobs));
  }
}

// --- phase profiler ------------------------------------------------------

TEST(ShardedProfile, PhaseCountersTileTheTotal) {
  // Timestamps are taken at phase boundaries, so the four phase counters
  // must sum to the step total exactly — any gap means a phase is timed
  // against the wrong edge (and the serial-fraction telemetry lies).
  // Exact mode runs the same four phases as the one-shard case.
  DragonflyTopology topo(2);
  RoutingParams rp;
  auto routing = make_routing("olm", topo, rp);
  auto pattern = make_pattern_spec(topo, "un");
  for (const bool sharded : {true, false}) {
    SCOPED_TRACE(sharded ? "sharded" : "exact");
    EngineConfig ec;
    ec.sharded = sharded;
    ec.shard_jobs = sharded ? 2 : 0;
    ec.profile = true;
    ec.seed = 7;
    InjectionProcess inj;
    inj.load = 0.3;
    Engine engine(topo, ec, *routing, *pattern, inj);
    ASSERT_TRUE(engine.profiling());
    for (int i = 0; i < 200; ++i) engine.step();

    const Engine::PhaseProfile& p = engine.phase_profile();
    EXPECT_EQ(p.steps, 200u);
    EXPECT_GT(p.total_ns, 0u);
    EXPECT_EQ(p.arrive_ns + p.deliver_ns + p.alloc_ns + p.flush_ns,
              p.total_ns);
    EXPECT_GT(p.serial_fraction(), 0.0);
    EXPECT_LT(p.serial_fraction(), 1.0);
  }
}

TEST(ShardedProfile, OffByDefaultAndAllZero) {
  // Profiling off is the hot configuration: the counters must stay
  // untouched (no clock reads leak into the unprofiled step path).
  DragonflyTopology topo(2);
  RoutingParams rp;
  auto routing = make_routing("olm", topo, rp);
  auto pattern = make_pattern_spec(topo, "un");
  for (const bool sharded : {true, false}) {
    SCOPED_TRACE(sharded ? "sharded" : "exact");
    EngineConfig ec;
    ec.sharded = sharded;
    ec.shard_jobs = sharded ? 2 : 0;
    ec.seed = 7;
    InjectionProcess inj;
    inj.load = 0.3;
    Engine engine(topo, ec, *routing, *pattern, inj);
    EXPECT_FALSE(engine.profiling());
    for (int i = 0; i < 50; ++i) engine.step();

    const Engine::PhaseProfile& p = engine.phase_profile();
    EXPECT_EQ(p.steps, 0u);
    EXPECT_EQ(p.total_ns, 0u);
    EXPECT_EQ(p.arrive_ns + p.deliver_ns + p.alloc_ns + p.flush_ns, 0u);
    EXPECT_EQ(p.serial_fraction(), 0.0);
  }
}

// --- exact vs sharded statistical agreement ------------------------------

TEST(ShardedVsExact, SteadyStateStatisticsAgree) {
  // The two engines draw from differently-structured RNG streams, so
  // individual runs differ — but they simulate the same network at the
  // same offered load, so replicated means must agree within error bars.
  SimConfig cfg = sharded_config();
  cfg.measure_cycles = 2000;
  constexpr int kReps = 5;

  // Replications are a grid of one config: run_experiments seeds each
  // point from cfg.seed and its index.
  std::vector<ExperimentPoint> grid;
  for (const char* engine : {"exact", "sharded"}) {
    cfg.engine = engine;
    for (int k = 0; k < kReps; ++k) grid.push_back({engine, 0.0, cfg, {}});
  }
  const std::vector<ExperimentResult> runs = run_experiments(grid);
  RunningStat accepted[2], latency[2];
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ASSERT_FALSE(runs[i].steady.deadlock) << "point " << i;
    accepted[i / kReps].add(runs[i].steady.accepted_load);
    latency[i / kReps].add(runs[i].steady.avg_latency);
  }

  // Welch-style combined standard error, generous 5-sigma band plus an
  // absolute floor so a near-zero-variance pair can't flake the test.
  const auto within = [](const RunningStat& a, const RunningStat& b,
                         double floor_abs) {
    const double se = std::sqrt(a.stddev() * a.stddev() / kReps +
                                b.stddev() * b.stddev() / kReps);
    return std::abs(a.mean() - b.mean()) <= 5.0 * se + floor_abs;
  };
  EXPECT_TRUE(within(accepted[0], accepted[1], 0.01))
      << "exact=" << accepted[0].mean() << " sharded=" << accepted[1].mean();
  EXPECT_TRUE(within(latency[0], latency[1], 2.0))
      << "exact=" << latency[0].mean() << " sharded=" << latency[1].mean();
}

}  // namespace
}  // namespace dfsim
