// Checkpoint/restart of SimulationRun: a run cut at cycle C, serialized,
// and resumed in a fresh run object must finish with bit-identical
// results to the uninterrupted run — across every experiment shape
// (steady, burst, phased), flow control, ON/OFF sources, and degraded
// topologies. Damaged or mismatched checkpoints must be rejected with a
// pointed message, never silently mis-resumed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/simulator.hpp"

namespace dfsim {
namespace {

SimConfig small_config() {
  SimConfig cfg;
  cfg.h = 2;  // 9 groups, 36 routers — seconds, not minutes
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 1200;
  cfg.load = 0.3;
  cfg.seed = 11;
  return cfg;
}

void expect_same_steady(const SteadyResult& a, const SteadyResult& b) {
  EXPECT_EQ(a.avg_latency, b.avg_latency);  // exact doubles throughout:
  EXPECT_EQ(a.p99_latency, b.p99_latency);  // resume is bit-identity
  EXPECT_EQ(a.accepted_load, b.accepted_load);
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.source_drop_rate, b.source_drop_rate);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dead_destination_drops, b.dead_destination_drops);
  EXPECT_EQ(a.deadlock, b.deadlock);
}

void expect_same_phased(const PhasedResult& a, const PhasedResult& b) {
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.windows[i].phase, b.windows[i].phase);
    EXPECT_EQ(a.windows[i].window, b.windows[i].window);
    EXPECT_EQ(a.windows[i].pattern, b.windows[i].pattern);
    EXPECT_EQ(a.windows[i].stats.end, b.windows[i].stats.end);
    EXPECT_EQ(a.windows[i].stats.delivered, b.windows[i].stats.delivered);
    EXPECT_EQ(a.windows[i].stats.accepted_load,
              b.windows[i].stats.accepted_load);
    EXPECT_EQ(a.windows[i].stats.avg_latency,
              b.windows[i].stats.avg_latency);
  }
  EXPECT_EQ(a.drain.end, b.drain.end);
  EXPECT_EQ(a.drain.delivered, b.drain.delivered);
  EXPECT_EQ(a.drained, b.drained);
  expect_same_steady(a.total, b.total);
}

// Run to ~cut cycles, checkpoint, restore into a fresh run, finish.
SteadyResult steady_via_cut(const SimConfig& cfg, Cycle cut) {
  SimulationRun a = SimulationRun::steady(cfg);
  a.advance(cut);
  std::stringstream ss;
  a.save_checkpoint(ss);
  SimulationRun b = SimulationRun::steady(cfg);
  b.restore(ss);
  b.run_to_completion();
  return b.steady_result();
}

PhasedResult phased_via_cut(const SimConfig& cfg,
                            const std::vector<Phase>& phases, Cycle cut) {
  SimulationRun a = SimulationRun::phased(cfg, phases);
  a.advance(cut);
  std::stringstream ss;
  a.save_checkpoint(ss);
  SimulationRun b = SimulationRun::phased(cfg, phases);
  b.restore(ss);
  b.run_to_completion();
  return b.phased_result();
}

TEST(Checkpoint, SteadyResumeBitIdenticalVct) {
  const SimConfig cfg = small_config();
  const SteadyResult ref = run_steady(cfg);
  // Cuts inside warmup, inside the measurement span, and near the end.
  for (const Cycle cut : {Cycle{150}, Cycle{900}, Cycle{1550}}) {
    SCOPED_TRACE(cut);
    expect_same_steady(ref, steady_via_cut(cfg, cut));
  }
}

TEST(Checkpoint, SteadyResumeBitIdenticalWormhole) {
  SimConfig cfg = small_config();
  cfg.routing = "ugal";
  cfg.flow = FlowControl::kWormhole;
  cfg.packet_phits = 80;
  cfg.flit_phits = 10;
  const SteadyResult ref = run_steady(cfg);
  expect_same_steady(ref, steady_via_cut(cfg, 700));
}

TEST(Checkpoint, SteadyResumeBitIdenticalFaulted) {
  SimConfig cfg = small_config();
  cfg.fault_spec = "r:4,r:5,r:6,r:7";  // one whole dead group
  const SteadyResult ref = run_steady(cfg);
  expect_same_steady(ref, steady_via_cut(cfg, 800));
}

TEST(Checkpoint, SteadyResumeBitIdenticalOnOffSources) {
  SimConfig cfg = small_config();
  cfg.onoff_on = 0.05;
  cfg.onoff_off = 0.2;
  const SteadyResult ref = run_steady(cfg);
  expect_same_steady(ref, steady_via_cut(cfg, 800));
}

TEST(Checkpoint, SteadyResumeBitIdenticalPiggyback) {
  // PB is the one mechanism with cross-cycle routing state (the
  // published-congestion table), which must survive the checkpoint.
  SimConfig cfg = small_config();
  cfg.routing = "pb";
  const SteadyResult ref = run_steady(cfg);
  expect_same_steady(ref, steady_via_cut(cfg, 800));
}

TEST(Checkpoint, BurstResumeBitIdentical) {
  SimConfig cfg = small_config();
  cfg.burst_packets = 20;
  cfg.max_cycles = 400000;
  const BurstResult ref = run_burst(cfg);
  SimulationRun a = SimulationRun::burst(cfg);
  a.advance(150);
  std::stringstream ss;
  a.save_checkpoint(ss);
  SimulationRun b = SimulationRun::burst(cfg);
  b.restore(ss);
  b.run_to_completion();
  const BurstResult resumed = b.burst_result();
  EXPECT_EQ(ref.consumption_cycles, resumed.consumption_cycles);
  EXPECT_EQ(ref.completed, resumed.completed);
  EXPECT_EQ(ref.deadlock, resumed.deadlock);
}

TEST(Checkpoint, PhasedResumeBitIdentical) {
  SimConfig cfg = small_config();
  const std::vector<Phase> phases = {{800, 2, "", -1.0},
                                     {800, 2, "advg+1", 0.4}};
  const PhasedResult ref = run_phased(cfg, phases);
  // Cuts in warmup, mid-phase 0, and after the mid-run pattern+load
  // switch (the rebuilt-switched-pattern path).
  for (const Cycle cut : {Cycle{200}, Cycle{900}, Cycle{1700}}) {
    SCOPED_TRACE(cut);
    expect_same_phased(ref, phased_via_cut(cfg, phases, cut));
  }
}

TEST(Checkpoint, WorkloadResumeBitIdentical) {
  // Collective with replies, message sizes and an explicit per-job load:
  // the forced-injection queues, packet flags, per-terminal generation
  // probabilities and per-job collector counters all cross the
  // checkpoint boundary.
  SimConfig cfg = small_config();
  cfg.workload = "jobs:2:alltoall:size=1-3:reply=1|ring@0.2";
  cfg.load = 0.15;
  const SteadyResult ref = run_steady(cfg);
  for (const Cycle cut : {Cycle{150}, Cycle{900}}) {
    SCOPED_TRACE(cut);
    const SteadyResult resumed = steady_via_cut(cfg, cut);
    expect_same_steady(ref, resumed);
    ASSERT_EQ(resumed.per_job.size(), ref.per_job.size());
    for (std::size_t j = 0; j < ref.per_job.size(); ++j) {
      EXPECT_EQ(ref.per_job[j].delivered, resumed.per_job[j].delivered);
      EXPECT_EQ(ref.per_job[j].avg_latency, resumed.per_job[j].avg_latency);
    }
  }
}

TEST(Checkpoint, TraceWorkloadResumeReplaysTheCursor) {
  // The cut lands between trace rows; the replay cursor must resume from
  // the checkpoint, neither re-injecting earlier rows nor skipping later
  // ones.
  const std::string path = "checkpoint_test_trace.csv";
  {
    std::ofstream os(path);
    for (int i = 0; i < 40; ++i) {
      os << (i * 30) << "," << (i % 36) << "," << (36 + i % 36) << ",8\n";
    }
  }
  SimConfig cfg = small_config();
  cfg.workload = "trace:" + path;
  const SteadyResult ref = run_steady(cfg);
  const SteadyResult resumed = steady_via_cut(cfg, 600);  // row 20 of 40
  expect_same_steady(ref, resumed);
  EXPECT_GT(ref.delivered, 0u);
  std::remove(path.c_str());
}

TEST(Checkpoint, SaveAtCompletionRoundTrips) {
  const SimConfig cfg = small_config();
  SimulationRun a = SimulationRun::steady(cfg);
  a.run_to_completion();
  std::stringstream ss;
  a.save_checkpoint(ss);
  SimulationRun b = SimulationRun::steady(cfg);
  b.restore(ss);
  EXPECT_TRUE(b.done());
  expect_same_steady(a.steady_result(), b.steady_result());
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Run checkpoint format pin (run v2 around engine v6): a phased pb run
// with a two-job workload, cut in its second phase (a workload owns the
// destinations and loads, so the phases switch neither). The stream holds
// the run header and schedule, accumulated windows with per-job cuts, the
// collector's per-job section, pb's published table and the engine
// section, and it must come back byte for byte from a restore into a
// fresh run.
TEST(Checkpoint, RunStreamPinned) {
  SimConfig cfg = small_config();
  cfg.routing = "pb";
  cfg.workload = "jobs:2:alltoall:size=1-3:reply=1|ring@0.2";
  cfg.load = 0.15;
  const std::vector<Phase> phases = {{800, 2, "", -1.0}, {800, 2, "", -1.0}};
  SimulationRun a = SimulationRun::phased(cfg, phases);
  a.advance(1700);
  std::stringstream saved;
  a.save_checkpoint(saved);
  SimulationRun b = SimulationRun::phased(cfg, phases);
  b.restore(saved);
  std::stringstream resaved;
  b.save_checkpoint(resaved);
  EXPECT_TRUE(saved.str() == resaved.str())
      << "save -> restore -> save changed the stream";
  EXPECT_EQ(fnv1a(saved.str()), 0xab3bcf5954b53097ULL);
}

// --- rejection of damaged / mismatched checkpoints -----------------------

std::string checkpoint_bytes(const SimConfig& cfg, Cycle cut) {
  SimulationRun run = SimulationRun::steady(cfg);
  run.advance(cut);
  std::stringstream ss;
  run.save_checkpoint(ss);
  return ss.str();
}

void expect_restore_error(const SimConfig& cfg, const std::string& bytes,
                          const std::string& needle) {
  SimulationRun run = SimulationRun::steady(cfg);
  std::istringstream is(bytes);
  try {
    run.restore(is);
    FAIL() << "restore accepted a damaged checkpoint";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(Checkpoint, TruncatedCheckpointRejected) {
  const SimConfig cfg = small_config();
  const std::string full = checkpoint_bytes(cfg, 700);
  for (const std::size_t keep :
       {std::size_t{4}, full.size() / 2, full.size() - 3}) {
    SCOPED_TRACE(keep);
    expect_restore_error(cfg, full.substr(0, keep), "truncated");
  }
}

TEST(Checkpoint, BadMagicRejected) {
  const SimConfig cfg = small_config();
  std::string bytes = checkpoint_bytes(cfg, 700);
  bytes[0] = 'X';
  expect_restore_error(cfg, bytes, "not a dfsim run checkpoint");
}

TEST(Checkpoint, UnknownVersionRejected) {
  const SimConfig cfg = small_config();
  std::string bytes = checkpoint_bytes(cfg, 700);
  bytes[8] = 99;  // the version u32 sits right after the 8-byte magic
  expect_restore_error(cfg, bytes, "version 99 is not supported");
}

TEST(Checkpoint, VersionOneRejectedPointedly) {
  // v2 added the workload knob to the config text and per-job sections to
  // every accumulated window; a v1 stream must name that, not be
  // misparsed as an empty per-job section.
  const SimConfig cfg = small_config();
  std::string bytes = checkpoint_bytes(cfg, 700);
  bytes[8] = 1;
  SimulationRun run = SimulationRun::steady(cfg);
  std::istringstream is(bytes);
  try {
    run.restore(is);
    FAIL() << "restore accepted a version-1 checkpoint";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("workload"), std::string::npos) << msg;
  }
}

TEST(Checkpoint, CorruptTrailingBytesRejected) {
  // The engine section ends in a sentinel; a flipped final byte must
  // trip it rather than yield a quietly-wrong engine state.
  const SimConfig cfg = small_config();
  std::string bytes = checkpoint_bytes(cfg, 700);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);
  expect_restore_error(cfg, bytes, "mismatch");
}

TEST(Checkpoint, CorruptHistogramLengthRejected) {
  // The collector's latency histogram has 4096 buckets plus overflow. The
  // u64 4097 appears twice in a stream, first as the collector's bucket
  // count and then as the histogram's own length. A corrupt length must
  // be rejected as a checkpoint error before anything is allocated.
  const SimConfig cfg = small_config();
  std::string bytes = checkpoint_bytes(cfg, 700);
  const std::string buckets("\x01\x10\0\0\0\0\0\0", 8);
  const std::size_t count_at = bytes.find(buckets);
  ASSERT_NE(count_at, std::string::npos);
  const std::size_t length_at = bytes.find(buckets, count_at + 8);
  ASSERT_NE(length_at, std::string::npos);
  bytes[length_at] = 0x02;  // 4098
  expect_restore_error(cfg, bytes, "collector histogram");
}

TEST(Checkpoint, ConfigDriftRejectedNamingTheKnob) {
  const SimConfig cfg = small_config();
  const std::string bytes = checkpoint_bytes(cfg, 700);
  SimConfig drifted = cfg;
  drifted.load = 0.4;
  SimulationRun run = SimulationRun::steady(drifted);
  std::istringstream is(bytes);
  try {
    run.restore(is);
    FAIL() << "restore accepted a drifted config";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("config drift"), std::string::npos) << msg;
    EXPECT_NE(msg.find("load"), std::string::npos) << msg;
  }
}

TEST(Checkpoint, ShapeMismatchRejected) {
  const SimConfig cfg = small_config();
  const std::string bytes = checkpoint_bytes(cfg, 700);  // a steady run
  SimulationRun run =
      SimulationRun::phased(cfg, {{800, 2, "", -1.0}});
  std::istringstream is(bytes);
  EXPECT_THROW(run.restore(is), std::runtime_error);
}

TEST(Checkpoint, PhaseScheduleMismatchRejected) {
  SimConfig cfg = small_config();
  const std::vector<Phase> phases = {{800, 2, "", -1.0},
                                     {800, 2, "advg+1", -1.0}};
  SimulationRun a = SimulationRun::phased(cfg, phases);
  a.advance(600);
  std::stringstream ss;
  a.save_checkpoint(ss);

  const std::vector<Phase> other = {{800, 2, "", -1.0},
                                    {900, 2, "advg+1", -1.0}};
  SimulationRun b = SimulationRun::phased(cfg, other);
  try {
    b.restore(ss);
    FAIL() << "restore accepted a different phase schedule";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("phase"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RestoreIntoAdvancedRunThrowsLogicError) {
  const SimConfig cfg = small_config();
  const std::string bytes = checkpoint_bytes(cfg, 700);
  SimulationRun run = SimulationRun::steady(cfg);
  run.advance(50);
  std::istringstream is(bytes);
  EXPECT_THROW(run.restore(is), std::logic_error);
}

TEST(Checkpoint, WrapperAndRunObjectAgree) {
  // run_steady / run_phased are thin wrappers over SimulationRun; the
  // two spellings must agree exactly.
  const SimConfig cfg = small_config();
  SimulationRun run = SimulationRun::steady(cfg);
  run.run_to_completion();
  expect_same_steady(run_steady(cfg), run.steady_result());

  const std::vector<Phase> phases = {{600, 2, "advg+1", -1.0}};
  SimulationRun ph = SimulationRun::phased(cfg, phases);
  ph.run_to_completion();
  expect_same_phased(run_phased(cfg, phases), ph.phased_result());
}

}  // namespace
}  // namespace dfsim
