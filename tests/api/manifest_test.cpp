// The manifest runner: grid expansion, the per-point completion ledger,
// resume (skip completed points, restore the in-flight one from its
// checkpoint), worker-count bit-identity of the merged CSV, and drift
// rejection against an existing run directory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/manifest.hpp"
#include "api/sweep.hpp"
#include "runtime/seed.hpp"

namespace dfsim {
namespace {

namespace fs = std::filesystem;

const char* kSteadyManifest =
    "name = mtest\n"
    "h = 2\n"
    "warmup_cycles = 200\n"
    "measure_cycles = 600\n"
    "seed = 42\n"
    "grid.routing = minimal, olm\n"
    "grid.load = 0.1, 0.3\n";

// A scratch run directory, unique per test and cleaned up afterwards.
class TempRunDir {
 public:
  explicit TempRunDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("dfsim_manifest_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
  }
  ~TempRunDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(Manifest, ParsesAndExpandsOdometerOrder) {
  const Manifest m = Manifest::parse(kSteadyManifest);
  EXPECT_EQ(m.name, "mtest");
  EXPECT_EQ(m.base.h, 2);
  EXPECT_EQ(m.base.seed, 42u);
  ASSERT_EQ(m.axes.size(), 2u);

  const auto points = m.expand();
  ASSERT_EQ(points.size(), 4u);
  // First axis slowest, last fastest — routings-major, loads-minor.
  EXPECT_EQ(points[0].series, "minimal");
  EXPECT_EQ(points[0].x, 0.1);
  EXPECT_EQ(points[1].series, "minimal");
  EXPECT_EQ(points[1].x, 0.3);
  EXPECT_EQ(points[2].series, "olm");
  EXPECT_EQ(points[3].cfg.routing, "olm");
  EXPECT_EQ(points[3].cfg.load, 0.3);
  EXPECT_TRUE(points[0].phases.empty());
}

TEST(Manifest, MatchesSweepGridExpansion) {
  // A manifest (routing, load) grid must be the exact grid the figure
  // sweeps run — same order, same configs, same derived seeds.
  const Manifest m = Manifest::parse(kSteadyManifest);
  const auto a = m.expand();
  const auto b = sweep_grid(m.base, {"minimal", "olm"}, {0.1, 0.3});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].series, b[i].series);
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].cfg.describe(), b[i].cfg.describe());
  }
}

TEST(Manifest, ParsesPhaseSchedule) {
  const Manifest m = Manifest::parse(
      "name = ph\n"
      "h = 2\n"
      "grid.routing = olm\n"
      "phase = cycles=800 windows=2\n"
      "phase = cycles=600 windows=3 pattern=advg+1 load=0.4\n");
  ASSERT_EQ(m.phases.size(), 2u);
  EXPECT_EQ(m.phases[0].cycles, 800u);
  EXPECT_EQ(m.phases[0].windows, 2);
  EXPECT_EQ(m.phases[0].pattern, "");
  EXPECT_EQ(m.phases[0].load, -1.0);
  EXPECT_EQ(m.phases[1].pattern, "advg+1");
  EXPECT_EQ(m.phases[1].load, 0.4);
  EXPECT_FALSE(m.expand()[0].phases.empty());
}

TEST(Manifest, RejectsMalformedInputNamingTheLine) {
  EXPECT_THROW(Manifest::parse("this is not key value\n"),
               std::invalid_argument);
  EXPECT_THROW(Manifest::parse("grid.bogus_knob = 1, 2\n"),
               std::invalid_argument);
  EXPECT_THROW(Manifest::parse("phase = windows=2\n"),  // no cycles
               std::invalid_argument);
  EXPECT_THROW(Manifest::parse("grid.load =\n"),  // empty axis
               std::invalid_argument);
  try {
    Manifest::parse("h = 2\nload = warp9\n");
    FAIL() << "parse accepted a bad value";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Manifest, PhaseNumbersAreStrict) {
  // Each used to parse: cycles=-5 as 2^64 - 5, windows=3x as 3 and
  // load=0.5abc as 0.5.
  for (const std::string phase :
       {"cycles=-5 windows=3", "cycles=600 windows=3x",
        "cycles=600 windows=3 load=0.5abc"}) {
    SCOPED_TRACE(phase);
    try {
      Manifest::parse("h = 2\nphase = " + phase + "\n");
      FAIL() << "parse accepted a bad phase value";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Manifest, RunMergesAndIsWorkerCountInvariant) {
  const Manifest m = Manifest::parse(kSteadyManifest);

  TempRunDir dir_a("jobs1");
  TempRunDir dir_b("jobs4");
  ManifestRunOptions opts;
  opts.run_dir = dir_a.str();
  opts.jobs = 1;
  const ManifestRunSummary sa = run_manifest(m, opts);
  opts.run_dir = dir_b.str();
  opts.jobs = 4;
  const ManifestRunSummary sb = run_manifest(m, opts);

  EXPECT_EQ(sa.total_points, 4u);
  EXPECT_EQ(sa.ran_points, 4u);
  EXPECT_EQ(sa.skipped_points, 0u);
  const std::string csv_a = slurp(sa.csv_path);
  EXPECT_FALSE(csv_a.empty());
  EXPECT_EQ(csv_a, slurp(sb.csv_path));  // bytes, not just numbers
}

TEST(Manifest, ResumeSkipsExactlyCompletedPoints) {
  const Manifest m = Manifest::parse(kSteadyManifest);
  TempRunDir dir("resume");
  ManifestRunOptions opts;
  opts.run_dir = dir.str();
  opts.jobs = 2;
  const ManifestRunSummary first = run_manifest(m, opts);
  const std::string golden = slurp(first.csv_path);

  // Simulate a crash that lost two in-flight points.
  fs::remove(dir.str() + "/point_0001.csv");
  fs::remove(dir.str() + "/point_0002.csv");
  const ManifestRunSummary second = run_manifest(m, opts);
  EXPECT_EQ(second.total_points, 4u);
  EXPECT_EQ(second.skipped_points, 2u);
  EXPECT_EQ(second.ran_points, 2u);
  EXPECT_EQ(slurp(second.csv_path), golden);

  // A third run has nothing to do and still reproduces the merge.
  const ManifestRunSummary third = run_manifest(m, opts);
  EXPECT_EQ(third.skipped_points, 4u);
  EXPECT_EQ(third.ran_points, 0u);
  EXPECT_EQ(slurp(third.csv_path), golden);
}

TEST(Manifest, DriftAgainstRunDirectoryRejected) {
  const Manifest m = Manifest::parse(kSteadyManifest);
  TempRunDir dir("drift");
  ManifestRunOptions opts;
  opts.run_dir = dir.str();
  opts.jobs = 2;
  run_manifest(m, opts);

  Manifest drifted = m;
  drifted.base.measure_cycles = 700;
  try {
    run_manifest(drifted, opts);
    FAIL() << "run_manifest accepted a drifted manifest";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("drift"), std::string::npos) << msg;
    EXPECT_NE(msg.find("measure_cycles"), std::string::npos) << msg;
  }
}

TEST(Manifest, InFlightPointResumesFromCheckpointBitIdentically) {
  // The library-level half of the kill -9 smoke: leave a mid-run
  // checkpoint behind (as a killed process would), then let the unified
  // point executor pick it up and finish — identically to a clean run.
  SimConfig cfg;
  cfg.h = 2;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1500;
  cfg.seed = 5;
  ExperimentPoint pt;
  pt.series = "olm";
  pt.cfg = cfg;

  TempRunDir dir("inflight");
  fs::create_directories(dir.str());
  const std::string ckpt = dir.str() + "/point_0000.ckpt";
  const std::uint64_t seed = runtime::derive_seed(cfg.seed, 0);

  {
    SimConfig seeded = cfg;
    seeded.seed = seed;
    SimulationRun partial = SimulationRun::steady(seeded);
    partial.advance(700);  // killed mid-measurement
    std::ofstream os(ckpt, std::ios::binary);
    partial.save_checkpoint(os);
  }

  SweepOptions opts;
  opts.checkpoint_every = 400;
  opts.checkpoint_path = [&](std::size_t) { return ckpt; };
  opts.resume = true;
  const ExperimentResult resumed =
      run_experiment_point(pt, seed, 0, opts);

  const ExperimentResult clean = run_experiment_point(pt, seed, 0, {});
  EXPECT_EQ(resumed.steady.avg_latency, clean.steady.avg_latency);
  EXPECT_EQ(resumed.steady.accepted_load, clean.steady.accepted_load);
  EXPECT_EQ(resumed.steady.delivered, clean.steady.delivered);
  EXPECT_FALSE(fs::exists(ckpt));  // dropped once the point completed
}

TEST(Manifest, ExpandRejectsABadPointBeforeAnyRuns) {
  // Each axis value passes set() alone, but flit_phits = 16 breaks
  // validate()'s flit_phits <= packet_phits rule for point 1 only.
  const Manifest m = Manifest::parse(
      "name = badflit\n"
      "h = 2\n"
      "warmup_cycles = 200\n"
      "measure_cycles = 600\n"
      "packet_phits = 8\n"
      "grid.flit_phits = 8, 16\n");
  try {
    m.expand();
    FAIL() << "expand accepted flit_phits = 16 with packet_phits = 8";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("manifest point 1 (series flit_phits=16)"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("flit_phits must be"), std::string::npos) << msg;
  }
  // run_manifest fails the same way before running point 0.
  const TempRunDir dir("badflit");
  ManifestRunOptions opts;
  opts.run_dir = dir.str();
  opts.jobs = 1;
  EXPECT_THROW(run_manifest(m, opts), std::invalid_argument);
  EXPECT_FALSE(fs::exists(dir.str() + "/point_0000.csv"));
}

TEST(Manifest, PointFailingAtRunTimeIsRethrownAndNothingMerges) {
  // Garbage in point 1's checkpoint: resuming it throws on restore. Both
  // execution modes must surface that error and leave no results.csv.
  const Manifest m = Manifest::parse(kSteadyManifest);
  for (const bool claim : {false, true}) {
    SCOPED_TRACE(claim ? "claim" : "static");
    const TempRunDir dir(claim ? "failclaim" : "failstatic");
    fs::create_directories(dir.str());
    std::ofstream(dir.str() + "/point_0001.ckpt", std::ios::binary)
        << "not a checkpoint";
    ManifestRunOptions opts;
    opts.run_dir = dir.str();
    // One claimer: a second would wait out the dead claimer's lease.
    opts.jobs = claim ? 1 : 2;
    opts.checkpoint_every = 100;
    opts.claim = claim;
    EXPECT_ANY_THROW(run_manifest(m, opts));
    EXPECT_FALSE(fs::exists(dir.str() + "/point_0001.csv"));
    EXPECT_FALSE(fs::exists(dir.str() + "/results.csv"));
  }
}

}  // namespace
}  // namespace dfsim
