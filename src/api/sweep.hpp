// Experiment grids shared by the figure benches and the manifest runner:
// run a load sweep (or an arbitrary grid of steady/phased experiments)
// over several routing mechanisms and print paper-style CSV series.
//
// All grids execute through ONE path — run_experiments — on top of the
// parallel runtime (src/runtime/): grid points are independent
// simulations, so they are sharded across a thread pool. Each point runs
// with a deterministic seed derived from the base config's seed and the
// point's grid index, which makes the output bit-identical for any worker
// count — `--jobs=1` and `--jobs=N` produce the same CSV bytes in the
// same order. The same path optionally checkpoints each in-flight run
// periodically and resumes from an existing checkpoint, which is what the
// manifest runner (api/manifest.hpp) builds on.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "api/simulator.hpp"

namespace dfsim {

// --- the unified experiment surface --------------------------------------

/// One grid point: the fully-configured run plus the CSV series/x it
/// reports under. `burst` selects a burst-consumption run (run_burst
/// semantics); otherwise an empty phase schedule means a steady-state run
/// (run_steady) and a non-empty one a phased run (run_phased).
struct ExperimentPoint {
  std::string series;
  double x = 0.0;
  SimConfig cfg;
  std::vector<Phase> phases;  ///< empty = steady-state experiment
  bool burst = false;         ///< burst consumption; phases must be empty
};

/// What one point produced. For steady and phased points `steady` is
/// always filled: the run's SteadyResult, or for phased points an alias
/// of `phased.total` (the whole-run aggregate), so series-level summaries
/// never need to branch on those two shapes. Burst points fill only
/// `burst`.
struct ExperimentResult {
  std::string series;
  double x = 0.0;
  std::uint64_t seed = 0;  ///< derived per-point seed the run used
  bool is_phased = false;
  bool is_burst = false;
  SteadyResult steady;
  PhasedResult phased;  ///< windows/drain populated only when is_phased
  BurstResult burst;    ///< populated only when is_burst
};

struct SweepOptions {
  /// Worker threads; <= 0 resolves via the runtime default (--jobs /
  /// DF_JOBS / hardware concurrency). 1 forces the serial path.
  int jobs = 0;
  /// Derive a per-point seed from cfg.seed and the grid index (default).
  /// Off = every point runs with its config's seed untouched.
  bool derive_seeds = true;
  /// Called once per completed point, serialized under a lock:
  /// (points completed so far, total points). Null = silent.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Periodic checkpointing: every `checkpoint_every` simulated cycles
  /// the in-flight run is serialized to checkpoint_path(index) via
  /// write-to-temp + atomic rename, and the file is removed when the
  /// point completes. <= 0 or a null checkpoint_path = run straight
  /// through with zero checkpoint overhead.
  Cycle checkpoint_every = 0;
  std::function<std::string(std::size_t)> checkpoint_path;
  /// With checkpointing configured: if checkpoint_path(index) exists,
  /// restore the run from it and continue instead of starting the point
  /// from cycle 0 (bit-identical to the uninterrupted run).
  bool resume = false;
  /// Called with the point index after every periodic checkpoint lands
  /// (atomic rename included). The manifest claimer uses this as its
  /// lease heartbeat: a long-running point re-stamps its claim file on
  /// every checkpoint, so live work is never stolen by TTL expiry.
  std::function<void(std::size_t)> on_checkpoint;
};

/// Run every grid point, in parallel, preserving point order in the
/// returned vector. The single execution path behind every bench grid
/// and the manifest runner.
std::vector<ExperimentResult> run_experiments(
    const std::vector<ExperimentPoint>& points, const SweepOptions& opts = {});

/// Execute a single prepared point with an already-derived seed —
/// the per-point body of run_experiments, exposed so the manifest runner
/// shares it exactly. `index` feeds checkpoint_path.
ExperimentResult run_experiment_point(const ExperimentPoint& pt,
                                      std::uint64_t seed, std::size_t index,
                                      const SweepOptions& opts);

/// Build the classic (routing, load) steady grid: routings-major,
/// loads-minor — identical point order to the historical serial loop.
std::vector<ExperimentPoint> sweep_grid(
    const SimConfig& base, const std::vector<std::string>& routings,
    const std::vector<double>& loads);

/// Print one metric of a steady sweep as `series,x,y` CSV rows.
enum class Metric { kLatency, kThroughput };
void print_sweep(std::ostream& out,
                 const std::vector<ExperimentResult>& results, Metric metric,
                 const std::string& x_label);

/// Print a phased sweep as CSV rows of per-window throughput over time:
/// series,cycle_end,accepted_load,offered_load_measured,
/// avg_latency_cycles,pattern (cycle_end is absolute, warmup included;
/// the drain window rides along with pattern "drain").
void print_phased(std::ostream& out,
                  const std::vector<ExperimentResult>& results);

/// Standard load grids used by the figure benches.
std::vector<double> default_loads(double max_load, int points);

}  // namespace dfsim
