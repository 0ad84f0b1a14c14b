// Manifest-driven resumable experiments: a declarative text file
// describing a whole experiment grid (base config x grid axes x an
// optional phase schedule), executed point-by-point through the unified
// run_experiment_point path with per-point completion ledger, periodic
// checkpoints, and crash-safe resume.
//
// A manifest is line-oriented `key = value` text (# comments, blank
// lines allowed; a number must be the whole value, and a count takes no
// sign):
//
//   name = olm_vs_minimal            # run name (ledger dir, BENCH record)
//   h = 2                            # any SimConfig::describe() key sets
//   warmup_cycles = 500              # the base config
//
//   grid.routing = minimal, olm     # each grid.<key> line is one axis:
//   grid.load = 0.2, 0.4, 0.6       # comma-separated values for any
//   grid.seed = 1, 2                # SimConfig key; axes multiply
//
//   workload = jobs:4:alltoall       # workload specs (traffic/workload.hpp)
//   grid.workload = jobs:4:place=contig:alltoall, jobs:4:place=random:alltoall
//                                    # are plain SimConfig keys, so they sweep
//                                    # like any other axis (no commas in specs)
//
//   phase = cycles=800 windows=2                    # optional: phased
//   phase = cycles=800 windows=2 pattern=advg+1     # points instead of
//                                                   # steady ones
//
// The grid expands in odometer order (first axis slowest, last fastest),
// each point seeded with runtime::derive_seed(seed, point index) — the
// exact derivation parallel sweeps use, so a manifest run of a
// (routing, load) grid reproduces parallel_sweep bit-for-bit.
//
// Execution (run_manifest) is crash-safe and resumable:
//   <run_dir>/MANIFEST.txt    canonical manifest text; drift on resume
//                             is a pointed error, not a silent rerun
//   <run_dir>/point_NNNN.csv  completion ledger: rows of a finished
//                             point, landed via write-temp + atomic
//                             rename (a point file either exists whole
//                             or not at all)
//   <run_dir>/point_NNNN.ckpt periodic checkpoint of an in-flight point
//   <run_dir>/results.csv     merge of all point files, written last
// Re-running the same manifest skips every completed point and restores
// any in-flight point from its checkpoint; the merged CSV is
// byte-identical to the uninterrupted run's.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "api/sweep.hpp"

namespace dfsim {

struct Manifest {
  std::string name = "run";
  SimConfig base;
  std::vector<Phase> phases;  ///< empty = steady-state points
  /// Grid axes in manifest order: (SimConfig::set key, values).
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;

  /// Parse manifest text. Throws std::invalid_argument naming the
  /// offending line on malformed input, unknown keys, or bad values
  /// (axis values are validated against SimConfig::set eagerly).
  static Manifest parse(const std::string& text);
  /// Read and parse a manifest file; errors are prefixed with the path.
  static Manifest load_file(const std::string& path);

  /// Expand the grid to concrete points, odometer order (first axis
  /// slowest). Series labels come from the non-load axis values; x is
  /// the load axis value (0 when load is not swept). Every point's
  /// config is validated here, so a bad combination of axis values
  /// throws std::invalid_argument naming the point index and series
  /// before any point runs.
  std::vector<ExperimentPoint> expand() const;

  /// Canonical textual form of the whole manifest (name, axes, phases,
  /// base config). Stored in the run directory and compared on resume —
  /// any drift fails with a message naming the first differing line.
  std::string describe() const;
};

struct ManifestRunOptions {
  /// Ledger/checkpoint directory. Empty = $DF_RUN_DIR, else
  /// "<name>.run" under the current directory. Created if missing.
  std::string run_dir;
  int jobs = 0;  ///< worker threads; <= 0 resolves via the runtime default
  /// Checkpoint the in-flight point every N cycles. 0 =
  /// $DF_CHECKPOINT_EVERY, else 20000.
  Cycle checkpoint_every = 0;
  std::ostream* log = nullptr;  ///< per-point progress lines; null = quiet
  /// Work-stealing claim mode (`df_run --claim`): instead of statically
  /// partitioning the pending points, every worker takes a
  /// `claim_NNNN` lease (api/claim.hpp) before executing a point, so N
  /// processes on N machines sharing the run directory partition the
  /// grid dynamically. Leases of crashed claimers are stolen after
  /// `claim_ttl_s`; the merge runs only once every point file exists
  /// (any claimer that reaches the complete barrier performs it).
  bool claim = false;
  /// Lease staleness TTL in seconds; <= 0 = $DF_CLAIM_TTL, else 60.
  double claim_ttl_s = 0.0;
  /// Claim mode only: exit as soon as no point is claimable instead of
  /// polling for peers' leases to complete or expire — the summary then
  /// reports how many points are still pending and no merge happens.
  bool no_merge = false;
};

struct ManifestRunSummary {
  std::size_t total_points = 0;
  std::size_t skipped_points = 0;  ///< completed by a previous run
  std::size_t ran_points = 0;      ///< executed (or resumed) this run
  std::size_t stolen_leases = 0;   ///< expired leases taken over (claim mode)
  /// Points whose ledger file was still missing when this process
  /// stopped claiming (peers hold their leases, or --no-merge exited
  /// early). 0 whenever `merged`.
  std::size_t pending_points = 0;
  bool merged = false;  ///< this process performed (or re-performed) the merge
  std::string run_dir;
  std::string csv_path;  ///< the merged results.csv
};

/// The checkpoint cadence run_manifest resolves from `opt_value` and
/// $DF_CHECKPOINT_EVERY: a positive option wins; otherwise the env var,
/// validated like every other env knob — a negative value is rejected
/// with a stderr warning (instead of wrapping to a huge unsigned Cycle
/// that silently disables checkpointing) and the 20000 default applies.
/// DF_CHECKPOINT_EVERY=0 explicitly disables periodic checkpoints.
Cycle resolve_checkpoint_every(Cycle opt_value);

/// Execute (or resume) a manifest. Skips points whose ledger file
/// already exists, restores any checkpointed in-flight point, merges all
/// point files into results.csv, and appends a
/// {"bench": "manifest:<name>", ...} record to BENCH_sweep.json.
/// With opts.claim, points are taken via work-stealing leases so many
/// processes (machines) can share one run directory; the merge (and the
/// BENCH record) happen only in the process that finds the ledger
/// complete. Throws std::runtime_error on manifest drift against an
/// existing run directory and std::invalid_argument for a malformed
/// manifest.
ManifestRunSummary run_manifest(const Manifest& m,
                                const ManifestRunOptions& opts = {});

}  // namespace dfsim
