// High-level facade: build topology + routing + traffic + engine from a
// SimConfig and run the experiment shapes of the paper — steady-state
// (latency/throughput curves), burst drain (consumption time), and phased
// runs (transient response to mid-run traffic changes).
//
// All three shapes execute on ONE staged state machine (SimulationRun):
// warmup -> phase windows -> drain, with run_steady/run_burst/run_phased
// as thin wrappers. The run object can stop between cycles, serialize
// itself (save_checkpoint), and resume in a fresh process bit-identically
// — the substrate of the resumable-experiment manifest runner.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "metrics/collector.hpp"

namespace dfsim {

struct SteadyResult {
  /// Cycles from creation to delivery, source queueing included, over
  /// the packets created after warmup and delivered before the run ends.
  /// Packets still in flight at the end are left out, so paths longer
  /// than the measure window are censored and read short.
  double avg_latency = 0.0;
  double p99_latency = 0.0;     ///< cycles, same packets
  double accepted_load = 0.0;   ///< phits/(node*cycle) delivered
  /// phits/(node*cycle) the sources *tried* to inject during measurement,
  /// including generations the source-queue cap dropped. Past saturation
  /// this tracks the configured load while accepted_load plateaus.
  double offered_load = 0.0;
  /// Fraction of measurement-window generations dropped by the source
  /// queue cap; nonzero exactly when a point is source-saturated.
  double source_drop_rate = 0.0;
  double avg_hops = 0.0;        ///< network hops per packet
  std::uint64_t delivered = 0;  ///< packets measured
  /// Packets dropped at injection because their destination sat on a dead
  /// router (degraded topologies only; 0 on healthy networks).
  std::uint64_t dead_destination_drops = 0;
  bool deadlock = false;
  /// Per-job measurement totals, one entry per job of a multi-job
  /// workload (empty when cfg.workload is empty or single-job).
  /// accepted_load is normalized by the job's own terminal count;
  /// generated/offered/drop stay 0 — the generation hook carries no
  /// terminal id, so offered load cannot be attributed to a job.
  std::vector<TrafficWindow> per_job;
};

struct BurstResult {
  Cycle consumption_cycles = 0;  ///< cycles to drain the whole burst
  bool completed = false;        ///< false: hit max_cycles or deadlock
  bool deadlock = false;
};

/// Run an open-loop steady-state experiment (Bernoulli sources at
/// cfg.load) for warmup + measure cycles.
SteadyResult run_steady(const SimConfig& cfg);

/// Run a burst-consumption experiment: every node sends
/// cfg.burst_packets packets (generated at cycle 0), report the cycles
/// until the network drains (Figs. 6b / 9b).
BurstResult run_burst(const SimConfig& cfg);

// --- phased runs ---------------------------------------------------------

/// One phase of a phased run: `cycles` long, split into `windows` equal
/// stats windows (the last window absorbs the division remainder). On
/// entry the phase may switch the traffic pattern (a DF_TRAFFIC spec; ""
/// keeps the current one) and/or the offered load (< 0 keeps it) — the
/// mid-run swap the paper's "reacting to changing traffic" claim is
/// about. Packets already in flight keep their destinations.
struct Phase {
  Cycle cycles = 0;
  int windows = 1;
  std::string pattern;  ///< spec to switch to at phase start; "" = keep
  double load = -1.0;   ///< load to switch to at phase start; < 0 = keep
};

/// One closed stats window of a phased run. The post-phase drain is NOT
/// one of these — it lives in PhasedResult::drain.
struct PhaseWindow {
  int phase = 0;         ///< index into the phases vector
  int window = 0;        ///< window index within the phase
  std::string pattern;   ///< pattern name active during the window
  double load = 0.0;     ///< offered load configured during the window
  TrafficWindow stats;
  /// Per-job cuts of the same window (multi-job workloads; empty
  /// otherwise). Cut at the same boundaries as `stats`, so per-job
  /// windows tile the run and sum to the per-job totals exactly.
  std::vector<TrafficWindow> per_job;
};

struct PhasedResult {
  std::vector<PhaseWindow> windows;  ///< measurement windows, in order
  /// Post-phase drain: injection stops and the engine runs until the
  /// network empties (or cfg.max_cycles). Deliveries land here.
  TrafficWindow drain;
  /// Per-job cut of the drain span (multi-job workloads; empty otherwise).
  std::vector<TrafficWindow> drain_per_job;
  bool drained = false;  ///< network fully emptied within the budget
  /// Whole-run aggregate over [warmup, end of drain]. Every integer
  /// counter equals the sum of the windows' (including drain's): the
  /// windows tile the measured span exactly.
  SteadyResult total;
};

/// Run a phased experiment: cfg.warmup_cycles of warmup under the
/// config's own pattern/load (excluded from stats, as in run_steady),
/// then the phases in order with per-window stats snapshots, then a
/// drain. cfg.measure_cycles is ignored — the phases define the span.
/// Throws std::invalid_argument for an empty schedule, a non-positive
/// phase length or window count, or a bad pattern spec / load.
PhasedResult run_phased(const SimConfig& cfg,
                        const std::vector<Phase>& phases);

// --- resumable runs ------------------------------------------------------

/// One experiment as a resumable object: the staged warmup/measure/drain
/// state machine all run shapes share (run_steady/run_burst/run_phased are
/// thin wrappers over it). Construct via the steady/burst/phased
/// factories, drive with advance() (or run_to_completion()), read the
/// shape's result when done. Between advance() calls the run can be
/// serialized with save_checkpoint() and later restored — possibly in a
/// different process — into a freshly-constructed run built from the SAME
/// config and phase schedule; the resumed run then replays bit-identically
/// (the engine's exact-mode determinism contract extends to whole runs).
class SimulationRun {
 public:
  /// Bumped when the run-level checkpoint layout changes. The engine
  /// section carries its own Engine::kCheckpointVersion underneath.
  /// v2: the workload knob joined the config text and every accumulated
  /// window gained a per-job section; v1 streams are rejected with a
  /// pointed message.
  static constexpr std::uint32_t kCheckpointVersion = 2;

  /// The experiment shapes. Each factory validates exactly as the
  /// corresponding run_* wrapper always has (same exceptions, same
  /// messages) and builds the full harness eagerly.
  static SimulationRun steady(const SimConfig& cfg);
  static SimulationRun burst(const SimConfig& cfg);
  static SimulationRun phased(const SimConfig& cfg,
                              const std::vector<Phase>& phases);

  SimulationRun(SimulationRun&&) noexcept;
  SimulationRun& operator=(SimulationRun&&) noexcept;
  ~SimulationRun();

  bool done() const;
  Cycle now() const;

  /// Advance up to `budget` cycles (stage transitions included), stopping
  /// early when the run completes. Returns !done(). A generous budget
  /// driven in a loop is exactly run_to_completion(); a small budget
  /// yields between slices so callers can checkpoint periodically.
  bool advance(Cycle budget);
  void run_to_completion();

  /// Serialize the whole run: a versioned header carrying
  /// SimConfig::describe() and the phase schedule (both re-checked on
  /// restore — config drift fails with a pointed message naming the first
  /// differing knob), the stage cursor, the accumulated phase windows,
  /// the collector, and the full engine state. Call only between
  /// advance() slices.
  void save_checkpoint(std::ostream& os) const;

  /// Restore into a freshly-constructed (never advanced) run built from
  /// the same config and schedule. Throws std::runtime_error on a
  /// truncated/corrupt/mismatched checkpoint and std::logic_error if this
  /// run has already advanced.
  void restore(std::istream& is);

  /// Shape-matched results; throw std::logic_error when asked of a
  /// different shape. Valid once done() (partial reads are permitted for
  /// progress reporting but reflect only what has been accumulated).
  SteadyResult steady_result() const;
  BurstResult burst_result() const;
  PhasedResult phased_result() const;

 private:
  SimulationRun();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dfsim
