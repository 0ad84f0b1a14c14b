#include "api/simulator.hpp"

#include <limits>
#include <stdexcept>

#include "common/serialize.hpp"
#include "common/text.hpp"
#include "metrics/collector.hpp"
#include "routing/factory.hpp"
#include "sim/engine.hpp"
#include "traffic/factory.hpp"
#include "traffic/pattern.hpp"
#include "traffic/workload.hpp"

namespace dfsim {

// Named (not anonymous) namespace: SimulationRun::Impl holds a Harness by
// value, and a class with external linkage must not embed an
// internal-linkage type (-Wsubobject-linkage). The type still lives only
// in this translation unit.
namespace simrun_detail {

struct Harness {
  explicit Harness(const SimConfig& cfg, InjectionProcess injection)
      : topo(cfg.make_topology()),
        routing(make_routing(cfg.routing, topo, cfg.routing_params())),
        pattern(make_pattern(topo, cfg.pattern, cfg.pattern_offset,
                             cfg.global_fraction)),
        workload(cfg.workload.empty() ? nullptr
                                      : make_workload(&topo, cfg.workload)),
        collector(cfg.warmup_cycles, topo.num_terminals()),
        // A Workload IS a TrafficPattern: when one is configured it takes
        // over the engine's destination draws wholesale (cfg.pattern is
        // ignored, as documented on the knob).
        engine(topo, cfg.engine_config(*routing), *routing,
               workload != nullptr ? static_cast<TrafficPattern&>(*workload)
                                   : *pattern,
               injection) {
    engine.set_delivery_hook([this](const Packet& pkt, Cycle now) {
      collector.on_delivered(pkt, now);
    });
    engine.set_generation_hook([this](Cycle now, bool accepted) {
      collector.on_generated(now, accepted);
    });
    if (workload != nullptr) {
      engine.set_workload(workload.get());
      const std::vector<double> loads = workload->terminal_loads(cfg.load);
      if (!loads.empty()) engine.set_terminal_loads(loads);
      collector.set_job_map(workload->job_of_terminal(),
                            workload->num_jobs());
      // Trace replay: every injection comes from the file's rows; the
      // Bernoulli sources must stay silent.
      if (workload->is_trace()) engine.set_offered_load(0.0);
    }
  }

  DragonflyTopology topo;
  std::unique_ptr<RoutingAlgorithm> routing;
  std::unique_ptr<TrafficPattern> pattern;
  std::unique_ptr<Workload> workload;
  Collector collector;
  Engine engine;
};

/// The whole-run aggregate both run_steady and run_phased report — one
/// assembly point so a new SteadyResult field cannot be forgotten in one
/// of them.
SteadyResult steady_result_from(const Harness& hx, const SimConfig& cfg) {
  SteadyResult out;
  out.avg_latency = hx.collector.avg_latency();
  out.p99_latency = hx.collector.p99_latency();
  out.accepted_load = hx.collector.accepted_load(hx.engine.now());
  out.offered_load =
      hx.collector.offered_load(hx.engine.now(), cfg.packet_phits);
  out.source_drop_rate = hx.collector.drop_rate();
  out.avg_hops = hx.collector.avg_hops();
  out.delivered = hx.collector.delivered_packets();
  out.dead_destination_drops = hx.engine.dead_destination_drops();
  out.deadlock = hx.engine.deadlock_detected();
  if (hx.collector.num_jobs() > 0) {
    // Non-advancing totals: steady results may be derived repeatedly.
    out.per_job =
        hx.collector.job_totals(cfg.warmup_cycles, hx.engine.now());
  }
  return out;
}

InjectionProcess bernoulli_injection(const SimConfig& cfg) {
  InjectionProcess inj;
  inj.mode = InjectionProcess::Mode::kBernoulli;
  inj.load = cfg.load;
  inj.onoff_on = cfg.onoff_on;
  inj.onoff_off = cfg.onoff_off;
  return inj;
}

void validate_phases(const SimConfig& cfg, const std::vector<Phase>& phases) {
  if (phases.empty()) {
    throw std::invalid_argument("run_phased: the phase schedule is empty");
  }
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& ph = phases[i];
    if (ph.cycles < 1) {
      throw std::invalid_argument("run_phased: phase " + std::to_string(i) +
                                  " has non-positive length");
    }
    if (ph.windows < 1 || static_cast<Cycle>(ph.windows) > ph.cycles) {
      throw std::invalid_argument(
          "run_phased: phase " + std::to_string(i) + " wants " +
          std::to_string(ph.windows) + " windows in " +
          std::to_string(ph.cycles) + " cycles");
    }
    if (!cfg.workload.empty() && (!ph.pattern.empty() || ph.load >= 0.0)) {
      throw std::invalid_argument(
          "run_phased: phase " + std::to_string(i) +
          " switches the pattern or load, but the run has workload \"" +
          cfg.workload +
          "\": workloads own the destination draws and per-terminal "
          "loads, so mid-run phase switches are not supported (drop the "
          "switch or the workload)");
    }
    if (!ph.pattern.empty()) validate_pattern_spec(ph.pattern);
    // Negative = keep; otherwise [0, 1]. NaN satisfies neither arm and is
    // rejected rather than silently meaning "keep".
    if (!(ph.load < 0.0 || (ph.load >= 0.0 && ph.load <= 1.0))) {
      throw std::invalid_argument("run_phased: phase " + std::to_string(i) +
                                  " load must be < 0 (keep) or in [0, 1]");
    }
    if (ph.load > cfg.onoff_load_limit()) {
      throw std::invalid_argument(
          "run_phased: phase " + std::to_string(i) + " load " +
          std::to_string(ph.load) +
          " exceeds what the ON/OFF duty cycle can sustain (at most " +
          std::to_string(cfg.onoff_load_limit()) + ")");
    }
  }
}

constexpr std::uint64_t kRunMagic = ser::magic("DFRUNCK\n");

template <class Ar>
void transfer(Ar& ar, TrafficWindow& w) {
  ar.u64(w.start, "window start");
  ar.u64(w.end, "window end");
  ar.u64(w.delivered, "window delivered");
  ar.u64(w.delivered_phits, "window delivered phits");
  ar.u64(w.generated, "window generated");
  ar.u64(w.dropped, "window dropped");
  ar.f64(w.avg_latency, "window avg latency");
  ar.f64(w.accepted_load, "window accepted load");
  ar.f64(w.offered_load, "window offered load");
  ar.f64(w.drop_rate, "window drop rate");
}

/// Per-job cuts of one window: none, or one per job.
template <class Ar>
void transfer(Ar& ar, std::vector<TrafficWindow>& ws, int num_jobs) {
  std::uint64_t n = ws.size();
  ar.count(n, static_cast<std::uint64_t>(num_jobs), "per-job window count");
  ws.resize(static_cast<std::size_t>(n));
  for (TrafficWindow& w : ws) transfer(ar, w);
}

template <class Ar>
void transfer(Ar& ar, PhaseWindow& pw, int num_jobs) {
  ar.i32(pw.phase, "accumulated window phase");
  ar.i32(pw.window, "accumulated window index");
  ar.str(pw.pattern, "accumulated window pattern");
  ar.f64(pw.load, "accumulated window load");
  transfer(ar, pw.stats);
  transfer(ar, pw.per_job, num_jobs);  // v2
}

/// Name the first knob that differs between two describe() texts, for the
/// config-drift error message.
std::string first_config_difference(const std::string& saved,
                                    const std::string& current) {
  const std::optional<LineDifference> d =
      first_line_difference(saved, current);
  if (!d) return "(identical texts?)";
  return "checkpoint has \"" + d->a + "\" but this run was built with \"" +
         d->b + "\"";
}

}  // namespace simrun_detail

using namespace simrun_detail;

// ---------------------------------------------------------------------------
// SimulationRun: the staged state machine every run shape executes on.
// ---------------------------------------------------------------------------

struct SimulationRun::Impl {
  enum class Kind : std::uint8_t { kSteady = 0, kBurst = 1, kPhased = 2 };
  enum class Stage : std::uint8_t {
    kWarmup = 0,
    kPhaseRun = 1,
    kDrain = 2,
    kDone = 3,
  };

  Impl(const SimConfig& c, const InjectionProcess& inj)
      : cfg(c), hx(c, inj) {}

  SimConfig cfg;         // post-adjustment (burst runs zero the warmup)
  std::string cfg_text;  // cfg.describe(), captured at construction
  Kind kind = Kind::kSteady;
  std::vector<Phase> phases;  // steady: one synthesized measure phase
  Harness hx;
  bool advanced = false;  // any advance() or restore() happened

  // --- stage cursor (all serialized) ------------------------------------
  Stage stage = Stage::kWarmup;
  std::size_t phase_idx = 0;
  int window_idx = 0;
  bool phase_entered = false;  // pattern/load switch of phase_idx applied
  Cycle phase_start = 0;
  Cycle window_start = 0;
  Cycle drain_start = 0;
  bool draining = false;  // drain entered (injection already stopped)
  std::string active_pattern_spec;  // "" = the config's own pattern
  std::string active_pattern_name;
  double active_load = 0.0;
  std::uint64_t burst_expected = 0;

  // Pattern built for the most recent phase switch; the engine only ever
  // points at the latest one, and in-flight packets carry their own
  // destinations, so earlier switches need not be kept alive.
  std::unique_ptr<TrafficPattern> switched;

  // --- accumulated results (serialized) ----------------------------------
  std::vector<PhaseWindow> windows;
  TrafficWindow drain_window;
  std::vector<TrafficWindow> drain_per_job;
  bool drained = false;

  bool deadlock() const { return hx.engine.deadlock_detected(); }
  Cycle now() const { return hx.engine.now(); }

  /// Run the engine toward `target`, spending at most `remaining` cycles
  /// (decremented by what was actually spent).
  void run_toward(Cycle target, Cycle& remaining) {
    const Cycle before = now();
    if (before >= target) return;
    const Cycle span = target - before;
    hx.engine.run_until(span <= remaining ? target : before + remaining);
    remaining -= now() - before;
  }

  void close_window() {
    PhaseWindow pw;
    pw.phase = static_cast<int>(phase_idx);
    pw.window = window_idx;
    pw.pattern = active_pattern_name;
    pw.load = active_load;
    pw.stats = hx.collector.cut_window(window_start, now(), cfg.packet_phits);
    if (hx.collector.num_jobs() > 0) {
      pw.per_job = hx.collector.cut_job_windows(window_start, now());
    }
    windows.push_back(std::move(pw));
  }

  /// Cut the drain window and finish. On the deadlock paths drain_start
  /// was just set to now(), so the cut is empty — exactly the historical
  /// run_phased behavior (the drain cut happens unconditionally, keeping
  /// the windows + drain tiling of the run intact).
  void finish_phased() {
    drain_window =
        hx.collector.cut_window(drain_start, now(), cfg.packet_phits);
    if (hx.collector.num_jobs() > 0) {
      drain_per_job = hx.collector.cut_job_windows(drain_start, now());
    }
    drained = hx.engine.packets_in_flight() == 0 && !deadlock();
    stage = Stage::kDone;
  }

  void enter_phase() {
    const Phase& ph = phases[phase_idx];
    if (!ph.pattern.empty()) {
      switched = make_pattern(hx.topo, ph.pattern, cfg.pattern_offset,
                              cfg.global_fraction);
      hx.engine.set_pattern(*switched);
      active_pattern_spec = ph.pattern;
      active_pattern_name = switched->name();
    }
    if (ph.load >= 0.0) {
      hx.engine.set_offered_load(ph.load);
      active_load = ph.load;
    }
    phase_start = now();
    window_start = now();
    window_idx = 0;
    phase_entered = true;
  }

  /// The run checkpoint's field list: run header and schedule, stage
  /// cursor, accumulated windows, then the collector and engine sections.
  template <class Ar>
  void transfer(Ar& ar) {
    constexpr bool kLoad = Ar::kLoading;
    if (kLoad && (advanced || now() != 0)) {
      throw std::logic_error(
          "SimulationRun::restore requires a freshly-constructed run (same "
          "config and schedule as the checkpointed one)");
    }
    std::uint64_t magic = kRunMagic;
    ar.u64(magic, "run checkpoint magic");
    if (magic != kRunMagic) {
      throw std::runtime_error(
          "not a dfsim run checkpoint (bad magic bytes)");
    }
    std::uint32_t version = kCheckpointVersion;
    ar.u32(version, "run checkpoint version");
    if (version == 1) {
      throw std::runtime_error(
          "run checkpoint format version 1 is not supported by this build "
          "(version 2 added the workload knob to the config text and "
          "per-job sections to every accumulated window; re-run the "
          "checkpointed experiment to produce a v2 checkpoint)");
    }
    if (version != kCheckpointVersion) {
      throw std::runtime_error(
          "run checkpoint format version " + std::to_string(version) +
          " is not supported by this build (expected " +
          std::to_string(kCheckpointVersion) + ")");
    }
    std::string saved_cfg = cfg_text;
    ar.str(saved_cfg, "run config text");
    if (saved_cfg != cfg_text) {
      throw std::runtime_error(
          "checkpoint config drift: " +
          first_config_difference(saved_cfg, cfg_text) +
          " — resume with the exact configuration the run was started with");
    }
    Kind saved_kind = kind;
    ar.u8(saved_kind, "run kind");
    if (saved_kind != kind) {
      throw std::runtime_error(
          "checkpoint mismatch: the checkpointed run is a different "
          "experiment shape (steady/burst/phased) than this one");
    }
    std::uint64_t nphases = phases.size();
    ar.u64(nphases, "run phase count");
    if (nphases != phases.size()) {
      throw std::runtime_error(
          "checkpoint mismatch: phase schedule has " +
          std::to_string(nphases) + " phases in the checkpoint but " +
          std::to_string(phases.size()) + " in this run");
    }
    std::uint64_t max_windows = 0;  // what the schedule can accumulate
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const Phase& mine = phases[i];
      Phase ph = mine;
      ar.u64(ph.cycles, "phase length");
      ar.i32(ph.windows, "phase windows");
      ar.str(ph.pattern, "phase pattern");
      ar.f64(ph.load, "phase load");
      if (ph.cycles != mine.cycles || ph.windows != mine.windows ||
          ph.pattern != mine.pattern ||
          std::memcmp(&ph.load, &mine.load, sizeof(double)) != 0) {
        throw std::runtime_error(
            "checkpoint mismatch: phase " + std::to_string(i) +
            " of the schedule differs from the checkpointed one");
      }
      max_windows += static_cast<std::uint64_t>(mine.windows);
    }

    ar.u8(stage, "run stage");
    ser::check(stage <= Stage::kDone, "unknown run stage");
    ar.u64(phase_idx, "run phase index");
    ar.i32(window_idx, "run window index");
    ar.u8(phase_entered, "run phase-entered flag");
    ar.u64(phase_start, "run phase start");
    ar.u64(window_start, "run window start");
    ar.u64(drain_start, "run drain start");
    ar.u8(draining, "run draining flag");
    ar.str(active_pattern_spec, "run active pattern spec");
    ar.str(active_pattern_name, "run active pattern name");
    ar.f64(active_load, "run active load");
    ar.u64(burst_expected, "run burst target");
    ser::check(phase_idx <= phases.size(), "phase index out of range");

    const int jobs = hx.collector.num_jobs();
    std::uint64_t nwindows = windows.size();
    ar.count(nwindows, max_windows, "accumulated-window count");
    windows.resize(static_cast<std::size_t>(nwindows));
    for (PhaseWindow& pw : windows) simrun_detail::transfer(ar, pw, jobs);
    simrun_detail::transfer(ar, drain_window);
    simrun_detail::transfer(ar, drain_per_job, jobs);
    ar.u8(drained, "run drained flag");
    hx.collector.transfer(ar);
    hx.engine.transfer(ar);

    if constexpr (kLoad) {
      // Reinstate the mid-run pattern switch: the engine's pattern pointer
      // is process-local, so it is rebuilt from the phase's spec string
      // rather than serialized. Patterns are stateless given the engine's
      // (restored) RNG, so the rebuilt instance draws identically.
      if (!active_pattern_spec.empty()) {
        switched = make_pattern(hx.topo, active_pattern_spec,
                                cfg.pattern_offset, cfg.global_fraction);
        hx.engine.set_pattern(*switched);
        active_pattern_name = switched->name();
      }
      advanced = true;
    }
  }
};

SimulationRun::SimulationRun() = default;
SimulationRun::SimulationRun(SimulationRun&&) noexcept = default;
SimulationRun& SimulationRun::operator=(SimulationRun&&) noexcept = default;
SimulationRun::~SimulationRun() = default;

SimulationRun SimulationRun::steady(const SimConfig& cfg) {
  cfg.validate();
  SimulationRun run;
  run.impl_ = std::make_unique<Impl>(cfg, bernoulli_injection(cfg));
  Impl& im = *run.impl_;
  im.kind = Impl::Kind::kSteady;
  im.cfg_text = cfg.describe();
  // The measurement span as a single one-window phase that keeps the
  // config's own pattern and load: the historical run_until(warmup +
  // measure) loop, expressed on the shared stage machine.
  Phase measure;
  measure.cycles = cfg.measure_cycles;
  measure.windows = 1;
  im.phases.push_back(measure);
  im.active_pattern_name = im.hx.pattern->name();
  im.active_load = cfg.load;
  return run;
}

SimulationRun SimulationRun::burst(const SimConfig& cfg) {
  cfg.validate();
  InjectionProcess inj;
  inj.mode = InjectionProcess::Mode::kBurst;
  inj.burst_packets = cfg.burst_packets;

  SimConfig adjusted = cfg;
  adjusted.warmup_cycles = 0;  // every packet counts in a drain run

  SimulationRun run;
  run.impl_ = std::make_unique<Impl>(adjusted, inj);
  Impl& im = *run.impl_;
  im.kind = Impl::Kind::kBurst;
  im.cfg_text = adjusted.describe();
  im.active_pattern_name = im.hx.pattern->name();
  im.active_load = 0.0;

  // Degraded topologies: dead terminals never inject their burst, and a
  // live source's packet to a dead destination is dropped at injection
  // (counted) — both must come off the drain target or the run would
  // spin to max_cycles on every faulted burst experiment.
  std::uint64_t live_terminals = 0;
  for (NodeId t = 0; t < im.hx.topo.num_terminals(); ++t) {
    if (im.hx.topo.terminal_alive(t)) ++live_terminals;
  }
  im.burst_expected = cfg.burst_packets * live_terminals;
  return run;
}

SimulationRun SimulationRun::phased(const SimConfig& cfg,
                                    const std::vector<Phase>& phases) {
  cfg.validate();
  validate_phases(cfg, phases);
  SimulationRun run;
  run.impl_ = std::make_unique<Impl>(cfg, bernoulli_injection(cfg));
  Impl& im = *run.impl_;
  im.kind = Impl::Kind::kPhased;
  im.cfg_text = cfg.describe();
  im.phases = phases;
  im.active_pattern_name = im.hx.pattern->name();
  im.active_load = cfg.load;
  return run;
}

bool SimulationRun::done() const {
  return impl_->stage == Impl::Stage::kDone;
}

Cycle SimulationRun::now() const { return impl_->now(); }

bool SimulationRun::advance(Cycle budget) {
  Impl& im = *impl_;
  im.advanced = true;
  Cycle remaining = budget;
  while (im.stage != Impl::Stage::kDone) {
    switch (im.stage) {
      case Impl::Stage::kWarmup: {
        im.run_toward(im.cfg.warmup_cycles, remaining);
        if (im.now() < im.cfg.warmup_cycles && !im.deadlock()) {
          return true;  // budget exhausted mid-warmup
        }
        if (im.kind == Impl::Kind::kBurst) {
          // Burst runs have no warmup or phases: straight to the drain.
          im.stage = Impl::Stage::kDrain;
        } else if (im.deadlock()) {
          if (im.kind == Impl::Kind::kPhased) {
            im.drain_start = im.now();
            im.finish_phased();
          } else {
            im.stage = Impl::Stage::kDone;
          }
        } else {
          im.stage = Impl::Stage::kPhaseRun;
        }
        break;
      }

      case Impl::Stage::kPhaseRun: {
        if (!im.phase_entered) im.enter_phase();
        const Phase& ph = im.phases[im.phase_idx];
        const Cycle stride = ph.cycles / static_cast<Cycle>(ph.windows);
        // The last window absorbs the integer-division remainder.
        const Cycle window_end = im.window_idx + 1 == ph.windows
                                     ? im.phase_start + ph.cycles
                                     : im.window_start + stride;
        im.run_toward(window_end, remaining);
        if (im.now() < window_end && !im.deadlock()) {
          return true;  // budget exhausted mid-window
        }
        im.close_window();
        if (im.deadlock()) {
          if (im.kind == Impl::Kind::kPhased) {
            im.drain_start = im.now();
            im.finish_phased();
          } else {
            im.stage = Impl::Stage::kDone;
          }
          break;
        }
        ++im.window_idx;
        im.window_start = im.now();
        if (im.window_idx == ph.windows) {
          ++im.phase_idx;
          im.phase_entered = false;
          if (im.phase_idx == im.phases.size()) {
            // Steady runs end with the measurement span; phased runs
            // stop injection and let the in-flight traffic land.
            im.stage = im.kind == Impl::Kind::kPhased ? Impl::Stage::kDrain
                                                      : Impl::Stage::kDone;
          }
        }
        break;
      }

      case Impl::Stage::kDrain: {
        Engine& eng = im.hx.engine;
        if (im.kind == Impl::Kind::kBurst) {
          const auto delivered = [&] {
            return im.hx.collector.delivered_packets_total() +
                   eng.dead_destination_drops();
          };
          while (remaining > 0 && delivered() < im.burst_expected &&
                 eng.now() < im.cfg.max_cycles) {
            if (!eng.step()) break;
            --remaining;
          }
          if (delivered() >= im.burst_expected ||
              eng.now() >= im.cfg.max_cycles || im.deadlock()) {
            im.stage = Impl::Stage::kDone;
            break;
          }
          return true;  // budget exhausted mid-drain
        }
        if (!im.draining) {
          im.drain_start = im.now();
          im.draining = true;
          eng.set_offered_load(0.0);
          // Per-terminal workload loads force generation draws regardless
          // of the uniform load; clearing them is what actually silences
          // the sources.
          eng.set_terminal_loads({});
        }
        const Cycle deadline = im.drain_start + im.cfg.max_cycles;
        while (remaining > 0 && eng.packets_in_flight() > 0 &&
               eng.now() < deadline) {
          if (!eng.step()) break;
          --remaining;
        }
        if (eng.packets_in_flight() == 0 || eng.now() >= deadline ||
            im.deadlock()) {
          im.finish_phased();
          break;
        }
        return true;  // budget exhausted mid-drain
      }

      case Impl::Stage::kDone:
        break;
    }
  }
  return false;
}

void SimulationRun::run_to_completion() {
  // A per-slice budget comfortably above any single run's span; advance()
  // re-enters the loop until the stage machine reports done.
  while (advance(std::numeric_limits<Cycle>::max() / 4)) {
  }
}

SteadyResult SimulationRun::steady_result() const {
  const Impl& im = *impl_;
  if (im.kind != Impl::Kind::kSteady) {
    throw std::logic_error("steady_result() asked of a non-steady run");
  }
  return steady_result_from(im.hx, im.cfg);
}

BurstResult SimulationRun::burst_result() const {
  const Impl& im = *impl_;
  if (im.kind != Impl::Kind::kBurst) {
    throw std::logic_error("burst_result() asked of a non-burst run");
  }
  BurstResult out;
  out.consumption_cycles = im.now();
  out.completed = im.hx.collector.delivered_packets_total() +
                      im.hx.engine.dead_destination_drops() ==
                  im.burst_expected;
  out.deadlock = im.deadlock();
  return out;
}

PhasedResult SimulationRun::phased_result() const {
  const Impl& im = *impl_;
  if (im.kind != Impl::Kind::kPhased) {
    throw std::logic_error("phased_result() asked of a non-phased run");
  }
  PhasedResult out;
  out.windows = im.windows;
  out.drain = im.drain_window;
  out.drain_per_job = im.drain_per_job;
  out.drained = im.drained;
  out.total = steady_result_from(im.hx, im.cfg);
  return out;
}

void SimulationRun::save_checkpoint(std::ostream& os) const {
  ser::save(os, *impl_);
}

void SimulationRun::restore(std::istream& is) { ser::load(is, *impl_); }

// ---------------------------------------------------------------------------
// The historical one-call wrappers, now thin shims over SimulationRun.
// ---------------------------------------------------------------------------

SteadyResult run_steady(const SimConfig& cfg) {
  SimulationRun run = SimulationRun::steady(cfg);
  run.run_to_completion();
  return run.steady_result();
}

BurstResult run_burst(const SimConfig& cfg) {
  SimulationRun run = SimulationRun::burst(cfg);
  run.run_to_completion();
  return run.burst_result();
}

PhasedResult run_phased(const SimConfig& cfg,
                        const std::vector<Phase>& phases) {
  SimulationRun run = SimulationRun::phased(cfg, phases);
  run.run_to_completion();
  return run.phased_result();
}

}  // namespace dfsim
