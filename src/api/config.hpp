// The public one-stop configuration for running an experiment, and its
// environment-driven defaults (quick laptop scale vs. DF_FULL paper
// scale). This is the entry point downstream users touch first.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "routing/factory.hpp"
#include "sim/engine.hpp"
#include "topology/dragonfly_topology.hpp"

namespace dfsim {

/// Resolved dragonfly shape parameters (see SimConfig topology knobs).
struct TopoParams {
  int p = 0;  ///< terminals per router
  int a = 0;  ///< routers per group
  int h = 0;  ///< global ports per router
  int g = 0;  ///< number of groups
};

/// Parse a topology spec string: letter+integer tokens in any order,
/// optionally separated by spaces/commas (e.g. "h4", "p2a6h3g8",
/// "p2,a6,h3,g8"). `h` is mandatory; omitted letters default to the
/// balanced shape for that h (p = h, a = 2h, g = a*h + 1). Throws
/// std::invalid_argument with a pointed message on malformed input.
TopoParams parse_topo_spec(const std::string& spec);

struct SimConfig {
  // --- topology ---------------------------------------------------------
  // The balanced paper shape needs only `h` (shorthand for p = h, a = 2h,
  // g = 2h^2 + 1). Unbalanced shapes either set p/a/g explicitly (0 keeps
  // the balanced default for that dimension) or put a full spec string in
  // `topo`, which then overrides all four numeric knobs.
  int h = 4;
  int p = 0;         ///< terminals/router; 0 = balanced (p = h)
  int a = 0;         ///< routers/group;    0 = balanced (a = 2h)
  int g = 0;         ///< groups;           0 = maximal  (g = a*h + 1)
  std::string topo;  ///< optional spec string, e.g. "h4" or "p2a6h3g8"
  GlobalArrangement arrangement = GlobalArrangement::kAbsolute;

  // --- faults -----------------------------------------------------------
  // Degraded-network runs: either an explicit fault spec ("gl:3-17,r:42",
  // see src/topology/fault_model.hpp for the grammar) or a sampled
  // failure fraction of the wired global links, drawn from fault_seed.
  // Exactly one of the two may be set; both empty/zero (the default) is a
  // healthy network with zero overhead. validate() rejects fault sets
  // that disconnect any pair of live terminals.
  std::string fault_spec;        ///< explicit dead routers/links
  double fault_fraction = 0.0;   ///< sampled dead global-link fraction
  std::uint64_t fault_seed = 1;  ///< RNG seed for the sampled set

  // --- router / flow control --------------------------------------------
  FlowControl flow = FlowControl::kVirtualCutThrough;
  int packet_phits = 8;   ///< paper VCT experiments: 8
  int flit_phits = 0;     ///< 0 = whole-packet; paper WH: 10 (8 flits)
  int local_vcs = 3;      ///< auto-raised to the mechanism's minimum
  int global_vcs = 2;
  int local_buf_phits = 32;
  int global_buf_phits = 256;
  int local_latency = 10;
  int global_latency = 100;

  // --- routing -----------------------------------------------------------
  std::string routing = "olm";
  double misroute_threshold = 0.45;  ///< Figs. 10/11 pick 45%
  int global_candidates = 4;
  int local_candidates = 4;
  double pb_threshold = 0.35;
  int pb_period = 10;

  // --- traffic -----------------------------------------------------------
  // `pattern` accepts either a historical name (uniform | advg | advl |
  // mixed | shift | hotspot, parameterized by pattern_offset /
  // global_fraction) or a DF_TRAFFIC spec string resolved by the traffic
  // registry: "un", "advg+1", "hotspot:0.2@7", "shuffle", "transpose",
  // "bitcomp", "bitrev", "mix:un=0.7,advg+1=0.3" (see
  // src/traffic/factory.hpp for the grammar).
  std::string pattern = "uniform";
  int pattern_offset = 1;        ///< the +N of legacy ADVG+N / ADVL+N
  double global_fraction = 0.5;  ///< legacy mixed pattern share of ADVG+h
  double load = 0.5;             ///< offered phits/(node*cycle)
  // Markov ON/OFF source modulation (both 0 = plain Bernoulli): per-cycle
  // OFF->ON / ON->OFF transition probabilities. The long-run offered load
  // stays `load`; arrivals clump into geometric ON bursts. Layered on
  // whatever `pattern` resolves to.
  double onoff_on = 0.0;
  double onoff_off = 0.0;
  // Application workload layered above the pattern (DF_WORKLOAD spec
  // resolved by the workload registry): collective motifs
  // ("coll:alltoall", "coll:ring-allreduce", "coll:halo2d:4x8"),
  // multi-job interference ("jobs:4:place=random:alltoall@0.3|ring"),
  // or trace replay ("trace:FILE"). Empty (the default) runs the plain
  // `pattern`; when set, `pattern` is ignored and the workload supplies
  // destinations, message sizes, replies and per-job loads (see
  // src/traffic/workload.hpp for the grammar).
  std::string workload;

  // --- engine -------------------------------------------------------------
  // "exact" (default): the serial stepper whose single-RNG ascending draw
  // order is the historical bit-identity contract. "sharded": the
  // group-sharded parallel stepper — deterministic for any worker count
  // via counter-based RNG streams, but a different stream than exact.
  // Worker count is NOT part of the config (DF_JOBS / --jobs at runtime),
  // so describe() and checkpoints stay worker-independent.
  std::string engine = "exact";

  // --- measurement ---------------------------------------------------------
  Cycle warmup_cycles = 5000;
  Cycle measure_cycles = 15000;
  std::uint64_t burst_packets = 200;  ///< per node, burst experiments
  Cycle max_cycles = 2000000;         ///< hard stop for burst runs
  Cycle watchdog_cycles = 20000;
  std::uint64_t seed = 1;

  /// The (p, a, h, g) shape this config resolves to: `topo` if set, else
  /// the numeric knobs with 0s filled from the balanced defaults.
  TopoParams topo_params() const;
  /// Construct the topology this config describes, with the fault set
  /// (fault_spec, or sampled from fault_fraction/fault_seed) applied.
  DragonflyTopology make_topology() const;

  /// Throw std::invalid_argument with a precise message when any knob is
  /// out of range: malformed/inconsistent p/a/h/g, load outside (0, 1],
  /// non-positive phit counts, flit_phits > packet_phits, or VC counts
  /// below the floor any mechanism needs (>= 1 per class; the engine
  /// auto-raises counts below a specific mechanism's minimum). Called by
  /// run_steady/run_burst before anything is built.
  void validate() const;

  /// Engine-level knobs derived from the above.
  EngineConfig engine_config(const RoutingAlgorithm& routing_algo) const;
  RoutingParams routing_params() const;

  // --- textual round-trip (manifests, checkpoints, drift detection) -----
  /// Canonical textual form: every knob as one `key=value` line in a
  /// fixed order. Doubles are printed with round-trip precision, so
  /// parse(describe()) reconstructs this config exactly. The manifest
  /// ledger and run checkpoints store describe() and compare it on
  /// resume, turning config drift into a pointed error instead of a
  /// silently-wrong resumed run.
  std::string describe() const;

  /// Set one knob by its describe() key (e.g. set("routing", "olm")).
  /// Throws std::invalid_argument naming the key on an unknown key or an
  /// unparsable value. parse() and the manifest grid expansion are built
  /// on this.
  void set(const std::string& key, const std::string& value);

  /// Inverse of describe(), and the manifest base-config reader: accepts
  /// any subset of describe()'s `key=value` lines (missing keys keep
  /// their defaults), blank lines, and `#` comments. Throws
  /// std::invalid_argument naming the offending line on malformed input.
  static SimConfig parse(const std::string& text);
};

/// Defaults for bench binaries: laptop scale unless DF_FULL=1, then each
/// knob's DF_* variable (DF_H, DF_WARMUP, ...; the knob list in config.cpp).
SimConfig bench_defaults();

}  // namespace dfsim
