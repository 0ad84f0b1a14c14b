// Out-of-program tracing for the dfsim benchmark: forwarding decorators
// around the routing and traffic layers, and a traced rebuild of one
// steady-state point from the same public calls the SimulationRun harness
// makes (make_topology, make_routing, make_pattern, engine_config, Engine,
// Collector hooks, warmup then measure).
//
// Counters are plain members of each decorator; every decorator serves
// exactly one engine, and the traced rebuild steps that engine on one
// thread (sharded points run with one shard worker), so no counter is
// shared between threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/simulator.hpp"
#include "routing/routing.hpp"
#include "sim/engine.hpp"
#include "traffic/pattern.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct RoutingCounters {
  std::uint64_t decide_calls = 0;  ///< decide() + decide_fresh() entries
  std::uint64_t fresh_calls = 0;   ///< decide_fresh() entries
  std::uint64_t pure = 0;          ///< fresh calls with a pure verdict
  std::uint64_t waits = 0;         ///< impure calls that returned nullopt
  std::uint64_t decide_ns = 0;
  std::uint64_t per_cycle_ns = 0;
  std::uint64_t hops = 0;
  std::uint64_t valiant_commits = 0;
  std::uint64_t local_misroutes = 0;
};

/// Forwards every virtual of RoutingAlgorithm to `inner`. decide_fresh is
/// forwarded too: the base-class default would split it into
/// pure_minimal_hop + decide and change which calls the mechanism sees.
class TracedRouting final : public dfsim::RoutingAlgorithm {
 public:
  explicit TracedRouting(dfsim::RoutingAlgorithm& inner) : inner_(inner) {}

  std::optional<dfsim::RouteChoice> decide(dfsim::RoutingContext& ctx) override;
  std::optional<dfsim::Hop> pure_minimal_hop(
      const dfsim::RoutingContext& ctx) override {
    return inner_.pure_minimal_hop(ctx);
  }
  std::optional<dfsim::RouteChoice> decide_fresh(
      dfsim::RoutingContext& ctx, std::optional<dfsim::Hop>* pure_hop) override;
  void per_cycle(dfsim::Engine& engine) override;
  void on_hop(const dfsim::Engine& engine, dfsim::Packet& packet,
              const dfsim::RouteChoice& choice,
              dfsim::RouterId router) override;
  void save_state(std::ostream& os) const override { inner_.save_state(os); }
  void restore_state(std::istream& is) override { inner_.restore_state(is); }
  int min_local_vcs() const override { return inner_.min_local_vcs(); }
  int min_global_vcs() const override { return inner_.min_global_vcs(); }
  bool supports_wormhole() const override {
    return inner_.supports_wormhole();
  }
  std::string name() const override { return inner_.name(); }

  const RoutingCounters& counters() const { return c_; }

 private:
  dfsim::RoutingAlgorithm& inner_;
  RoutingCounters c_;
};

struct TrafficCounters {
  std::uint64_t dest_calls = 0;
  std::uint64_t dest_ns = 0;
};

/// Forwards dest() and name() to `inner`, counting and timing dest().
class TracedPattern final : public dfsim::TrafficPattern {
 public:
  explicit TracedPattern(dfsim::TrafficPattern& inner) : inner_(inner) {}

  dfsim::NodeId dest(dfsim::NodeId src, dfsim::Rng& rng) override {
    const std::uint64_t t0 = now_ns();
    const dfsim::NodeId d = inner_.dest(src, rng);
    c_.dest_ns += now_ns() - t0;
    ++c_.dest_calls;
    return d;
  }
  std::string name() const override { return inner_.name(); }

  const TrafficCounters& counters() const { return c_; }

 private:
  dfsim::TrafficPattern& inner_;
  TrafficCounters c_;
};

/// The simulated outcome of one steady point — the fields the benchmark
/// checks against its references.
struct PointResult {
  std::string label;
  std::uint64_t seed = 0;
  std::uint64_t delivered = 0;
  double accepted_load = 0.0;
  double avg_latency = 0.0;
  bool deadlock = false;
  dfsim::Cycle cycles = 0;  ///< simulated cycles actually advanced
};

/// Per-layer totals of one or more traced points (summed; footprint is
/// the maximum).
struct LayerTotals {
  double validate_s = 0.0;
  double topology_build_s = 0.0;
  double sim_build_s = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t in_flight_sum = 0;  ///< packets in flight, summed per step
  double footprint_mb = 0.0;
  std::uint64_t phits_sent[3] = {0, 0, 0};  ///< indexed by PortClass
  std::uint64_t checkpoints = 0;
  double checkpoint_save_s = 0.0;
  std::uint64_t checkpoint_bytes = 0;
  dfsim::Engine::PhaseProfile profile;
  RoutingCounters routing;
  TrafficCounters traffic;
  std::uint64_t generated = 0;
  std::uint64_t source_drops = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t on_delivered_ns = 0;

  void add(const LayerTotals& o);
};

/// One coarse span: a point, its setup, an advance slice or a checkpoint.
struct Span {
  std::string name;
  std::size_t point = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

struct TraceOptions {
  bool profile = false;  ///< switch on the engine's phase profiler
  /// Save collector + engine state every this many cycles (0 = never),
  /// write-temp + rename to `checkpoint_path`, like the manifest runner.
  dfsim::Cycle checkpoint_every = 0;
  std::string checkpoint_path;
  dfsim::Cycle slice = 100;  ///< cycles per recorded "slice" span
  std::size_t point_index = 0;
};

/// Rebuild and run one steady point with the traced decorators swapped
/// in. `cfg.seed` is used as given. Adds this point's layer totals to
/// `acc` and its spans to `spans`.
PointResult run_traced_point(const dfsim::SimConfig& cfg,
                             const TraceOptions& opt, LayerTotals& acc,
                             std::vector<Span>& spans);

/// The simulated outcome of a finished steady SimulationRun.
PointResult steady_outcome(const dfsim::SimulationRun& run,
                           std::uint64_t seed);

/// The untraced reference: SimulationRun::steady, run to completion.
PointResult run_plain_point(const dfsim::SimConfig& cfg);

/// First differing field of two results ("" when equal), compared bit for
/// bit.
std::string first_difference(const PointResult& a, const PointResult& b);

}  // namespace perfbench
