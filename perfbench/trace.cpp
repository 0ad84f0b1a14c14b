#include "trace.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "metrics/collector.hpp"
#include "routing/factory.hpp"

namespace perfbench {

using dfsim::Cycle;

std::optional<dfsim::RouteChoice> TracedRouting::decide(
    dfsim::RoutingContext& ctx) {
  const std::uint64_t t0 = now_ns();
  std::optional<dfsim::RouteChoice> r = inner_.decide(ctx);
  c_.decide_ns += now_ns() - t0;
  ++c_.decide_calls;
  if (!r) ++c_.waits;
  return r;
}

std::optional<dfsim::RouteChoice> TracedRouting::decide_fresh(
    dfsim::RoutingContext& ctx, std::optional<dfsim::Hop>* pure_hop) {
  const std::uint64_t t0 = now_ns();
  std::optional<dfsim::RouteChoice> r = inner_.decide_fresh(ctx, pure_hop);
  c_.decide_ns += now_ns() - t0;
  ++c_.decide_calls;
  ++c_.fresh_calls;
  if (*pure_hop) {
    ++c_.pure;
  } else if (!r) {
    ++c_.waits;
  }
  return r;
}

void TracedRouting::per_cycle(dfsim::Engine& engine) {
  const std::uint64_t t0 = now_ns();
  inner_.per_cycle(engine);
  c_.per_cycle_ns += now_ns() - t0;
}

void TracedRouting::on_hop(const dfsim::Engine& engine, dfsim::Packet& packet,
                           const dfsim::RouteChoice& choice,
                           dfsim::RouterId router) {
  ++c_.hops;
  if (choice.commit_valiant) ++c_.valiant_commits;
  if (choice.local_misroute) ++c_.local_misroutes;
  inner_.on_hop(engine, packet, choice, router);
}

void LayerTotals::add(const LayerTotals& o) {
  validate_s += o.validate_s;
  topology_build_s += o.topology_build_s;
  sim_build_s += o.sim_build_s;
  steps += o.steps;
  step_ns += o.step_ns;
  in_flight_sum += o.in_flight_sum;
  footprint_mb = std::max(footprint_mb, o.footprint_mb);
  for (int i = 0; i < 3; ++i) phits_sent[i] += o.phits_sent[i];
  checkpoints += o.checkpoints;
  checkpoint_save_s += o.checkpoint_save_s;
  checkpoint_bytes += o.checkpoint_bytes;
  profile.steps += o.profile.steps;
  profile.arrive_ns += o.profile.arrive_ns;
  profile.deliver_ns += o.profile.deliver_ns;
  profile.alloc_ns += o.profile.alloc_ns;
  profile.flush_ns += o.profile.flush_ns;
  profile.total_ns += o.profile.total_ns;
  routing.decide_calls += o.routing.decide_calls;
  routing.fresh_calls += o.routing.fresh_calls;
  routing.pure += o.routing.pure;
  routing.waits += o.routing.waits;
  routing.decide_ns += o.routing.decide_ns;
  routing.per_cycle_ns += o.routing.per_cycle_ns;
  routing.hops += o.routing.hops;
  routing.valiant_commits += o.routing.valiant_commits;
  routing.local_misroutes += o.routing.local_misroutes;
  traffic.dest_calls += o.traffic.dest_calls;
  traffic.dest_ns += o.traffic.dest_ns;
  generated += o.generated;
  source_drops += o.source_drops;
  deliveries += o.deliveries;
  on_delivered_ns += o.on_delivered_ns;
}

namespace {

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

PointResult run_traced_point(const dfsim::SimConfig& cfg,
                             const TraceOptions& opt, LayerTotals& acc,
                             std::vector<Span>& spans) {
  LayerTotals t;
  const std::uint64_t point_start = now_ns();

  // Setup: the SimulationRun harness's construction sequence.
  std::uint64_t t0 = now_ns();
  cfg.validate();
  t.validate_s = seconds_since(t0);
  t0 = now_ns();
  const dfsim::DragonflyTopology topo = cfg.make_topology();
  t.topology_build_s = seconds_since(t0);
  std::unique_ptr<dfsim::RoutingAlgorithm> routing =
      dfsim::make_routing(cfg.routing, topo, cfg.routing_params());
  std::unique_ptr<dfsim::TrafficPattern> pattern = dfsim::make_pattern(
      topo, cfg.pattern, cfg.pattern_offset, cfg.global_fraction);
  TracedRouting traced_routing(*routing);
  TracedPattern traced_pattern(*pattern);
  dfsim::Collector collector(cfg.warmup_cycles, topo.num_terminals());
  dfsim::EngineConfig ec = cfg.engine_config(traced_routing);
  ec.shard_jobs = 1;  // sharded points: one worker keeps counters serial
  ec.profile = opt.profile;
  dfsim::InjectionProcess inj;
  inj.mode = dfsim::InjectionProcess::Mode::kBernoulli;
  inj.load = cfg.load;
  inj.onoff_on = cfg.onoff_on;
  inj.onoff_off = cfg.onoff_off;
  t0 = now_ns();
  dfsim::Engine engine(topo, ec, traced_routing, traced_pattern, inj);
  t.sim_build_s = seconds_since(t0);
  engine.set_delivery_hook([&](const dfsim::Packet& pkt, Cycle now) {
    const std::uint64_t h0 = now_ns();
    collector.on_delivered(pkt, now);
    t.on_delivered_ns += now_ns() - h0;
    ++t.deliveries;
  });
  engine.set_generation_hook([&](Cycle now, bool accepted) {
    collector.on_generated(now, accepted);
    ++t.generated;
    if (!accepted) ++t.source_drops;
  });
  spans.push_back({"setup", opt.point_index, point_start, now_ns()});

  // Warmup then measure, one timed step at a time.
  const Cycle end = cfg.warmup_cycles + cfg.measure_cycles;
  std::uint64_t slice_start = now_ns();
  while (engine.now() < end) {
    const std::uint64_t s0 = now_ns();
    const bool alive = engine.step();
    t.step_ns += now_ns() - s0;
    ++t.steps;
    t.in_flight_sum += engine.packets_in_flight();
    if (!alive) break;
    const Cycle now = engine.now();
    if (opt.slice > 0 && (now % opt.slice == 0 || now == end)) {
      spans.push_back({"slice", opt.point_index, slice_start, now_ns()});
      slice_start = now_ns();
    }
    if (opt.checkpoint_every > 0 && now % opt.checkpoint_every == 0 &&
        now < end) {
      const std::uint64_t c0 = now_ns();
      const std::string tmp = opt.checkpoint_path + ".tmp";
      {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        collector.save(os);
        engine.save_checkpoint(os);
        if (!os) throw std::runtime_error("failed to write checkpoint " + tmp);
      }
      std::filesystem::rename(tmp, opt.checkpoint_path);
      t.checkpoint_save_s += seconds_since(c0);
      t.checkpoint_bytes += std::filesystem::file_size(opt.checkpoint_path);
      ++t.checkpoints;
      spans.push_back({"checkpoint", opt.point_index, c0, now_ns()});
    }
  }
  if (opt.checkpoint_every > 0) {
    std::error_code ec_rm;
    std::filesystem::remove(opt.checkpoint_path, ec_rm);
  }

  t.footprint_mb =
      static_cast<double>(engine.footprint_bytes()) / (1024.0 * 1024.0);
  t.phits_sent[0] = engine.phits_sent(dfsim::PortClass::kLocal);
  t.phits_sent[1] = engine.phits_sent(dfsim::PortClass::kGlobal);
  t.phits_sent[2] = engine.phits_sent(dfsim::PortClass::kTerminal);
  t.profile = engine.phase_profile();
  t.routing = traced_routing.counters();
  t.traffic = traced_pattern.counters();

  PointResult r;
  r.seed = cfg.seed;
  r.delivered = collector.delivered_packets();
  r.accepted_load = collector.accepted_load(engine.now());
  r.avg_latency = collector.avg_latency();
  r.deadlock = engine.deadlock_detected();
  r.cycles = engine.now();
  spans.push_back({"point", opt.point_index, point_start, now_ns()});
  acc.add(t);
  return r;
}

PointResult steady_outcome(const dfsim::SimulationRun& run,
                           std::uint64_t seed) {
  const dfsim::SteadyResult s = run.steady_result();
  PointResult r;
  r.seed = seed;
  r.delivered = s.delivered;
  r.accepted_load = s.accepted_load;
  r.avg_latency = s.avg_latency;
  r.deadlock = s.deadlock;
  r.cycles = run.now();
  return r;
}

PointResult run_plain_point(const dfsim::SimConfig& cfg) {
  dfsim::SimulationRun run = dfsim::SimulationRun::steady(cfg);
  run.run_to_completion();
  return steady_outcome(run, cfg.seed);
}

std::string first_difference(const PointResult& a, const PointResult& b) {
  if (a.delivered != b.delivered) return "delivered";
  if (std::memcmp(&a.accepted_load, &b.accepted_load, sizeof(double)) != 0) {
    return "accepted_load";
  }
  if (std::memcmp(&a.avg_latency, &b.avg_latency, sizeof(double)) != 0) {
    return "avg_latency";
  }
  if (a.deadlock != b.deadlock) return "deadlock";
  if (a.cycles != b.cycles) return "cycles";
  return "";
}

}  // namespace perfbench
