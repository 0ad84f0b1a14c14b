// Scale capability point: the paper's full h=8 shape (p=8, a=16, g=129 —
// 2064 routers, 16512 terminals) as a single pinned steady-state run, so
// the nightly pipeline tracks that the big shape (a) still runs end to
// end with nonzero throughput and (b) how much memory and wall-clock it
// costs (peak_rss_mb / bytes_per_terminal land in BENCH_sweep.json via
// BenchReport). Honors DF_ENGINE=sharded like every bench, reporting as
// "fig_scale+sharded" so the two engines' trajectories stay separate.
// DF_H overrides the shape (the nightly also pins h=16: 16416 routers,
// 262656 terminals — the scale the sharded engine exists for).
//
// Deliberately one (pattern, routing, load) point rather than a figure
// sweep: the full fig05 grid at h=8 is an hours-long run, while this
// point keeps the nightly budget in minutes.
#include <cstdint>
#include <iostream>

#include "bench_util.hpp"
#include "common/env.hpp"

int main(int argc, char** argv) {
  using namespace dfsim;
  bench::BenchReport report("fig_scale", argc, argv);

  SimConfig cfg;
  cfg.h = env_number("DF_H", 8);  // balanced: p=h, a=2h
  cfg.routing = env_str("DF_ROUTING", "olm");
  cfg.pattern = env_str("DF_TRAFFIC", "uniform");
  cfg.load = env_number("DF_LOAD", 0.30);
  cfg.warmup_cycles = env_number<Cycle>("DF_WARMUP", 2000);
  cfg.measure_cycles = env_number<Cycle>("DF_MEASURE", 4000);
  cfg.seed = env_number<std::uint64_t>("DF_SEED", 1);
  cfg.engine = env_str("DF_ENGINE", cfg.engine);
  cfg.validate();

  const DragonflyTopology topo = cfg.make_topology();
  report.set_terminals(topo.num_terminals());
  bench::banner("Scale point: pinned h=8 steady run", cfg);

  const SteadyResult res = run_steady(cfg);
  const double rss_mb =
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  std::cout << "engine,routing,pattern,offered_load,accepted_load,"
               "avg_latency,terminals,peak_rss_mb\n";
  std::cout << cfg.engine << ',' << cfg.routing << ',' << cfg.pattern << ','
            << cfg.load << ',' << res.accepted_load << ','
            << res.avg_latency << ',' << topo.num_terminals() << ','
            << rss_mb << "\n";
  return 0;
}
