// Transient response to a traffic change (the paper's core claim made
// visible over time): every source runs uniform traffic, then switches to
// ADVG+1 mid-run. Per-window accepted load shows the on-the-fly adaptive
// mechanisms (OLM, PB) absorbing the change — throughput dips at the
// switch and recovers within the measurement span as in-transit decisions
// start misrouting — while Minimal collapses onto the single minimal
// global link (~1/(a*p)) and stays there. Valiant is the flat reference:
// oblivious to the switch, paying its detour everywhere.
//
// Knobs: DF_TRAFFIC sets the pre-switch pattern (default un),
// DF_TRANSIENT_TO the post-switch one (default advg+1), DF_LOAD the
// offered load (default 0.4). Each phase is DF_MEASURE cycles split into
// DF_WINDOWS windows (default 8).
#include <iostream>

#include "bench_util.hpp"
#include "common/env.hpp"

int main(int argc, char** argv) {
  using namespace dfsim;
  bench::BenchReport report("fig_transient", argc, argv);
  SimConfig cfg = bench_defaults();
  cfg.pattern = env_str("DF_TRAFFIC", "un");
  cfg.load = env_number("DF_LOAD", 0.4);
  const std::string to = env_str("DF_TRANSIENT_TO", "advg+1");
  const int windows = env_number("DF_WINDOWS", 8);

  bench::banner("Transient: throughput vs time across a " +
                    cfg.pattern + " -> " + to + " switch @" +
                    std::to_string(cfg.load),
                cfg);

  const std::vector<Phase> phases = {
      {cfg.measure_cycles, windows, "", -1.0},  // steady pre-switch span
      {cfg.measure_cycles, windows, to, -1.0},  // post-switch response
  };

  std::vector<ExperimentPoint> grid;
  for (const char* routing : {"minimal", "valiant", "olm", "pb"}) {
    ExperimentPoint pt;
    pt.series = routing;
    pt.cfg = cfg;
    pt.cfg.routing = routing;
    pt.phases = phases;
    grid.push_back(std::move(pt));
  }
  print_phased(std::cout, run_experiments(grid));
  return 0;
}
